"""Write ``tests/data/reference_outputs.json`` from the reference CLI runs.

Usage: ``python3 tools/write_reference_outputs.py`` (no options).  It runs
the commands of ``tools/output_digests.py`` under a fresh temporary
directory and stores :func:`output_digests.parsed_outputs` of them, which
``tests/test_output_digests.py`` compares fresh runs against.  Rewrite the
file only for a change meant to move the outputs, and say which values
moved and why.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from output_digests import digest_runs, parsed_outputs

TARGET = Path(__file__).resolve().parents[1] / "tests" / "data" \
    / "reference_outputs.json"

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digest_runs(Path(tmp))
        outputs = parsed_outputs(Path(tmp))
    TARGET.parent.mkdir(exist_ok=True)
    TARGET.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
