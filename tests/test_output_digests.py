"""Every reference CLI run writes byte-identical output when run again."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_digests import RUNS, digest_runs  # noqa: E402


def test_reference_runs_are_byte_identical_on_rerun(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    lines = digest_runs(first)
    assert {line.split()[1].split("/")[0] for line in lines} == \
        {run for run, *_ in RUNS}
    assert digest_runs(second) == lines
