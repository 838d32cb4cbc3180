"""Write ``tests/data/reference_outputs.json`` from the reference CLI runs.

Usage: ``python3 tools/write_reference_outputs.py`` (no options).  It runs
the commands of ``tools/output_digests.py`` under a fresh temporary
directory and stores :func:`output_digests.parsed_outputs` of them, which
``tests/test_output_digests.py`` compares fresh runs against.  Before it
rewrites the file it prints each value that moves against the pinned one,
one ``run/file key-path: old -> new`` line each (``absent`` for a value on
one side only).  Rewrite the file only for a change meant to move the
outputs, and say which values moved and why.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from output_digests import digest_runs, parsed_outputs

TARGET = Path(__file__).resolve().parents[1] / "tests" / "data" \
    / "reference_outputs.json"

#: Stands for a value that one side does not hold.
_ABSENT = object()


def moves(old, new, where: str = ""):
    """``(key-path, old, new)`` for each value that differs between ``old``
    and ``new``, through dict keys (``.key``) and list items (``[i]``); a
    value of another type, or on one side only (``_ABSENT`` on the other),
    moves whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from moves(old.get(key, _ABSENT), new.get(key, _ABSENT),
                             f"{where}.{key}" if where else key)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from moves(old[i] if i < len(old) else _ABSENT,
                             new[i] if i < len(new) else _ABSENT,
                             f"{where}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield where, old, new


def move_lines(old: dict, new: dict):
    """One ``run/file key-path: old -> new`` line for each of :func:`moves`
    between two ``{run: {file: value}}`` outputs, ``absent`` for a value on
    one side only."""
    def text(value):
        return "absent" if value is _ABSENT else json.dumps(value)

    for run in [*old, *(r for r in new if r not in old)]:
        files_old, files_new = old.get(run, {}), new.get(run, {})
        for name in [*files_old, *(f for f in files_new
                                   if f not in files_old)]:
            for where, was, now in moves(files_old.get(name, _ABSENT),
                                         files_new.get(name, _ABSENT)):
                place = f"{run}/{name} {where}".rstrip()
                yield f"{place}: {text(was)} -> {text(now)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digest_runs(Path(tmp))
        outputs = parsed_outputs(Path(tmp))
    if TARGET.exists():
        for line in move_lines(json.loads(TARGET.read_text()), outputs):
            print(line)
    TARGET.parent.mkdir(exist_ok=True)
    TARGET.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
