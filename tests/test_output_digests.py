"""Every reference CLI run writes byte-identical output when run again, and
the values it writes match the pinned reference outputs."""
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_digests import RUNS, digest_runs, parsed_outputs  # noqa: E402
from write_reference_outputs import move_lines  # noqa: E402

REFERENCE = Path(__file__).parent / "data" / "reference_outputs.json"

#: Relative tolerance on a float against its reference value.
FLOAT_RTOL = 1e-9


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("first")
    return root, digest_runs(root)


def test_reference_runs_are_byte_identical_on_rerun(first_run, tmp_path):
    _, lines = first_run
    assert {line.split()[1].split("/")[0] for line in lines} == \
        {run for run, *_ in RUNS}
    assert digest_runs(tmp_path) == lines


def _mismatches(got, want, where="$"):
    """Paths at which ``got`` differs from ``want``: keys, ints, strings and
    bools exactly, floats within ``FLOAT_RTOL``."""
    if isinstance(want, float) and type(got) is float:
        if not math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            yield f"{where}: {got!r} != {want!r}"
    elif type(got) is not type(want):
        yield f"{where}: {got!r} is not a {type(want).__name__}"
    elif isinstance(want, dict):
        if got.keys() != want.keys():
            yield f"{where}: keys {sorted(got)} != {sorted(want)}"
        else:
            for key in want:
                yield from _mismatches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if len(got) != len(want):
            yield f"{where}: {len(got)} items != {len(want)}"
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _mismatches(g, w, f"{where}[{i}]")
    elif got != want:
        yield f"{where}: {got!r} != {want!r}"


def test_reference_runs_match_pinned_values(first_run):
    root, _ = first_run
    want = json.loads(REFERENCE.read_text())
    problems = list(_mismatches(parsed_outputs(root), want))
    assert not problems, "\n".join(problems[:20])


def test_mismatches_name_each_kind_of_difference():
    want = {"a": [1, 2.0, "x", True], "b": {"c": 1.0}}
    assert not list(_mismatches(
        {"a": [1, 2.0 * (1 + 1e-12), "x", True], "b": {"c": 1.0}}, want))
    bad = {"a": [1.0, 2.0 * (1 + 1e-8), "y", 1], "b": {"d": 1.0}}
    assert [p.split(":")[0] for p in _mismatches(bad, want)] == \
        ["$.a[0]", "$.a[1]", "$.a[2]", "$.a[3]", "$.b"]


def test_move_lines_name_each_moved_value():
    old = {"perceive.pzt": {"report.json": {"x": 1.5, "nulls": [1, 2],
                                             "gone": True},
                            "trace.txt": {"samples": 3}}}
    new = {"perceive.pzt": {"report.json": {"x": 1.25, "nulls": [1],
                                             "exit": 3}},
           "wm.defaults": {"report.json": {"mass": 0.1}}}
    assert list(move_lines(old, old)) == []
    assert list(move_lines(old, new)) == [
        "perceive.pzt/report.json x: 1.5 -> 1.25",
        "perceive.pzt/report.json nulls[1]: 2 -> absent",
        "perceive.pzt/report.json gone: true -> absent",
        "perceive.pzt/report.json exit: absent -> 3",
        'perceive.pzt/trace.txt: {"samples": 3} -> absent',
        'wm.defaults/report.json: absent -> {"mass": 0.1}']
