"""``tools/trace_costs.py`` prints what a trace write and read cost a
sample, as one JSON line."""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import trace_costs  # noqa: E402


def test_prints_both_costs_in_ns_a_sample(capsys):
    trace_costs.main([])
    costs = json.loads(capsys.readouterr().out)
    assert sorted(costs) == ["read_trace_ns", "write_trace_ns"]
    assert all(0.0 < value < 1e6 for value in costs.values())
