"""Smoke test of the benchmark: every workload runs a few ops untraced and
traced, and every metric BENCHMARK.json names is emitted with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Printed by name with their unit on every untraced run, but kept out of
# the JSON result because they are zero on some workloads.
PRINTED_ONLY = {"fail_frac": "frac", "key_pulses_per_s": "1/s"}


def test_smoke_emits_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=600, check=True)
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    names = [w["name"] for w in bench["workloads"]]
    assert len(results) == 2 * len(names)
    expected = [bench["end_to_end"], bench["per_layer"]] * len(names)
    for result, metrics in zip(results, expected):
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in metrics} == {
            name: value["unit"] for name, value in result["metrics"].items()}
    untraced = [block for block in proc.stdout.split("workload ")[1:]
                if block.split(":")[0].endswith("trace 0")]
    assert len(untraced) == len(names)
    for block in untraced:
        printed = {fields[0]: fields[2] for fields in map(
            str.split, block.splitlines()[1:]) if len(fields) >= 3}
        for name, unit in PRINTED_ONLY.items():
            assert printed[name] == unit
