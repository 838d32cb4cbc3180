"""Repeat the benchmark over seeds and summarise the spread.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Runs ``run.py`` once per workload and seed 1-10 in fresh processes, one at
a time, then the traced run of seed 1 of each workload.  Prints for every
end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median next to a third of the metric's bound.  With ``--out`` it
writes the summary, the traced per-layer metrics, the machine description
and the git commit of the measured sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACED_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    import numpy
    import scipy
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip()
                      for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "git_sha": commit or None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the summary to this JSON file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, seed, bench["run_seconds"], 0)
                for seed in SEEDS]
        entry: dict = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
                       "correct": all(r["correct"] for r in runs),
                       "attempted": [r["attempted"] for r in runs],
                       "failed": [r["failed"] for r in runs],
                       "end_to_end": {}}
        print(f"{workload}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": values}
            flag = "" if spread < bound / 3 or name == "setup_s" else "  WIDE"
            print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  "
                  f"(bound/3 {bound / 3:.4f}){flag}")
        traced = _run(workload, TRACED_SEED, bench["run_seconds"], 1)
        entry["traced"] = {"seed": TRACED_SEED,
                           "correct": traced["correct"],
                           "metrics": traced["metrics"]}
        summary["workloads"][workload] = entry
    if args.out:
        summary["machine"] = _machine()
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
