"""Print what ``write_trace`` and ``read_trace`` cost a sample.

Usage: ``python3 tools/trace_costs.py [--src DIR]``.  The trace is 5120
samples of ``5.645e-3 (1 + 0.0008 N(0, 1))`` (numpy's default generator,
seed 3) at 200 kHz, about what a ``trace_tools`` benchmark op writes and
reads.  Each function runs 10 warm-up calls, then 100 timed calls on one
file in a fresh temporary directory; the script prints one JSON line with
the median of the timed calls in nanoseconds a sample.  ``--src`` imports
``sagnacsim`` from another checkout's ``src`` directory, so two checkouts
compare in alternating interpreters with this one script.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SAMPLES = 5120
WARM_UP = 10
CALLS = 100


def costs() -> dict[str, float]:
    """The median ns a sample of ``write_trace`` and ``read_trace``."""
    from sagnacsim.fileio import read_trace, write_trace
    from sagnacsim.perception import InterferenceTrace

    samples = 5.645e-3 * (1.0 + 0.0008 * np.random.default_rng(
        3).standard_normal(SAMPLES))
    trace = InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                              input_power_w=5.645e-3, noise_sigma=0.0008)
    result = {}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "trace.txt"
        for name, call in (("write_trace", lambda: write_trace(path, trace)),
                           ("read_trace", lambda: read_trace(path))):
            times = []
            for _ in range(WARM_UP + CALLS):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            result[f"{name}_ns"] = round(
                statistics.median(times[WARM_UP:]) / SAMPLES * 1e9, 1)
        if not np.array_equal(read_trace(path).samples, samples):
            raise SystemExit("the trace did not read back as written")
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory to import sagnacsim from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    print(json.dumps(costs()))


if __name__ == "__main__":
    main()
