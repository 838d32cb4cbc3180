"""sagnacsim benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload quiet_key --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One client in one process runs ops back to back (a closed loop, no extra
threads).  A run draws a cycle of distinct ops from the seed, sized so that
the workload's passes over it take about ``--seconds`` at the seed state,
warms up on the first op, then times every op once per pass, with a fixed
reference kernel timed between ops.  Repeats of an op must write
byte-identical reports.  Each timing is corrected to a reference host speed
by the reference runs around it (see REFERENCE_S), and an op's latency is
the median of its corrected passes.  ``setup_s`` is timed in SETUP_SAMPLES
fresh interpreters spread over the passes.  ``--trace 1`` instead runs each op
untraced and then traced, and prints the per-layer table.  The last line of
standard output is one JSON result.  See NOTES.md for why each workload
exists and which layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 4
IMPORTTIME_REPS = 3
TAIL_BEYOND = 10

# Host-speed correction.  The shared host this was tuned on changes speed
# by up to 1.8x for seconds to minutes at a time, for every process alike.
# The benchmark therefore times a fixed reference kernel between ops, and
# reports each timing in seconds at a reference host speed: its wall time
# times REFERENCE_S over the median of the reference times around it.
# REFERENCE_S is about the kernel's median time between ops on the 2-vCPU
# Xeon host the benchmark was tuned on, without and with its text-I/O part.
# Wall times are printed beside the corrected ones.
REFERENCE_S = {False: 0.018, True: 0.041}
REFERENCE_EVERY_S = 0.25
# An execution is corrected by the reference runs nearest it: this many
# before it and this many after it.
REFERENCE_REACH = 3
# A run stops after the pass that takes it past OVERRUN x --seconds, so a
# slow host or program shortens the run instead of stretching it.
OVERRUN = 1.2

# End-to-end metrics in the JSON result.  end_to_end() also prints
# fail_frac and key_pulses_per_s, which are zero on some workloads, and the
# uncorrected wall_* timings.
REPORTED_END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s",
                       "ok_frac", "peak_rss_mb")

# Top-level packages whose import time is reported as a per-layer metric.
IMPORT_GROUPS = ("numpy", "scipy", "sagnacsim")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def reference(text_io: bool) -> float:
    """Wall time of a fixed kernel shaped like the ops: random draws and
    elementwise maths on 1e5-sample arrays, a tone projection, an FFT, and
    float text formatting and parsing.  With ``text_io`` it also writes,
    reads back and parses a 6000-line text trace and dumps a JSON report,
    as the offline tools do.  It runs only numpy and Python, so a change to
    sagnacsim cannot move it; only the host's speed does."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(2):
        basis = rng.integers(0, 2, 100_000, dtype=np.int8)
        delta = 0.1 * rng.standard_normal(100_000) + basis
        p_click = np.minimum(-np.expm1(-0.15 * (1.0 + np.cos(delta))), 1.0)
        np.count_nonzero(rng.random(100_000) < p_click)
        t = np.arange(8192) / 2e5
        abs(np.dot(np.cos(2e4 * t), np.exp(-2j * math.pi * 3000.0 * t)))
        np.abs(np.fft.rfft(delta[:65536])) ** 2
    text = "\n".join(f"{x:.9e}" for x in delta[:3000].tolist())
    sum(float(field) for field in text.split())
    if text_io:
        t = np.arange(6000) / 2e5
        path = WORK / "reference.txt"
        path.write_text("\n".join(
            f"{a!r} {b!r}" for a, b in zip(t.tolist(), delta.tolist())))
        samples = np.array([float(line.split()[1])
                            for line in path.read_text().splitlines()])
        np.abs(np.fft.rfft(samples[:4096] * np.hanning(4096))) ** 2
        json.dumps({f"k{i}": samples[i:i + 4].tolist()
                    for i in range(0, 800, 4)}, indent=2, sort_keys=True)
    return time.perf_counter() - start


def speed_factor(references: list[float], text_io: bool) -> float:
    """Scale from wall seconds to seconds at the reference host speed."""
    return REFERENCE_S[text_io] / statistics.median(references)


def measure_setup(config_path: Path, text_io: bool) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports the CLI and parses the
    workload's config: what every command-line user pays before work.
    Returns (wall s, the speed factor of reference runs around it)."""
    code = ("import sys, sagnacsim.cli as cli; "
            "cli.parse_config(sys.argv[1])")
    references = [reference(text_io) for _ in range(3)]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(config_path)],
                   env=_child_env(), cwd=ROOT, check=True)
    wall = time.perf_counter() - start
    references += [reference(text_io) for _ in range(3)]
    return wall, speed_factor(references, text_io)


def import_breakdown(reps: int) -> dict[str, float]:
    """Median self import time per top-level package from ``-X importtime``
    in fresh interpreters."""
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sagnacsim.cli"],
            env=_child_env(), cwd=ROOT, check=True, capture_output=True,
            text=True)
        groups: dict[str, float] = defaultdict(float)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            groups[package] += int(fields[0]) * 1e-6
        runs.append(groups)
    names = set().union(*runs)
    return {name: statistics.median(run.get(name, 0.0) for run in runs)
            for name in names}


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


@dataclass
class Pass:
    """One timed pass over the distinct ops, with each execution's speed
    factor from the reference runs nearest it."""

    results: list
    factors: list[float]

    def corrected(self, index: int) -> float:
        return self.results[index].seconds * self.factors[index]


class Run:
    """One workload run: the op cycle, results and determinism checks."""

    def __init__(self, cli, workload, seed: int, n_ops: int):
        self.cli = cli
        self.workload = workload
        self.ops = workload.draw(seed, n_ops)
        self.work = WORK / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.first: list = [None] * len(self.ops)
        self.problems: list[str] = []

    def op(self, index: int):
        result = self.workload.run_op(self.cli, self.ops[index], self.work)
        first = self.first[index]
        if first is None:
            self.first[index] = result
        elif result.digest != first.digest:
            self.problems.append(f"op {index} repeated with different "
                                 f"report bytes")
        return result

    def passes(self, setup_config: Path,
               seconds: float) -> tuple[list[Pass], list[tuple]]:
        """Time every op once per pass, with the reference kernel between
        ops, and SETUP_SAMPLES set-ups spread between the passes, the last
        after the final pass.  Stops after the pass that takes the run past
        OVERRUN x ``seconds``, keeping at least two passes.  Returns the
        passes and the set-ups as (wall s, speed factor)."""
        count = self.workload.passes
        text_io = self.workload.text_reference
        step = math.ceil(count / (SETUP_SAMPLES - 1))
        passes, setup = [], []
        start = time.perf_counter()
        for index in range(count):
            if index % step == 0:
                setup.append(measure_setup(setup_config, text_io))
            results, references, since = [], [reference(text_io)], 0.0
            before = []  # reference runs taken before each execution
            for i in range(len(self.ops)):
                results.append(self.op(i))
                before.append(len(references))
                since += results[-1].seconds
                if since >= REFERENCE_EVERY_S:
                    references.append(reference(text_io))
                    since = 0.0
            references.append(reference(text_io))
            passes.append(Pass(results, [
                speed_factor(references[max(0, n - REFERENCE_REACH):
                                        n + REFERENCE_REACH], text_io)
                for n in before]))
            if index >= 1 and \
                    time.perf_counter() - start > OVERRUN * seconds:
                break
        setup.append(measure_setup(setup_config, text_io))
        return passes, setup

    def paired(self, tracer) -> tuple[list, list]:
        """Run each op untraced, then traced, so both see the same host
        conditions; return (untraced, traced) results."""
        untraced, traced = [], []
        for index in range(len(self.ops)):
            untraced.append(self.op(index))
            tracer.op = index
            with tracer:
                traced.append(self.op(index))
        return untraced, traced

    def finish(self) -> None:
        self.problems += self.workload.check_run(self.first)


def end_to_end(run: Run, passes: list[Pass],
               setup: list[tuple]) -> tuple[dict, dict]:
    """Metrics as name -> (value, unit), and notes printed beside some.
    Timings are in seconds at the reference host speed; the ``wall_*``
    lines give the same timings uncorrected."""
    distinct = len(run.ops)
    metrics, notes = {}, {}
    for prefix, scale, setup_s in (
            ("", Pass.corrected, [wall * factor for wall, factor in setup]),
            ("wall_", lambda p, i: p.results[i].seconds,
             [wall for wall, _ in setup])):
        times = [scale(p, i) for p in passes for i in range(distinct)]
        per_op = [statistics.median(scale(p, i) for p in passes)
                  for i in range(distinct)]
        tail_s, tail_pct, beyond = tail(times)
        metrics.update({
            f"{prefix}setup_s": (statistics.median(setup_s), "s"),
            f"{prefix}op_p50_s": (statistics.median(per_op), "s"),
            f"{prefix}op_tail_s": (tail_s, "s"),
            f"{prefix}ops_per_s": (distinct / sum(per_op), "1/s"),
            f"{prefix}key_pulses_per_s": (
                sum(r.pulses for r in run.first) / sum(per_op), "1/s"),
        })
    failed = sum(not r.ok for r in run.first)
    metrics.update({
        "ok_frac": (1.0 - failed / distinct, "frac"),
        "fail_frac": (failed / distinct, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    })
    factors = [f for p in passes for f in p.factors]
    notes.update({
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_p50_s": f"median of {len(passes)} passes, {distinct} distinct "
                    f"ops",
        "op_tail_s": f"p{tail_pct:.1f} of all {len(times)} executions, "
                     f"{beyond} beyond",
        "ops_per_s": "distinct ops per second of median-pass op time",
        "key_pulses_per_s": "per second of median-pass op time",
        "fail_frac": f"{failed} of {distinct} distinct ops",
        "wall_op_p50_s": f"uncorrected; speed factors {min(factors):.3f}-"
                         f"{max(factors):.3f} over the executions",
    })
    return metrics, notes


def per_layer(table: dict, counts: dict, traced: list, untraced: list,
              imports: dict[str, float]) -> dict:
    metrics = {}
    for name, (calls, _, self_s, raised) in table.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.raised"] = (raised, "count")
    pulses = counts["qkd.pulses"]
    samples = counts["perception.samples"]
    windows = sum(r.windows for r in traced)
    integrated = [r for r in traced if r.windows]

    def ratio(num, den):
        return num / den if den else 0.0

    op_time = sum(r.seconds for r in traced)
    covered = sum(row[2] for row in table.values())
    metrics.update({
        "qkd.pulses": (pulses, "count"),
        "qkd.ns_per_pulse": (ratio(1e9 * table["qkd.simulate_window"][1],
                                   pulses), "ns"),
        "qkd.sifted_per_pulse": (ratio(counts["qkd.sifted"], pulses), "frac"),
        "perception.samples": (samples, "count"),
        "perception.ns_per_sample": (
            ratio(1e9 * table["perception.synthesize_trace"][1], samples),
            "ns"),
        "controller.windows": (windows, "count"),
        "controller.breach_frac": (
            ratio(sum(r.breaches for r in traced), windows), "frac"),
        "controller.localized_frac": (
            ratio(sum(r.localized for r in integrated), len(integrated)),
            "frac"),
        "fileio.bytes_written": (counts["fileio.bytes_written"], "B"),
        "fileio.bytes_read": (counts["fileio.bytes_read"], "B"),
        **{f"setup.import.{g}_s": (imports.get(g, 0.0), "s")
           for g in IMPORT_GROUPS},
        "trace.overhead_frac": (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in untraced), "frac"),
        "trace.uncovered_frac": (1.0 - covered / op_time, "frac"),
        "key_pulses_per_s": (sum(r.pulses for r in untraced)
                             / sum(r.seconds for r in untraced), "1/s"),
    })
    return metrics


def print_layer_table(table: dict, traced: list, imports: dict[str, float],
                      spans_path: Path) -> None:
    op_time = sum(r.seconds for r in traced)
    print(f"  per-layer self time over {len(traced)} traced ops "
          f"({op_time:.3f} s op time); spans in {spans_path}")
    print(f"    {'span':42s} {'calls':>8s} {'self_s':>10s} {'share':>7s} "
          f"{'raised':>6s}")
    for name, (calls, _, self_s, raised) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"    {name:42s} {calls:8d} {self_s:10.4f} "
                  f"{self_s / op_time:7.1%} {raised:6d}")
    covered = sum(row[2] for row in table.values())
    print(f"    {'(uncovered remainder)':42s} {'':8s} "
          f"{op_time - covered:10.4f} {1 - covered / op_time:7.1%}")
    print("  import time by top-level package (median self time, "
          "-X importtime):")
    for name, seconds in sorted(imports.items(), key=lambda kv: -kv[1])[:8]:
        print(f"    {name:42s} {seconds:10.4f} s")


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, (number, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {number:14.6g} {unit}{note}")


def run_workload(cli, workload, seed: int, trace: bool, seconds: float,
                 n_ops: int, importtime_reps: int) -> dict:
    """Run one workload; print its report and return the JSON result."""
    run = Run(cli, workload, seed, n_ops)
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(run.ops)} distinct ops")
    run.op(0)  # warm-up, and the reference for the determinism re-run
    if not trace:
        cfg = run.work / "setup_config.json"
        cfg.write_text(json.dumps(run.ops[0]["config"]))
        passes, setup = run.passes(cfg, seconds)
        results = [r for p in passes for r in p.results]
        metrics, notes = end_to_end(run, passes, setup)
        print_metrics(metrics, notes)
        reported = REPORTED_END_TO_END
    else:
        imports = import_breakdown(importtime_reps)
        tracer = Tracer()
        untraced, results = run.paired(tracer)
        spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        table = tracer.self_times()
        metrics = per_layer(table, tracer.counts, results, untraced, imports)
        print_layer_table(table, results, imports, spans_path)
        print_metrics({k: v for k, v in metrics.items()
                       if not k.endswith((".calls", ".self_s", ".raised"))},
                      {})
        results = untraced + results
        reported = tuple(metrics)
    run.finish()
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    failures = [r for r in results if not r.ok]
    distinct = sorted({p for r in failures for p in r.problems})
    for problem in distinct[:5]:
        print(f"  op failed: {problem}")
    if len(distinct) > 5:
        print(f"  ... {len(distinct) - 5} more distinct op failures")
    unexpected = [r for r in failures if not workload.known_miss(r)]
    if unexpected:
        print(f"  CHECK FAILED: {len(unexpected)} op executions failed "
              f"other than on the workload's known misses")
    return {
        "correct": not run.problems and not unexpected,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in reported},
    }


def _load_cli():
    if not (SRC / "sagnacsim" / "cli.py").is_file():
        sys.exit(f"perfbench: no sagnacsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sagnacsim.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "sagnacsim":
        sys.exit(f"perfbench: imported sagnacsim from {cli.__file__}, "
                 f"not from {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for a few ops, untraced "
                             "and traced, printing one result line each")
    args = parser.parse_args(argv)
    cli = _load_cli()
    if args.smoke:
        for workload in WORKLOADS.values():
            for trace in (False, True):
                result = run_workload(cli, workload, args.seed, trace,
                                      seconds=1.0, n_ops=2,
                                      importtime_reps=1)
                print(json.dumps(result))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    n_ops = max(2, math.ceil(workload.ops_per_second * args.seconds
                             / workload.passes))
    result = run_workload(cli, workload, args.seed, bool(args.trace),
                          args.seconds, n_ops, IMPORTTIME_REPS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
