"""The three benchmark workloads: op inputs drawn from a seed, the CLI
calls that make up one op, and the checks on each op's outputs.

An op is one in-process ``sagnacsim.cli.main([...])`` call or a fixed chain
of them.  Inputs are generated from the workload seed only; the program
sees nothing but the config files and arguments built here.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOOP_LENGTH_M = 30000.0  # default channel.length_m of the reference system
MAX_SEED = 2**31

# Acceptance-2 operating point and its bands (4.76 % +- 1 pt, 22.4 kbps
# +- 10 %), checked on the pooled quiet_key output of a run.
REFERENCE_QBER = 0.0476
QBER_BAND = 0.01
REFERENCE_RATE_BPS = 22400.0
RATE_BAND = 0.10

# A WM reading tracks the staircase when it lands within this many kg of
# the applied mass; drawn steps are at least 0.05 kg apart.
WM_MASS_TOLERANCE_KG = 0.02


@dataclass
class OpResult:
    """Outcome of one op: timing, checks and the counts the metrics use."""

    seconds: float
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    pulses: int = 0
    sifted: int = 0
    windows: int = 0
    breaches: int = 0
    localized: bool = False
    qber_errors: int = 0
    rates_bps: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _stratified(rng: np.random.Generator, n: int, lo: float,
                hi: float) -> np.ndarray:
    """One uniform draw in each of ``n`` equal strata of [lo, hi), in a
    random order, so every run covers the whole range evenly."""
    strata = rng.permutation(n)
    return lo + (hi - lo) * (strata + rng.random(n)) / n


def _call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stderr.

    An exception escaping ``main`` is the program failing, so it is
    reported as a failed op rather than stopping the run.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - op boundary, see docstring
            return -1, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def _fresh(path: Path) -> Path:
    """Output directory with no report left over from an earlier op."""
    path.mkdir(parents=True, exist_ok=True)
    for name in ("report.json", "trace.txt"):
        (path / name).unlink(missing_ok=True)
    return path


def _read_report(out: Path) -> tuple[dict | None, bytes]:
    path = out / "report.json"
    if not path.exists():
        return None, b""
    raw = path.read_bytes()
    return json.loads(raw), raw


class Workload:
    """Base: subclasses draw op configs and run and check one op."""

    name = ""
    #: op executions per requested second: a run draws
    #: ``ops_per_second * seconds / passes`` distinct ops, so its passes and
    #: set-ups take about ``--seconds`` on a 2-vCPU host at the seed state.
    #: The inputs are fixed per seed; a host or program slow enough to
    #: overrun the run drops its last passes, not inputs.
    ops_per_second = 1.0
    #: timed passes over the distinct ops; an op's latency is the median of
    #: its host-speed-corrected passes.
    passes = 3
    #: whether the reference kernel that corrects for host speed includes
    #: text-trace I/O; the numeric kernel alone tracks the key and sweep
    #: workloads better, the text part tracks the offline tools better.
    text_reference = False

    def draw(self, seed: int, n_ops: int) -> list[dict]:
        raise NotImplementedError

    def run_op(self, cli, op: dict, work: Path) -> OpResult:
        raise NotImplementedError

    def check_run(self, results: list[OpResult]) -> list[str]:
        """Checks on the pooled output of distinct ops; none by default."""
        return []

    def known_miss(self, result: OpResult) -> bool:
        """Whether a failed op failed only on a known miss of the program,
        which counts in ``fail_frac``; any other failed op makes the run
        incorrect."""
        return False


def _integrated(cli, op: dict, work: Path) -> tuple[OpResult, dict | None]:
    cfg = work / "config.json"
    cfg.write_text(json.dumps(op["config"]))
    out = _fresh(work / "out")
    start = time.perf_counter()
    code, err = _call(cli, ["integrated", "--config", str(cfg),
                            "--out-dir", str(out), "--quiet"])
    result = OpResult(seconds=time.perf_counter() - start)
    report, raw = _read_report(out)
    if code != 0 or report is None:
        result.problems.append(f"integrated exit {code}: {err[:200]}")
        return result, None
    result.digest = hashlib.sha256(raw).hexdigest()
    summary = report["summary"]
    events = [entry["event"] for entry in report["event_log"]]
    result.pulses = summary["pulses_sent"]
    result.sifted = summary["sifted_bits"]
    result.qber_errors = summary["errors"]
    result.windows = summary["windows"]
    result.breaches = events.count("breach_detected")
    result.localized = bool(report["localization_reports"])
    result.rates_bps = [w["raw_rate_bps"] for w in report["qkd_windows"]]
    return result, report


class QuietKey(Workload):
    """All-defaults quiet 20 s ``integrated`` run with a per-op seed."""

    name = "quiet_key"
    ops_per_second = 2.4

    def draw(self, seed, n_ops):
        rng = np.random.default_rng([seed, 1])
        return [{"config": {"seed": int(s)}}
                for s in rng.integers(0, MAX_SEED, n_ops)]

    def run_op(self, cli, op, work):
        result, report = _integrated(cli, op, work)
        if report is not None and report["localization_reports"]:
            result.problems.append("quiet run filed a localization report")
        return result

    def check_run(self, results):
        sifted = sum(r.sifted for r in results)
        rates = [rate for r in results for rate in r.rates_bps]
        if not sifted or not rates:
            return ["quiet_key: no sifted bits pooled over the run"]
        qber = sum(r.qber_errors for r in results) / sifted
        rate = sum(rates) / len(rates)
        problems = []
        if abs(qber - REFERENCE_QBER) > QBER_BAND:
            problems.append(f"quiet_key: pooled QBER {qber:.4f} outside "
                            f"{REFERENCE_QBER} +- {QBER_BAND}")
        if abs(rate - REFERENCE_RATE_BPS) > RATE_BAND * REFERENCE_RATE_BPS:
            problems.append(f"quiet_key: mean raw rate {rate:.0f} bps outside "
                            f"{REFERENCE_RATE_BPS:.0f} +- {RATE_BAND:.0%}")
        return problems


class PztLocalize(Workload):
    """README PZT ``integrated`` scenario at a near-branch position."""

    name = "pzt_localize"
    ops_per_second = 1.65

    def draw(self, seed, n_ops):
        rng = np.random.default_rng([seed, 2])
        positions = _stratified(rng, n_ops, 0.05 * LOOP_LENGTH_M,
                                0.45 * LOOP_LENGTH_M)
        return [{"position_m": float(x), "config": {
            "duration_s": 12.0,
            "seed": int(rng.integers(0, MAX_SEED)),
            # The default, stated because the breach check below uses it.
            "perception": {"switch_dead_time_s": 1.0},
            "disturbances": [{
                "kind": "pzt", "position_m": float(x), "start_s": 3.0,
                "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
                "phase_gain_rad_per_v": 0.5}],
        }} for x in positions]

    def run_op(self, cli, op, work):
        result, report = _integrated(cli, op, work)
        if report is None:
            return result
        # Every breach during the drive must end in a localization, unless
        # the run ends before sensing could start one dead time later.
        cfg = op["config"]
        drive_start_s = cfg["disturbances"][0]["start_s"]
        last_sense_s = (cfg["duration_s"]
                        - cfg["perception"]["switch_dead_time_s"])
        events = [(e["time_s"], e["event"]) for e in report["event_log"]
                  if e["event"] in ("breach_detected", "localization_done")]
        for (t, event), (_, after) in zip(events, events[1:] + [(0, None)]):
            if event == "breach_detected" and after != "localization_done" \
                    and drive_start_s <= t < last_sense_s - 1e-9:
                result.problems.append(
                    f"breach at {t:.1f} s during the drive at "
                    f"{op['position_m']:.0f} m was not localized")
        for loc in report["localization_reports"]:
            error = abs(loc["position_m"] - op["position_m"])
            if error > loc["resolution_m"]:
                result.problems.append(
                    f"localized {loc['position_m']:.1f} m, truth "
                    f"{op['position_m']:.1f} m, resolution "
                    f"{loc['resolution_m']:.1f} m")
        return result


class TraceTools(Workload):
    """Offline chain: ``perceive`` an impact, ``localize --trace`` on the
    written trace, then a ``wm --masses`` staircase."""

    name = "trace_tools"
    ops_per_second = 19.5
    # Short ops: five passes still leave about 100 distinct ops per run.
    passes = 5
    text_reference = True

    def draw(self, seed, n_ops):
        rng = np.random.default_rng([seed, 3])
        positions = _stratified(rng, n_ops, 1000.0, 12000.0)
        ops = []
        for x in positions:
            first = rng.uniform(0.05, 0.2)
            masses = first + np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.05, 0.2, 4))])
            ops.append({
                "position_m": float(x),
                "masses_kg": [float(m) for m in masses],
                # The impact reference of the CLI tests.
                "config": {
                    "duration_s": 6.0,
                    "seed": int(rng.integers(0, MAX_SEED)),
                    "perception": {"noise_sigma": 0.0008,
                                   "sense_duration_s": 0.0256},
                    "disturbances": [{
                        "kind": "impact", "position_m": float(x),
                        "start_s": 1.0, "mass_kg": 0.1,
                        "drop_height_m": 0.1, "width_s": 1e-5,
                        "impact_gain": 2.0}],
                }})
        return ops

    def run_op(self, cli, op, work):
        cfg = work / "config.json"
        cfg.write_text(json.dumps(op["config"]))
        outs = [_fresh(work / d) for d in ("perceive", "localize", "wm")]
        trace = outs[0] / "trace.txt"
        masses = ",".join(repr(m) for m in op["masses_kg"])
        start = time.perf_counter()
        calls = [_call(cli, ["perceive", "--config", str(cfg),
                             "--out-dir", str(outs[0]), "--quiet"])]
        calls.append(_call(cli, ["localize", "--config", str(cfg),
                                 "--trace", str(trace),
                                 "--out-dir", str(outs[1]), "--quiet"]))
        calls.append(_call(cli, ["wm", "--config", str(cfg),
                                 "--masses", masses,
                                 "--out-dir", str(outs[2]), "--quiet"]))
        result = OpResult(seconds=time.perf_counter() - start)

        reports, digest = [], hashlib.sha256()
        for command, (code, err), out in zip(
                ("perceive", "localize", "wm"), calls, outs):
            report, raw = _read_report(out)
            digest.update(raw)
            if code != 0 or report is None:
                result.problems.append(f"{command} exit {code}: {err[:200]}")
            reports.append(report if code == 0 else None)
        result.digest = digest.hexdigest()
        perceived, localized, staircase = reports

        truth = op["position_m"]
        loc = perceived and perceived.get("localization")
        if perceived is not None and loc is None:
            result.problems.append(f"perceive found no null at {truth:.0f} m")
        elif loc is not None:
            result.localized = True
            if abs(loc["position_m"] - truth) > loc["resolution_m"]:
                result.problems.append(
                    f"perceive placed {truth:.0f} m at "
                    f"{loc['position_m']:.1f} m (resolution "
                    f"{loc['resolution_m']:.1f} m)")
            if localized is not None and not math.isclose(
                    localized["localization"]["position_m"],
                    loc["position_m"], rel_tol=1e-12):
                result.problems.append("localize --trace did not reproduce "
                                       "the perceive position")
        if staircase is not None:
            inferred = [r["inferred_mass_kg"]
                        for r in staircase["wm_readings"]]
            if len(inferred) != len(op["masses_kg"]) or \
                    any(abs(i - m) > WM_MASS_TOLERANCE_KG
                        for i, m in zip(inferred, op["masses_kg"])) or \
                    any(b <= a for a, b in zip(inferred, inferred[1:])):
                result.problems.append(
                    f"wm staircase {op['masses_kg']} read as {inferred}")
        return result

    def known_miss(self, result):
        """Trace-path impact analysis declines to localize some positions:
        it finds no null beyond about 10 km, and rarely two nulls map to
        one harmonic index.  ``perceive`` then reports no localization or
        exits 3, and ``localize`` exits 3 on its trace.  Any other failure,
        such as a wrong position, is not a known miss."""
        problems = sorted(result.problems)
        return len(problems) == 2 and \
            problems[0].startswith("localize exit 3:") and \
            problems[1].startswith(("perceive exit 3:",
                                    "perceive found no null"))


WORKLOADS = {w.name: w for w in (QuietKey(), PztLocalize(), TraceTools())}
