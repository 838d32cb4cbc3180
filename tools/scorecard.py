"""Measure localization and false alarms against ground truth and write
the table as JSON.

Usage: ``python3 tools/scorecard.py`` (no options).  It prints a fixed
table and writes the same rows to ``scorecard.json`` in the working
directory.  The runs are fixed, so two runs of the same code give the same
bytes.

Rows so far, the sweep path: the README drive (1.2 V at 0.5 rad/V, 3 kHz)
switched on at 0 s at each position of ``POSITIONS_M`` on the default
30 km loop, acquired with each seed of ``SEEDS`` through
``perception.acquire`` and ``perception.locate`` at the default perception
settings.  Each row gives the number located, the RMS and the mean of
``position - truth`` over those, the mean's standard error ``sd /
sqrt(located)`` (sample SD, from 2 located on), and the kinds of the
others: ``none`` for no null found, else the exception's class name.
Each sweep row also gives the drive's Cramér–Rao bound on the position
from one sweep, ``tests/oracles.py::sweep_position_bound``, and the
efficiency ``bound / rms``, none where nothing is located.

The strong-sweep rows: the same drive at ``STRONG_GAIN_RAD_PER_V`` (60
rad), with the same positions, seeds and columns.  They record what the
null picker makes of a strong drive's sweep, failures included.

The trace-path rows: the default impact (0.1 kg dropped from 0.1 m, a
10 us pulse at gain 10) at 1 s at each position of ``POSITIONS_M``,
acquired with each seed of ``TRACE_SEEDS`` through the same two calls,
with the same columns.

Next to each located row, the calibration columns: the mean shift of
``position_m`` when each run's own nulls are relocated
(``perception.localization_report``, no new acquisition) on a channel
whose group index is off by ``INDEX_ERROR`` and on one whose length is off
by ``LENGTH_ERROR_M``.  Position is ``(L - c tau / n) / 2``, so these are
``(L - 2x) dn / (2 (n + dn))`` and ``dL / 2`` of the located positions.

The quasi-static row: one weak-measurement reading of a ``WM_MASS_KG`` load
at the default config, through ``wm.pressure_staircase``, with each seed of
``WM_SEEDS``.  It gives the number of runs and the sample SD, the mean and
the mean's standard error ``sd / sqrt(runs)`` of ``inferred - true`` mass.

The false-alarm row: the key windows and breaches of the quiet default
20 s run (``controller.run_scenario``, as ``integrated`` takes it) with
each seed of ``QUIET_SEEDS``, the breaches per window with their binomial
standard error ``sqrt(p (1 - p) / windows)``, and the exact breach
probability of a quiet window at the defaults,
``tests/oracles.py::window_breach_probability``.  The breaches per window
set how many sensing grades a quiet run takes.

The breach rows: the exact breach probability of the key window
``BREACH_WINDOW_S`` with the README drive at 5 km switched on at 3 s,
at each frequency of ``BREACH_FREQUENCIES_HZ``, from the same oracle fed
the window's means ``perception.window_phase_means``.

The impact row: the same probability for the key window from
``IMPACT_WINDOW_S`` that ``IMPACT_EVENT`` reaches, the default impact at
5 km, fed the engine's window means and, as their reference,
``tests/oracles.py::sampled_phase_means`` at ``IMPACT_SAMPLES`` points.

The detectable rows: the smallest peak phase at which that drive breaches
the same window with probability ``DETECTION``, at each of those
frequencies and each key window length of ``DETECTION_PULSES``.  A settled
drive of peak ``phi`` at frequency ``f`` nets the phase ``A cos(...)``
with ``A = 2 phi |sin(pi f tau)|`` across the loop's delay ``tau``, and
the window holds whole periods, so the probability depends on ``A``
alone.  One bisection on ``A`` at the top frequency, to within
``DETECTION_TOLERANCE`` of ``DETECTION``, gives each row's peak ``A / (2
|sin(pi f tau)|)``; each row states the oracle's probability at that
peak.  A window length takes its own bisection.

The two-drive row: the localizations of the ``integrated.two_pzt``
reference run (``tools/output_digests.py``) with each seed of
``TWO_DRIVE_SEEDS``, each counted at the drive it lies nearest, the
largest distance to that drive and the ``localization_failed`` events.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import (fresh_class_probabilities,  # noqa: E402
                     sampled_phase_means, sweep_position_bound,
                     window_breach_probability)
from output_digests import CONFIGS  # noqa: E402
from sagnacsim import perception, wm  # noqa: E402
from sagnacsim.config import parse_config_dict  # noqa: E402
from sagnacsim.controller import EventKind, run_scenario  # noqa: E402
from sagnacsim.errors import SagnacSimError  # noqa: E402
from sagnacsim.optics import C_VACUUM  # noqa: E402
from sagnacsim.qkd import QkdSettings  # noqa: E402

OUTPUT = "scorecard.json"

README_DRIVE = {"kind": "pzt", "start_s": 0.0, "drive_amplitude_v": 1.2,
                "frequency_hz": 3000.0, "phase_gain_rad_per_v": 0.5}
POSITIONS_M = (1000.0, 5000.0, 9000.0, 13000.0, 14000.0, 14500.0, 14900.0)
SEEDS = range(1, 129)
STRONG_GAIN_RAD_PER_V = 50.0
DEFAULT_IMPACT = {"kind": "impact", "start_s": 1.0}
TRACE_SEEDS = range(1, 65)
WM_MASS_KG = 0.1
WM_SEEDS = range(1, 401)
QUIET_SEEDS = range(1, 41)
INDEX_ERROR = 1e-4
LENGTH_ERROR_M = 1.0
BREACH_DRIVE = dict(README_DRIVE, position_m=5000.0, start_s=3.0)
BREACH_WINDOW_S = 5.0
BREACH_FREQUENCIES_HZ = (100.0, 300.0, 1000.0, 3000.0)
DETECTION = 0.9
DETECTION_TOLERANCE = 1e-3
DETECTION_PULSES = (QkdSettings.pulses_per_window, 10**8)
IMPACT_EVENT = dict(DEFAULT_IMPACT, position_m=5000.0, start_s=1.5)
IMPACT_WINDOW_S = 1.0
IMPACT_SAMPLES = 2**22
TWO_DRIVE_SEEDS = range(1, 11)


def mean(values: list[float]):
    return math.fsum(values) / len(values) if values else None


def located_row(entry: dict, position_m: float, seeds: range) -> dict:
    """Localization of the disturbance ``entry`` at ``position_m`` over
    ``seeds``."""
    script = parse_config_dict(
        {"disturbances": [dict(entry, position_m=position_m)]}).scenario
    [event] = script.events
    channel = script.channel
    index = channel.refractive_index + INDEX_ERROR
    mis_set = (replace(channel, refractive_index=index),
               replace(channel, length_m=channel.length_m + LENGTH_ERROR_M))
    errors, shifts, fails = [], ([], []), Counter()
    for seed in seeds:
        try:
            data = perception.acquire(event, channel, script.perception,
                                      seed)
            located = perception.locate(data, channel, script.perception)
        except SagnacSimError as exc:
            fails[type(exc).__name__] += 1
            continue
        if located is None:
            fails["none"] += 1
            continue
        errors.append(located.position_m - position_m)
        for shifted, wrong in zip(shifts, mis_set):
            shifted.append(perception.localization_report(
                located.nulls, wrong,
                script.perception.freq_resolution_hz).position_m
                - located.position_m)
    return {
        "position_m": position_m,
        "runs": len(seeds),
        "located": len(errors),
        "rms_error_m": (math.sqrt(math.fsum(e * e for e in errors)
                                  / len(errors)) if errors else None),
        "mean_error_m": mean(errors),
        "mean_se_m": (statistics.stdev(errors) / math.sqrt(len(errors))
                      if len(errors) > 1 else None),
        "index_shift_m": mean(shifts[0]),
        "length_shift_m": mean(shifts[1]),
        "fails": dict(sorted(fails.items())),
    }


def sweep_row(position_m: float, drive: dict = README_DRIVE) -> dict:
    """:func:`located_row` of ``drive`` at ``position_m`` over ``SEEDS``,
    with the drive's position bound and the efficiency."""
    row = located_row(drive, position_m, SEEDS)
    script = parse_config_dict({"disturbances": [
        dict(drive, position_m=position_m)]}).scenario
    bound = sweep_position_bound(script.events[0], script.channel,
                                 script.perception)
    row["bound_m"] = bound
    row["efficiency"] = bound / row["rms_error_m"] if row["located"] else None
    return row


def wm_row() -> dict:
    """Mass error of one reading of ``WM_MASS_KG`` over ``WM_SEEDS``."""
    script = parse_config_dict({}).scenario
    errors = [wm.pressure_staircase([WM_MASS_KG], script.wm, script.channel,
                                    script.packet, seed)[0].inferred_mass_kg
              - WM_MASS_KG for seed in WM_SEEDS]
    sd = statistics.stdev(errors)
    return {"mass_kg": WM_MASS_KG, "runs": len(errors), "sd_error_kg": sd,
            "mean_error_kg": math.fsum(errors) / len(errors),
            "mean_se_kg": sd / math.sqrt(len(errors))}


def false_alarm_row() -> dict:
    """Breaches per window of quiet runs over ``QUIET_SEEDS`` against the
    exact breach probability of a quiet window."""
    windows = breaches = 0
    for seed in QUIET_SEEDS:
        result = run_scenario(parse_config_dict({"seed": seed}).scenario)
        windows += len(result.key_records)
        breaches += sum(record.kind is EventKind.BREACH_DETECTED
                        for record in result.log)
    script = parse_config_dict({}).scenario
    rate = breaches / windows
    return {"runs": len(QUIET_SEEDS), "windows": windows,
            "breaches": breaches, "per_window": rate,
            "per_window_se": math.sqrt(rate * (1.0 - rate) / windows),
            "oracle_per_window": window_breach_probability(
                fresh_class_probabilities(script),
                script.qkd.pulses_per_window, script.qkd.qber_threshold)}


def window_breach(script, t0: float,
                  phase_means=perception.window_phase_means,
                  points: int | None = None) -> float:
    """Exact breach probability of ``script``'s key window from ``t0``,
    the means of its events' phase taken by ``phase_means`` at ``points``
    times, the engine's means at its pulse count by default."""
    settings = script.qkd
    means = partial(phase_means, script.events, script.channel, t0,
                    settings.window_s, points or settings.pulses_per_window)
    return window_breach_probability(
        fresh_class_probabilities(script, means),
        settings.pulses_per_window, settings.qber_threshold)


def breach_probability(frequency_hz: float,
                       pulses: int = QkdSettings.pulses_per_window,
                       **drive) -> float:
    """Exact breach probability of the key window of ``pulses`` pulses
    from ``BREACH_WINDOW_S`` with ``BREACH_DRIVE`` at ``frequency_hz``, its
    keys in ``drive`` set anew."""
    script = parse_config_dict({
        "qkd": {"pulses_per_window": pulses},
        "disturbances": [dict(BREACH_DRIVE, frequency_hz=frequency_hz,
                              **drive)]}).scenario
    return window_breach(script, BREACH_WINDOW_S)


def breach_rows() -> list[dict]:
    """Exact breach probability of the README drive's key window from
    ``BREACH_WINDOW_S`` at each of ``BREACH_FREQUENCIES_HZ``."""
    return [{"frequency_hz": frequency_hz,
             "per_window": breach_probability(frequency_hz)}
            for frequency_hz in BREACH_FREQUENCIES_HZ]


def detectable_rows(pulses: int) -> list[dict]:
    """The smallest peak phase at which ``BREACH_DRIVE`` breaches its key
    window of ``pulses`` pulses from ``BREACH_WINDOW_S`` with probability
    ``DETECTION``, at each of ``BREACH_FREQUENCIES_HZ``, from one bisection
    on the net amplitude."""
    channel = parse_config_dict({}).scenario.channel
    lag = channel.refractive_index * (
        channel.length_m - 2.0 * BREACH_DRIVE["position_m"]) / C_VACUUM
    volts = BREACH_DRIVE["drive_amplitude_v"]

    def probability(frequency_hz, amplitude):
        peak = amplitude / (2.0 * abs(math.sin(math.pi * frequency_hz * lag)))
        return peak, breach_probability(frequency_hz, pulses,
                                        phase_gain_rad_per_v=peak / volts)

    lo, hi = 0.0, 2.0  # a net amplitude of 2 rad breaches almost surely
    for _ in range(50):
        amplitude = 0.5 * (lo + hi)
        _, per_window = probability(BREACH_FREQUENCIES_HZ[-1], amplitude)
        if abs(per_window - DETECTION) <= DETECTION_TOLERANCE:
            break
        lo, hi = (amplitude, hi) if per_window < DETECTION else (lo, amplitude)
    else:
        raise ValueError("the bisection found no net amplitude")
    rows = []
    for frequency_hz in BREACH_FREQUENCIES_HZ:
        peak, per_window = probability(frequency_hz, amplitude)
        rows.append({"pulses_per_window": pulses,
                     "frequency_hz": frequency_hz,
                     "net_amplitude_rad": amplitude, "peak_phase_rad": peak,
                     "per_window": per_window})
    return rows


def impact_row() -> dict:
    """Exact breach probability of the key window from ``IMPACT_WINDOW_S``
    that ``IMPACT_EVENT`` reaches, from the engine's window means and from
    ``IMPACT_SAMPLES`` sampled ones."""
    script = parse_config_dict({"disturbances": [IMPACT_EVENT]}).scenario
    return {"position_m": IMPACT_EVENT["position_m"],
            "start_s": IMPACT_EVENT["start_s"],
            "peak_phase_rad": script.events[0].params.peak_phase_rad,
            "per_window": window_breach(script, IMPACT_WINDOW_S),
            "sampled_per_window": window_breach(
                script, IMPACT_WINDOW_S, sampled_phase_means, IMPACT_SAMPLES)}


def two_drive_row() -> dict:
    """Localizations of the ``integrated.two_pzt`` reference run over
    ``TWO_DRIVE_SEEDS``, each counted at the drive it lies nearest."""
    config = CONFIGS["two_pzt"]
    drives = [entry["position_m"] for entry in config["disturbances"]]
    nearest, errors, failed = Counter(), [], 0
    for seed in TWO_DRIVE_SEEDS:
        result = run_scenario(
            parse_config_dict(dict(config, seed=seed)).scenario)
        failed += sum(record.kind is EventKind.LOCALIZATION_FAILED
                      for record in result.log)
        for report in result.localization_reports:
            drive = min(drives, key=lambda x: abs(report.position_m - x))
            nearest[drive] += 1
            errors.append(abs(report.position_m - drive))
    return {"runs": len(TWO_DRIVE_SEEDS), "located": len(errors),
            "failed": failed,
            "nearest": [{"position_m": x, "located": nearest[x]}
                        for x in drives],
            "max_error_m": max(errors, default=None)}


def scorecard() -> dict:
    strong = dict(README_DRIVE, phase_gain_rad_per_v=STRONG_GAIN_RAD_PER_V)
    return {"sweep_path": [sweep_row(x) for x in POSITIONS_M],
            "strong_sweep_path": [sweep_row(x, strong) for x in POSITIONS_M],
            "trace_path": [located_row(DEFAULT_IMPACT, x, TRACE_SEEDS)
                           for x in POSITIONS_M],
            "quasi_static": wm_row(),
            "false_alarms": false_alarm_row(),
            "breaches": breach_rows(),
            "detectable": [row for pulses in DETECTION_PULSES
                           for row in detectable_rows(pulses)],
            "impact": impact_row(),
            "two_drives": two_drive_row()}


def table(card: dict) -> str:
    def metres(value, sign="+"):
        return "-" if value is None else f"{value:{sign}.4f}"

    lines = []
    strong_peak = STRONG_GAIN_RAD_PER_V * README_DRIVE["drive_amplitude_v"]
    for path, title, seeds in (
            ("sweep_path", "README drive from 0 s", SEEDS),
            ("strong_sweep_path", f"README drive at {strong_peak:g} rad from "
             f"0 s", SEEDS),
            ("trace_path", "default impact at 1 s", TRACE_SEEDS)):
        bounded = path != "trace_path"
        lines += [f"{path.replace('_', ' ')}: {title}, 30 km loop, seeds "
                  f"{seeds.start}-{seeds.stop - 1}",
                  f"{'position_m':>10}  {'located':>7}  {'rms_error_m':>11}  "
                  f"{'mean_error_m':>12}  {'mean_se_m':>9}  "
                  f"{'index_shift_m':>13}  {'length_shift_m':>14}  "
                  + (f"{'bound_mm':>8}  {'efficiency':>10}  " if bounded
                     else "") + "fails"]
        for row in card[path]:
            fails = ", ".join(f"{kind} {count}"
                              for kind, count in row["fails"].items()) or "-"
            located = f"{row['located']}/{row['runs']}"
            bound = (f"{1e3 * row['bound_m']:>8.3f}  "
                     f"{metres(row['efficiency'], ''):>10}  "
                     if bounded else "")
            lines.append(f"{row['position_m']:>10.0f}  {located:>7}  "
                         f"{metres(row['rms_error_m'], ''):>11}  "
                         f"{metres(row['mean_error_m']):>12}  "
                         f"{metres(row['mean_se_m'], ''):>9}  "
                         f"{metres(row['index_shift_m']):>13}  "
                         f"{metres(row['length_shift_m']):>14}  "
                         f"{bound}{fails}")
    row = card["quasi_static"]
    lines += [f"quasi-static: one WM reading of {row['mass_kg']} kg, default "
              f"config, seeds {WM_SEEDS.start}-{WM_SEEDS.stop - 1}",
              f"{'runs':>4}  {'sd_error_g':>10}  {'mean_error_g':>12}  "
              f"{'mean_se_g':>9}",
              f"{row['runs']:>4}  {1e3 * row['sd_error_kg']:>10.3f}  "
              f"{1e3 * row['mean_error_kg']:>+12.3f}  "
              f"{1e3 * row['mean_se_kg']:>9.3f}"]
    row = card["false_alarms"]
    lines += [f"false alarms: quiet default 20 s runs, seeds "
              f"{QUIET_SEEDS.start}-{QUIET_SEEDS.stop - 1}",
              f"{'windows':>7}  {'breaches':>8}  {'per_window':>10}  "
              f"{'se':>6}  {'oracle':>6}",
              f"{row['windows']:>7}  {row['breaches']:>8}  "
              f"{row['per_window']:>10.4f}  {row['per_window_se']:>6.4f}  "
              f"{row['oracle_per_window']:>6.4f}"]
    lines += [f"breaches: README drive at 5 km from 3 s, key window from "
              f"{BREACH_WINDOW_S:g} s, exact",
              f"{'frequency_hz':>12}  {'per_window':>10}"]
    lines += [f"{row['frequency_hz']:>12.0f}  {row['per_window']:>10.4f}"
              for row in card["breaches"]]
    lines += [f"detectable: smallest peak phase of that drive breaching its "
              f"window with probability {DETECTION:g}",
              f"{'pulses':>9}  {'frequency_hz':>12}  "
              f"{'net_amplitude_rad':>17}  {'peak_phase_rad':>14}  "
              f"{'per_window':>10}"]
    lines += [f"{row['pulses_per_window']:>9.0e}  "
              f"{row['frequency_hz']:>12.0f}  "
              f"{row['net_amplitude_rad']:>17.4f}  "
              f"{row['peak_phase_rad']:>14.4f}  {row['per_window']:>10.4f}"
              for row in card["detectable"]]
    row = card["impact"]
    lines += [f"impact: default impact at {row['position_m'] / 1e3:g} km at "
              f"{row['start_s']:g} s, key window from {IMPACT_WINDOW_S:g} s, "
              f"exact",
              f"{'peak_phase_rad':>14}  {'per_window':>10}  "
              f"{'sampled':>8}  {'quiet':>8}",
              f"{row['peak_phase_rad']:>14.4f}  {row['per_window']:>10.6f}  "
              f"{row['sampled_per_window']:>8.6f}  "
              f"{card['false_alarms']['oracle_per_window']:>8.6f}"]
    row = card["two_drives"]
    drives = row["nearest"]
    lines += [f"two drives: integrated.two_pzt, seeds "
              f"{TWO_DRIVE_SEEDS.start}-{TWO_DRIVE_SEEDS.stop - 1}, "
              f"localizations by nearest drive",
              f"{'runs':>4}  {'located':>7}  {'failed':>6}  "
              + "".join(f"{'at_%.0f_m' % d['position_m']:>9}  "
                        for d in drives) + f"{'max_error_m':>11}",
              f"{row['runs']:>4}  {row['located']:>7}  {row['failed']:>6}  "
              + "".join(f"{d['located']:>9}  " for d in drives)
              + f"{metres(row['max_error_m'], ''):>11}"]
    return "\n".join(lines)


def main() -> None:
    card = scorecard()
    print(table(card))
    Path(OUTPUT).write_text(json.dumps(card, indent=1) + "\n")


if __name__ == "__main__":
    main()
