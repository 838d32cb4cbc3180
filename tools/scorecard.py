"""Measure localization against ground truth and write the table as JSON.

Usage: ``python3 tools/scorecard.py`` (no options).  It prints a fixed
table and writes the same rows to ``scorecard.json`` in the working
directory.  The runs are fixed, so two runs of the same code give the same
bytes.

Rows so far, the sweep path: the README drive (1.2 V at 0.5 rad/V, 3 kHz)
switched on at 0 s at each position of ``POSITIONS_M`` on the default
30 km loop, acquired with each seed of ``SEEDS`` through
``perception.acquire`` and ``perception.locate`` at the default perception
settings.  The runs of a position share one ``responses`` memo, so its
noise-free sweep is computed once.  Each row gives the number located, the
RMS and the mean of ``position - truth`` over those, the mean's standard
error ``sd / sqrt(located)`` (sample SD, from 2 located on), and the kinds
of the others: ``none`` for no null found, else the exception's class name.

The trace-path rows: the default impact (0.1 kg dropped from 0.1 m, a
10 us pulse at gain 10) at 1 s at each position of ``POSITIONS_M``,
acquired with each seed of ``TRACE_SEEDS`` through the same two calls,
with the same columns.

The quasi-static row: one weak-measurement reading of a ``WM_MASS_KG`` load
at the default config, through ``wm.pressure_staircase``, with each seed of
``WM_SEEDS``.  It gives the number of runs and the sample SD, the mean and
the mean's standard error ``sd / sqrt(runs)`` of ``inferred - true`` mass.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sagnacsim import perception, wm  # noqa: E402
from sagnacsim.config import parse_config_dict  # noqa: E402
from sagnacsim.errors import SagnacSimError  # noqa: E402

OUTPUT = "scorecard.json"

README_DRIVE = {"kind": "pzt", "start_s": 0.0, "drive_amplitude_v": 1.2,
                "frequency_hz": 3000.0, "phase_gain_rad_per_v": 0.5}
POSITIONS_M = (1000.0, 5000.0, 9000.0, 13000.0, 14000.0, 14500.0, 14900.0)
SEEDS = range(1, 129)
DEFAULT_IMPACT = {"kind": "impact", "start_s": 1.0}
TRACE_SEEDS = range(1, 65)
WM_MASS_KG = 0.1
WM_SEEDS = range(1, 401)


def located_row(entry: dict, position_m: float, seeds: range) -> dict:
    """Localization of the disturbance ``entry`` at ``position_m`` over
    ``seeds``."""
    script = parse_config_dict(
        {"disturbances": [dict(entry, position_m=position_m)]}).scenario
    [event] = script.events
    errors, fails, responses = [], Counter(), {}
    for seed in seeds:
        try:
            data = perception.acquire(event, script.channel,
                                      script.perception, seed,
                                      responses=responses)
            located = perception.locate(data, script.channel,
                                        script.perception)
        except SagnacSimError as exc:
            fails[type(exc).__name__] += 1
            continue
        if located is None:
            fails["none"] += 1
        else:
            errors.append(located.position_m - position_m)
    return {
        "position_m": position_m,
        "runs": len(seeds),
        "located": len(errors),
        "rms_error_m": (math.sqrt(math.fsum(e * e for e in errors)
                                  / len(errors)) if errors else None),
        "mean_error_m": math.fsum(errors) / len(errors) if errors else None,
        "mean_se_m": (statistics.stdev(errors) / math.sqrt(len(errors))
                      if len(errors) > 1 else None),
        "fails": dict(sorted(fails.items())),
    }


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


def scorecard() -> dict:
    return {"sweep_path": [located_row(README_DRIVE, x, SEEDS)
                           for x in POSITIONS_M],
            "trace_path": [located_row(DEFAULT_IMPACT, x, TRACE_SEEDS)
                           for x in POSITIONS_M],
            "quasi_static": wm_row()}


def table(card: dict) -> str:
    def metres(value, sign="+"):
        return "-" if value is None else f"{value:{sign}.4f}"

    lines = []
    for path, title, seeds in (
            ("sweep_path", "README drive from 0 s", SEEDS),
            ("trace_path", "default impact at 1 s", TRACE_SEEDS)):
        lines += [f"{path.replace('_', ' ')}: {title}, 30 km loop, seeds "
                  f"{seeds.start}-{seeds.stop - 1}",
                  f"{'position_m':>10}  {'located':>7}  {'rms_error_m':>11}  "
                  f"{'mean_error_m':>12}  {'mean_se_m':>9}  fails"]
        for row in card[path]:
            fails = ", ".join(f"{kind} {count}"
                              for kind, count in row["fails"].items()) or "-"
            located = f"{row['located']}/{row['runs']}"
            lines.append(f"{row['position_m']:>10.0f}  {located:>7}  "
                         f"{metres(row['rms_error_m'], ''):>11}  "
                         f"{metres(row['mean_error_m']):>12}  "
                         f"{metres(row['mean_se_m'], ''):>9}  {fails}")
    row = card["quasi_static"]
    lines += [f"quasi-static: one WM reading of {row['mass_kg']} kg, default "
              f"config, seeds {WM_SEEDS.start}-{WM_SEEDS.stop - 1}",
              f"{'runs':>4}  {'sd_error_g':>10}  {'mean_error_g':>12}  "
              f"{'mean_se_g':>9}",
              f"{row['runs']:>4}  {1e3 * row['sd_error_kg']:>10.3f}  "
              f"{1e3 * row['mean_error_kg']:>+12.3f}  "
              f"{1e3 * row['mean_se_kg']:>9.3f}"]
    return "\n".join(lines)


def main() -> None:
    card = scorecard()
    print(table(card))
    Path(OUTPUT).write_text(json.dumps(card, indent=1) + "\n")


if __name__ == "__main__":
    main()
