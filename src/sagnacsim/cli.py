"""Command-line surface.

Every subcommand accepts ``--config``, ``--seed`` and ``--out-dir``; runs
are deterministic for a given config and seed, and reports carry the fully
resolved config so any run can be replayed from its own output.  Exit codes:
0 success, 2 configuration problem, 3 analysis failure.  Failures also emit
a machine-readable JSON record on the diagnostic stream.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from . import __version__, controller, perception, qkd, wm
from .config import (ScenarioConfig, key_type, parse_config,
                     parse_config_dict)
from .disturbance import pressure_delay
from .errors import ConfigError, SagnacSimError
from .fileio import (read_trace, write_columns, write_event_log,
                     write_report, write_trace)

OUT_DIR_ENV = "SAGNACSIM_OUT_DIR"

#: The standing weights (kg) ``wm`` measures without ``--masses``.
_STAIRCASE_KG = (0.1, 0.2, 0.3, 0.4, 0.5)


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = parse_config_dict({})
    if args.seed is not None:
        cfg = parse_config_dict({**cfg.resolved, "seed": args.seed})
    return cfg


def _outputs(args, cfg: ScenarioConfig) -> dict[str, Path]:
    """The path in the output directory of each file the subcommand
    declares, checked before any work: the directory must be writable and
    no path may be a directory.  A file there is replaced, so it is fine.
    Raises :class:`ConfigError` naming each path that fails."""
    directory = Path(args.out_dir or cfg.resolved["out_dir"]
                     or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        if not directory.is_dir():
            directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"{directory}: {exc}"]) from exc
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError([f"{directory}: the output directory is not "
                           f"writable"])
    paths = {name: directory / name for name in args.outputs}
    problems = [f"{path}: is a directory, not an output file"
                for path in paths.values()
                if path.is_dir() and not path.is_symlink()]
    if problems:
        raise ConfigError(problems)
    return paths


def _base_report(cfg: ScenarioConfig) -> dict:
    return {
        "config": cfg.resolved,
        "seed": cfg.scenario.seed,
        "versions": {
            "sagnacsim": __version__,
            "numpy": np.__version__,
        },
    }


#: Field names of a key window record, all scalars, in field order.
_RECORD_FIELDS = tuple(f.name for f in fields(qkd.SiftedKeyRecord))


def _located_dict(located: perception.LocalizationReport) -> dict:
    """A localization report as a dict, its nulls a list of dicts, without
    an ``asdict`` deep copy."""
    return {**vars(located),
            "nulls": [dict(vars(null)) for null in located.nulls]}


def _log_dicts(log) -> list[dict]:
    return [{
        "time_s": rec.time_s,
        "mode": rec.mode.value,
        "event": rec.kind.value,
        "payload": rec.payload,
    } for rec in log]


def _run_session(cfg: ScenarioConfig) -> list[qkd.SiftedKeyRecord]:
    script = cfg.scenario
    return qkd.run_session(script.duration_s, script.seed, script.source,
                           script.channel, script.detector, script.packet,
                           script.qkd)


def _cmd_qkd(args, cfg: ScenarioConfig, out: dict, report: dict) -> str:
    records = _run_session(cfg)
    summary = qkd.session_summary(records)
    write_columns(out["qber_windows.csv"], _RECORD_FIELDS,
                  map(attrgetter(*_RECORD_FIELDS), records))
    report["qkd_windows"] = list(map(vars, records))
    report["summary"] = summary
    return (f"windows={summary['windows']} "
            f"rate={summary['mean_raw_rate_bps']:.1f} bps "
            f"qber={summary['qber_pooled']}")


def _cmd_perceive(args, cfg: ScenarioConfig, out: dict, report: dict) -> str:
    script = cfg.scenario
    if not script.events:
        raise ConfigError(["perceive requires at least one disturbance "
                           "in the config"])
    event, settings = script.events[0], script.perception
    if event.is_dynamic:
        data = perception.acquire(event, script.channel, settings,
                                  script.seed)
        if isinstance(data, perception.FrequencySweep):
            write_columns(out["amplitude_vs_frequency.csv"],
                          ["frequency_hz", "amplitude_w"],
                          zip(data.frequencies_hz, data.amplitudes))
        else:
            write_trace(out["trace.txt"], data)
            report["trace_file"] = "trace.txt"
        located = perception.locate(data, script.channel, settings)
        report["localization"] = (None if located is None
                                  else _located_dict(located))
        if located is None:
            report["diagnostic"] = ("no null frequency reached the depth "
                                    "threshold")
    else:
        trace, graded = perception.sense((event,), script.channel,
                                         settings, script.seed, 0.0)
        write_trace(out["trace.txt"], trace)
        report["significance"] = graded
        report["localization"] = None
        report["diagnostic"] = ("quasi-static disturbance leaves no "
                                "dynamic signature")
    loc = report["localization"]
    return "position_m=" + (repr(float(loc["position_m"])) if loc else "none")


def _cmd_localize(args, cfg: ScenarioConfig, out: dict, report: dict) -> str:
    located = perception.locate(read_trace(args.trace), cfg.scenario.channel,
                                cfg.scenario.perception)
    if located is None:
        raise SagnacSimError(
            "no null frequency found in the supplied trace")
    report["trace_file"] = str(args.trace)
    report["localization"] = _located_dict(located)
    return (f"position_m={float(located.position_m)!r} "
            f"resolution_m={float(located.resolution_m)!r}")


def _cmd_wm(args, cfg: ScenarioConfig, out: dict, report: dict) -> str:
    script = cfg.scenario
    if args.masses:
        try:
            masses = [float(tok) for tok in args.masses.split(",") if tok]
        except ValueError as exc:
            raise ConfigError([f"--masses: {exc}"]) from exc
        if not masses or not all(0 < m < math.inf for m in masses):
            raise ConfigError(["--masses: needs finite positive "
                               "comma-separated values"])
        for mass in masses:
            try:
                load = replace(script.wm.pressure, mass_kg=mass)
            except ConfigError as exc:
                raise ConfigError([f"--masses: {p}" for p in exc.problems]) \
                    from None
            if problem := wm.branch_top_problem(pressure_delay(load),
                                                script.wm, script.packet):
                raise ConfigError([f"--masses: {mass} puts the delay shift "
                                   f"at {problem}"])
    else:
        masses = _STAIRCASE_KG
    readings = wm.pressure_staircase(masses, script.wm, script.channel,
                                     script.packet, seed=script.seed)
    write_columns(out["icr_vs_mass.csv"],
                  ["mass_kg", "i_d_w", "icr", "delta_tau_s",
                   "inferred_mass_kg"],
                  [(m, r.disturbed_intensity_w, r.contrast_ratio,
                    r.inferred_delay_s, r.inferred_mass_kg)
                   for m, r in zip(masses, readings)])
    report["wm_readings"] = [
        {"mass_kg": m, **vars(r)} for m, r in zip(masses, readings)]
    return " ".join(f"{r.inferred_delay_s:.3e}" for r in readings)


def _cmd_integrated(args, cfg: ScenarioConfig, out: dict,
                    report: dict) -> str:
    result = controller.run_scenario(cfg.scenario)
    entries = _log_dicts(result.log)
    write_event_log(out["event_log.jsonl"], entries)
    write_columns(out["qber_vs_time.csv"],
                  ["window_start_s", "qber_estimate", "raw_rate_bps"],
                  map(attrgetter("window_start_s", "qber_estimate",
                                 "raw_rate_bps"), result.key_records))
    if result.wm_readings:
        write_columns(out["wm_readings.csv"],
                      ["time_s", "icr", "delta_tau_s", "inferred_mass_kg"],
                      map(itemgetter("time_s", "contrast_ratio",
                                     "inferred_delay_s", "inferred_mass_kg"),
                          result.wm_readings))
    report["qkd_windows"] = list(map(vars, result.key_records))
    report["summary"] = qkd.session_summary(result.key_records)
    report["wm_readings"] = result.wm_readings
    report["localization_reports"] = [
        _located_dict(r) for r in result.localization_reports]
    report["event_log"] = entries
    report["final_mode"] = result.final_mode.value
    return (f"final_mode={result.final_mode.value} "
            f"reports={len(result.localization_reports)}")


def _cmd_sweep(args, cfg: ScenarioConfig, out: dict, report: dict) -> str:
    kind = key_type(args.key)
    try:
        values = [kind(tok) for tok in args.values.split(",") if tok]
    except ValueError as exc:
        raise ConfigError([f"--values: {args.key} takes {kind.__name__} "
                           f"values: {exc}"]) from exc
    if not values:
        raise ConfigError(["--values: needs at least one value"])
    section, _, key = args.key.rpartition(".")
    swept = ("qber_pooled", "mean_raw_rate_bps", "sifted_bits")
    points = []
    resolved = cfg.resolved
    for value in values:
        mapping = ({**resolved, section: {**resolved[section], key: value}}
                   if section else {**resolved, key: value})
        summary = qkd.session_summary(
            _run_session(parse_config_dict(mapping)))
        points.append({"value": value, **{k: summary[k] for k in swept}})
    write_columns(out["sweep.csv"], [args.key, *swept],
                  map(itemgetter("value", *swept), points))
    report["sweep"] = {"key": args.key, "points": points}
    return f"swept {args.key} over {len(values)} values"


class _Parser(argparse.ArgumentParser):
    """A parser, its subcommands' too, that refuses a command line with a
    :class:`ConfigError`: exit 2 and a JSON diagnostic, no usage text."""

    def error(self, message):
        raise ConfigError([message])


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The one parser of the process and its subcommands' parsers by name,
    built on first use: every ``parse_args`` call returns a fresh
    namespace, so calls share no arguments."""
    parser = _Parser(
        prog="sagnacsim",
        description="Simulate and analyze the loop interferometer: key "
                    "distribution, disturbance perception, localization "
                    "and quasi-static sensing.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, fn, summary, *outputs):
        """A subcommand running ``fn``, which writes the files ``outputs``
        and ``report.json`` of the output directory."""
        p = commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn, outputs=(*outputs, "report.json"))
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default: config, "
                            f"then ${OUT_DIR_ENV}, then .)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
        return p

    command("qkd", _cmd_qkd, "run a key session and emit windows",
            "qber_windows.csv")
    command("perceive", _cmd_perceive,
            "synthesize and analyze a disturbance trace",
            "amplitude_vs_frequency.csv", "trace.txt")
    p = command("localize", _cmd_localize, "analyze an existing trace file")
    p.add_argument("--trace", required=True, help="trace file to analyze")
    p = command("wm", _cmd_wm, "run a pressure staircase experiment",
                "icr_vs_mass.csv")
    p.add_argument("--masses", default=None,
                   help="comma-separated masses in kg (default "
                        f"{','.join(map(str, _STAIRCASE_KG))})")
    command("integrated", _cmd_integrated, "run the full workflow scenario",
            "event_log.jsonl", "qber_vs_time.csv", "wm_readings.csv")
    p = command("sweep", _cmd_sweep, "sweep one named config key",
                "sweep.csv")
    p.add_argument("--key", required=True,
                   help="dotted config key, e.g. channel.loss_db")
    p.add_argument("--values", required=True,
                   help="comma-separated values to sweep")
    return parser, commands


def _parse(argv) -> argparse.Namespace:
    """The arguments of the command line ``argv`` (``sys.argv[1:]`` when
    None): a line whose first token names a subcommand is parsed by that
    subcommand's parser alone, to the namespace the top-level parser gives
    less ``command``; any other by the top-level parser, which handles
    ``--help``, ``--version`` and an unknown first token."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:])
    return parser.parse_args(argv)


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["problems"] = exc.problems
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand: once its output paths pass :func:`_outputs`, it
    fills in the base report of the resolved config, which is then written
    as ``report.json``, and returns the summary line."""
    try:
        args = _parse(argv)
        cfg = _load_config(args)
        out = _outputs(args, cfg)
        report = _base_report(cfg)
        line = args.fn(args, cfg, out, report)
        write_report(out["report.json"], report)
        if not args.quiet:
            print(line)
        return 0
    except ConfigError as exc:
        _emit_error("validation", exc)
        return 2
    except SagnacSimError as exc:
        _emit_error("analysis", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
