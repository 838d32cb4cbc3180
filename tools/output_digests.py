"""Print a SHA-256 digest of every output file of a fixed set of CLI runs.

Usage: ``python3 tools/output_digests.py`` (no options).  Every subcommand
runs in-process on the reference configs below, each in its own directory
under a fresh temporary directory, and the script prints one
``<sha256>  <run>/<file>`` line per output file.  Running it on two
checkouts and diffing the output shows whether a change altered any output
byte.  :func:`parsed_outputs` reads the same files back as values, which
``tools/write_reference_outputs.py`` pins in ``tests/data``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sagnacsim.cli import main  # noqa: E402
from sagnacsim.fileio import read_trace  # noqa: E402

# The README PZT scenario, the same drive at 4000 m from 3.5 s with a second
# one at 9000 m from 0 s, the README drive at 32768 Hz (twice a period at
# 2**16 samples a second), the README drive at a gain of 50 rad/V (a 60 rad
# peak, whose sweep's lowest null lies below the in-loop floor, so perceive
# exits 3), the impact of the CLI tests, and a standing weight polled every 1.5 s with the
# default WM noise.
PZT = {"kind": "pzt", "position_m": 5000.0, "start_s": 3.0,
       "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
       "phase_gain_rad_per_v": 0.5}
IMPACT = {"kind": "impact", "position_m": 5000.0, "start_s": 1.0,
          "mass_kg": 0.1, "drop_height_m": 0.1, "width_s": 1e-5,
          "impact_gain": 2.0}
PRESSURE = {"kind": "pressure", "position_m": 9000.0, "start_s": 1.0,
            "mass_kg": 0.2}

CONFIGS = {
    "defaults": {},
    "pzt": {"duration_s": 12.0, "seed": 7, "disturbances": [PZT]},
    "two_pzt": {"duration_s": 12.0, "seed": 7, "disturbances": [
        dict(PZT, position_m=4000.0, start_s=3.5),
        dict(PZT, position_m=9000.0, start_s=0.0)]},
    "fast_pzt": {"duration_s": 8.0, "seed": 3,
                 "disturbances": [dict(PZT, frequency_hz=32768.0)]},
    "strong_pzt": {"duration_s": 12.0, "seed": 7, "disturbances": [
        dict(PZT, phase_gain_rad_per_v=50.0)]},
    "impact": {"duration_s": 6.0, "seed": 5,
               "perception": {"noise_sigma": 0.0008,
                              "sense_duration_s": 0.0256},
               "disturbances": [IMPACT]},
    "pressure": {"duration_s": 6.0, "seed": 3,
                 "wm": {"poll_interval_s": 1.5},
                 "disturbances": [PRESSURE]},
}

# (run directory, subcommand, config name, extra arguments)
RUNS = (
    ("qkd.defaults", "qkd", "defaults", []),
    ("integrated.defaults", "integrated", "defaults", []),
    ("integrated.pzt", "integrated", "pzt", []),
    ("integrated.two_pzt", "integrated", "two_pzt", []),
    ("integrated.fast_pzt", "integrated", "fast_pzt", []),
    # Seed 4 breaches on the quiet window [0, 1) (a statistical false alarm
    # of the short key windows) and senses from 2.0 s, after the impact has
    # rung out, so the run shows a false alarm graded minor.
    ("integrated.impact", "integrated", "impact", ["--seed", "4"]),
    ("integrated.pressure", "integrated", "pressure", []),
    ("perceive.pzt", "perceive", "pzt", []),
    ("perceive.strong_pzt", "perceive", "strong_pzt", []),
    ("perceive.impact", "perceive", "impact", []),
    ("perceive.pressure", "perceive", "pressure", []),
    ("localize.impact", "localize", "impact",
     ["--trace", "perceive.impact/trace.txt"]),
    ("wm.defaults", "wm", "defaults", []),
    ("wm.masses", "wm", "defaults", ["--masses", "0.05,0.15,0.25"]),
    ("sweep.loss_db", "sweep", "defaults",
     ["--key", "channel.loss_db", "--values", "10,16.5,25"]),
)


def digest_runs(root: Path) -> list[str]:
    """Run every reference command under ``root``; return the report lines.

    Paths are relative to ``root`` so that reports echoing a path (the
    ``localize`` trace file) do not depend on where the runs happen.
    """
    for name, config in CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(config))
    lines = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for run, command, config, extra in RUNS:
            main([command, "--config", f"{config}.json", "--out-dir", run,
                  "--quiet", *extra])
            for path in sorted(Path(run).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {run}/{path.name}")
    finally:
        os.chdir(cwd)
    return lines


def _cell(text: str):
    """A CSV cell as the value it was written from: int, finite float or,
    failing both (``nan`` for an absent value, a name), the text itself."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        if math.isfinite(value):
            return value
    return text


def _trace_summary(path: Path) -> dict:
    """A trace file as its header values, its sample count and the SHA-256
    of its samples' float64 bytes, which pins every sample bit whatever
    text they were written as."""
    trace = read_trace(path)
    return {"sample_rate_hz": trace.sample_rate_hz,
            "i0_w": trace.input_power_w,
            "noise_sigma": trace.noise_sigma,
            "samples": trace.samples.size,
            "samples_sha256":
                hashlib.sha256(trace.samples.tobytes()).hexdigest()}


def parsed_outputs(root: Path) -> dict:
    """Every output of the runs under ``root`` as ``{run: {file: value}}``:
    a report without its ``versions`` key, an event log as its list of
    records, a CSV as its list of rows, a trace as :func:`_trace_summary`."""
    outputs = {}
    for run, *_ in RUNS:
        files = outputs[run] = {}
        for path in sorted((root / run).iterdir()):
            if path.name == "trace.txt":
                files[path.name] = _trace_summary(path)
                continue
            text = path.read_text()
            if path.suffix == ".json":
                files[path.name] = json.loads(text)
                files[path.name].pop("versions")
            elif path.suffix == ".jsonl":
                files[path.name] = [json.loads(line)
                                    for line in text.splitlines()]
            elif path.suffix == ".csv":
                files[path.name] = [[_cell(c) for c in line.split(",")]
                                    for line in text.splitlines()]
    return outputs


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest_runs(Path(tmp))))
