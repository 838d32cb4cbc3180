"""Trace, report and columnar file formats.

Numeric values are written with shortest round-trip formatting (repr), so
attosecond-scale quantities survive write-then-read exactly.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .perception import InterferenceTrace


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return "nan"
    return str(value)


def write_trace(path: str | Path, trace: InterferenceTrace) -> Path:
    """Write a trace as two-column text with a metadata header line."""
    path = Path(path)
    header = (f"# sample_rate_hz={_fmt(trace.sample_rate_hz)} "
              f"i0_w={_fmt(trace.input_power_w)} "
              f"noise_sigma={_fmt(trace.noise_sigma)}")
    body = map("{!r} {!r}".format, trace.times().tolist(),
               trace.samples.tolist())
    path.write_text("\n".join([header, *body]) + "\n")
    return path


def read_trace(path: str | Path) -> InterferenceTrace:
    """Read a trace written by :func:`write_trace`.

    Raises :class:`ConfigError` naming the file when it is missing,
    unreadable or malformed.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing trace header line")
        meta = {}
        for token in lines[0].lstrip("#").split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"malformed header token {token!r}")
            meta[key] = float(value)
        for required in ("sample_rate_hz", "i0_w"):
            if required not in meta:
                raise ValueError(f"header missing {required}")
        body = lines[1:]
        # loadtxt only warns on a body without data.  With comments=None a
        # body line starting with '#' is a sample line like any other, so
        # one without a number in its second column is rejected, not
        # skipped.
        if not any(map(str.strip, body)):
            raise ValueError("trace has no samples")
        return InterferenceTrace(
            sample_rate_hz=meta["sample_rate_hz"],
            samples=np.loadtxt(body, usecols=1, ndmin=1, comments=None),
            input_power_w=meta["i0_w"],
            noise_sigma=meta.get("noise_sigma", 0.0),
        )
    except (OSError, ValueError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def write_columns(path: str | Path, header: Sequence[str],
                  columns: Sequence[Sequence]) -> Path:
    """Write a plot-ready CSV: one header line, repr-formatted values."""
    path = Path(path)
    n = len(columns[0]) if columns else 0
    for col in columns:
        if len(col) != n:
            raise ValueError("all columns must have the same length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_report(path: str | Path, report: dict) -> Path:
    """Write the single structured report document for a run."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def write_event_log(path: str | Path, entries: Sequence[dict]) -> Path:
    """Write controller log entries as line-delimited JSON records."""
    path = Path(path)
    lines = [json.dumps(entry, sort_keys=True) for entry in entries]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path
