"""Trace, report and columnar file formats.

Numeric values are written with shortest round-trip formatting (repr), so
attosecond-scale quantities survive write-then-read exactly.  A trace is a
header line, then one sample per line, sample k taken at k / sample_rate_hz.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, SagnacSimError
from .perception import InterferenceTrace


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return "nan"
    return str(value)


def _replace_file(path: str | Path, text: str) -> Path:
    """Write ``text`` as a new file at ``path``, after unlinking any file
    there: on ext4 that costs far less than truncating a file in place.
    So a symlink or hard link at ``path`` is replaced, and the file it
    shared is left as it was.

    Raises :class:`ConfigError` naming the path when it cannot be written,
    for example when it is a directory.
    """
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    return path


def write_trace(path: str | Path, trace: InterferenceTrace) -> Path:
    """Write a trace as its metadata header line, then one sample a line."""
    header = (f"# sample_rate_hz={_fmt(trace.sample_rate_hz)} "
              f"i0_w={_fmt(trace.input_power_w)} "
              f"noise_sigma={_fmt(trace.noise_sigma)}")
    return _replace_file(
        path, "\n".join([header, *map(repr, trace.samples.tolist())]) + "\n")


def read_trace(path: str | Path) -> InterferenceTrace:
    """Read a trace written by :func:`write_trace`: the sample is the last
    field of each non-blank body line, so files with a leading time column
    read the same.

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
        try:
            samples = _sample_column(body)
        except ValueError:
            raise ValueError(_first_bad_line(body)) from None
        if samples.size == 0:
            raise ValueError("trace has no samples")
        return InterferenceTrace(
            sample_rate_hz=meta["sample_rate_hz"],
            samples=samples,
            input_power_w=meta["i0_w"],
            noise_sigma=meta.get("noise_sigma", 0.0),
        )
    except (OSError, ValueError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def _sample_column(lines: Sequence[str]) -> np.ndarray:
    """The last whitespace-separated field of each line of ``lines`` as
    floats, in one ``np.loadtxt`` call.

    Blank lines are skipped; any other line whose last field is not a float
    literal raises ``ValueError``, with ``comments=None`` also one starting
    with '#'.  loadtxt only warns on input without data, so blank lines
    alone give an empty array here.
    """
    if not any(map(str.strip, lines)):
        return np.empty(0)
    return np.loadtxt(lines, usecols=-1, ndmin=1, comments=None)


def _first_bad_line(body: Sequence[str]) -> str:
    """Name the first line of a trace ``body`` that :func:`_sample_column`
    rejects, counting the header as file line 1.

    Lines are read independently, so a bisection of the body finds it,
    parsing about as many lines as the body holds.
    """
    lo, hi = 0, len(body)  # body[:lo] reads; the first bad line is before hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _sample_column(body[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    value = body[lo].split()[-1]
    return f"line {lo + 2}: value {value!r} cannot be read as a float"


def write_columns(path: str | Path, header: Sequence[str],
                  columns: Sequence[Sequence]) -> Path:
    """Write a plot-ready CSV: one header line, repr-formatted values."""
    n = len(columns[0]) if columns else 0
    for col in columns:
        if len(col) != n:
            raise ValueError("all columns must have the same length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    return _replace_file(path, "\n".join(lines) + "\n")


def _non_finite_keys(value, where: str):
    """Key paths, from ``where`` on, of the non-finite floats in ``value``,
    a tree of dicts and lists."""
    if isinstance(value, float) and not math.isfinite(value):
        yield where
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_keys(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite_keys(item, f"{where}[{i}]")


def _json_text(path: str | Path, value, where: str = "$", **options) -> str:
    """``value`` as standard JSON text for the file at ``path``.

    A non-finite float, which only the non-standard tokens NaN and Infinity
    could write, raises :class:`SagnacSimError` naming the file and the key
    path of the value, ``where`` for ``value`` itself.
    """
    try:
        return json.dumps(value, allow_nan=False, **options)
    except ValueError:
        key = next(_non_finite_keys(value, where), None)
        if key is None:
            raise
        raise SagnacSimError(f"{path}: {key} is not a finite number, which "
                             f"JSON cannot hold") from None


def write_report(path: str | Path, report: dict) -> Path:
    """Write the single structured report document for a run."""
    return _replace_file(path, _json_text(path, report, indent=2,
                                          sort_keys=True) + "\n")


def write_event_log(path: str | Path, entries: Sequence[dict]) -> Path:
    """Write controller log entries as line-delimited JSON records."""
    lines = [_json_text(path, entry, f"$[{i}]", sort_keys=True)
             for i, entry in enumerate(entries)]
    return _replace_file(path, "\n".join(lines) + ("\n" if lines else ""))
