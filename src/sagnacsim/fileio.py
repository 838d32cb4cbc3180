"""Trace, report and columnar file formats.

Numeric values are written with shortest round-trip formatting (repr), so
attosecond-scale quantities survive write-then-read exactly.  A trace is a
header line, then one sample per line, sample k taken at k / sample_rate_hz.
Reports and event logs hold the bytes ``json.dumps`` writes (sorted keys,
the report indented by 2), through the stdlib's C encoder where it exists.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import re
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


#: The line breaks of ``str.splitlines`` that a text-mode file does not end
#: a line at: it ends one only at "\n", "\r" and "\r\n".
_SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"

#: The first line of a text, as ``str.splitlines`` ends it.
_FIRST_LINE = re.compile(f"[^\n\r{_SPLITLINES_ONLY}]*")


def read_trace(path: str | Path) -> InterferenceTrace:
    """Read a trace written by :func:`write_trace`: the sample is the last
    field of each non-blank body line, so files with a leading time column
    read the same.  Lines end at the breaks ``str.splitlines`` honours.

    The text is read to take the header line and to choose how
    :func:`_sample_column` parses the body.

    Raises :class:`ConfigError` naming the file when it is missing,
    unreadable or malformed.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        header = _FIRST_LINE.match(text).group()
        if not header.startswith("#"):
            raise ValueError("missing trace header line")
        meta = {}
        for token in header.lstrip("#").split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"malformed header token {token!r}")
            meta[key] = float(value)
        for required in ("sample_rate_hz", "i0_w"):
            if required not in meta:
                raise ValueError(f"header missing {required}")
        samples = _sample_column(path, text, len(header))
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


def _sample_column(path: Path, text: str, body_start: int) -> np.ndarray:
    """The samples of the trace file at ``path``, whose text is ``text``
    and whose body starts at ``body_start``.

    Where the file is a regular one, which reads the same again, and its
    text holds no line break but those a text-mode file ends a line at, one
    :func:`_last_fields` pass reads it again from ``path`` past its header
    line; otherwise, as for a pipe, it reads the ``str.splitlines`` body
    lines.  A body of blank lines gives an empty array without that pass,
    as loadtxt only warns on it.  A rejected body raises ``ValueError``
    naming its first bad line.
    """
    if not text[body_start:].strip():
        return np.empty(0)
    try:
        if path.is_file() and not any(map(text.__contains__,
                                          _SPLITLINES_ONLY)):
            return _last_fields(path, skiprows=1)
        return _last_fields(text.splitlines()[1:])
    except ValueError:
        raise ValueError(_first_bad_line(text.splitlines()[1:])) from None


def _last_fields(source, skiprows: int = 0) -> np.ndarray:
    """The last whitespace-separated field of each line of ``source``, a
    path or a list of lines, after its first ``skiprows`` lines, as floats
    in one ``np.loadtxt`` call.

    Blank lines are skipped; any other line whose last field is not a float
    literal raises ``ValueError``, with ``comments=None`` also one starting
    with '#'.
    """
    return np.loadtxt(source, skiprows=skiprows, usecols=-1, ndmin=1,
                      comments=None, encoding="utf-8")


def _first_bad_line(body: Sequence[str]) -> str:
    """Name the first of the trace ``body`` lines that :func:`_last_fields`
    rejects, counting the header as file line 1.

    Lines are read independently, so a bisection of the body finds it,
    parsing about as many lines as the body holds.
    """
    lo, hi = 0, len(body)  # body[:lo] reads; the first bad line is before hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            if any(map(str.strip, body[lo:mid])):
                _last_fields(body[lo:mid])
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


def _json_text(path: str | Path, encode, value) -> str:
    """``encode(value)``: ``value`` as standard JSON text for the file at
    ``path``.

    A non-finite float, which only the non-standard tokens NaN and Infinity
    could write, raises :class:`SagnacSimError` naming the file and the key
    path of the value, ``$`` for ``value`` itself.
    """
    try:
        return encode(value)
    except ValueError:
        key = next(_non_finite_keys(value, "$"), None)
        if key is None:
            raise
        raise SagnacSimError(f"{path}: {key} is not a finite number, which "
                             f"JSON cannot hold") from None


def _c_encoder(item_separator: str):
    """``json.dumps(value, sort_keys=True, allow_nan=False)`` with
    ``item_separator`` between items, as one call of the stdlib's C
    encoder; ``None`` where the C encoder is missing.  Values are trees, so
    no circular check is made."""
    make = json.encoder.c_make_encoder
    if make is None:
        return None
    encode = make(None, json.JSONEncoder().default,
                  json.encoder.encode_basestring_ascii, None, ": ",
                  item_separator, True, False, False)
    return lambda value: "".join(encode(value, 0))


@functools.lru_cache(maxsize=64)
def _flat_encoder(depth: int):
    """The C encoder of a container whose items sit ``depth`` indents in."""
    return _c_encoder(",\n" + "  " * depth)


_CONTAINERS = (dict, list, tuple)


def _indented(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` of
    a dict, list or tuple ``depth`` indents in.

    The C encoder writes a container of scalars in one call.  A container
    that holds containers it writes with ``null`` in their place, and
    Python puts them in, written one level deeper: JSON strings hold no raw
    line break, so the separators' line breaks find the items.
    """
    encode = _flat_encoder(depth + 1)
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    if not any(map(isinstance, items, itertools.repeat(_CONTAINERS))):
        text = encode(value)
        if not value:
            return text
        body = text[1:-1]
    else:
        if is_dict:
            text = encode({key: None if isinstance(item, _CONTAINERS)
                           else item for key, item in value.items()})
            items = [value[key] for key in sorted(value)]
        else:
            text = encode([None if isinstance(item, _CONTAINERS) else item
                           for item in value])
        separator = ",\n" + "  " * (depth + 1)
        parts = text[1:-1].split(separator)
        for i, item in enumerate(items):
            if isinstance(item, _CONTAINERS):
                parts[i] = parts[i][:-len("null")] + _indented(item,
                                                               depth + 1)
        body = separator.join(parts)
    return f"{text[0]}\n{'  ' * (depth + 1)}{body}\n{'  ' * depth}{text[-1]}"


def write_report(path: str | Path, report: dict) -> Path:
    """Write the single structured report document for a run:
    ``json.dumps(report, indent=2, sort_keys=True)`` and a line break."""
    encode = (_indented if json.encoder.c_make_encoder is not None else
              functools.partial(json.dumps, indent=2, sort_keys=True,
                                allow_nan=False))
    return _replace_file(path, _json_text(path, encode, report) + "\n")


def write_event_log(path: str | Path, entries: Sequence[dict]) -> Path:
    """Write controller log entries as line-delimited JSON records, each
    ``json.dumps(entry, sort_keys=True)``."""
    encode = _c_encoder(", ") or functools.partial(
        json.dumps, sort_keys=True, allow_nan=False)
    return _replace_file(path, _json_text(
        path, lambda items: "".join([encode(item) + "\n" for item in items]),
        entries))
