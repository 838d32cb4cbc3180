"""Trace, report and columnar file formats.

Column and header values are written with shortest round-trip formatting
(repr), so attosecond-scale quantities survive write-then-read exactly.  A
trace is a header line, then one row of 25 bytes a sample: the
``float.fromhex`` literal that spells the sample's sign, exponent and 52
low bits, ``+0x1.6c61522a6f3f5p-0008`` for 5.56e-3, and a line break, so
every float64 round-trips exactly; sample k was taken at k /
sample_rate_hz.  The writer builds the rows of a block of samples by array
operations on their bit patterns, and the reader reads a body of rows back
by array operations on the file's bytes, without a string a sample.  Any
other body is read a line at a time by one literal rule for header and
sample values, a hex literal or an ASCII decimal one, so the earlier hex
and decimal traces read as before.
Reports and event logs hold the bytes ``json.dumps`` writes with sorted
keys, one line a report or log entry.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, SagnacSimError
from .perception import InterferenceTrace


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return "nan"
    return str(value)


def _replace_file(path: str | Path, chunks: Iterable[bytes]) -> Path:
    """Write the bytes of ``chunks``, in order, as a new file at ``path``,
    after unlinking any file there: on ext4 that costs far less than
    truncating a file in place.
    So a symlink or hard link at ``path`` is replaced, and the file it
    shared is left as it was.  The chunks go straight to one file
    descriptor: a text file object around it costs more than the write.

    Raises :class:`ConfigError` naming the path when it cannot be written,
    for example when it is a directory.
    """
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            for chunk in chunks:
                while chunk:
                    chunk = chunk[os.write(fd, chunk):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    return path


#: Most samples :func:`write_trace` formats at once.
_TRACE_BLOCK = 2**16

#: The bytes of each sample's row: sign, "0x", lead digit, ".", 13 hex
#: digits, "p", exponent sign, four exponent digits and a line break.
_ROW_BYTES = 25

#: The first five bytes of a row by ``2 * sign bit + lead digit``, each in a
#: little-endian 8-byte word whose last three bytes the digits overwrite.
_HEADS = np.frombuffer(b"".join(head.ljust(8, b"\0") for head in (
    b"+0x0.", b"+0x1.", b"-0x0.", b"-0x1.")), "<u8")

#: The last seven bytes of a row by biased exponent, after a zero byte that
#: the last hex digit overwrites: "p-1022" for 0 (zeros and subnormals) and
#: 1, the exponent less 1023 above, and eight zero bytes for 2047, which no
#: finite sample has.
_TAILS = np.frombuffer(b"".join(b"\0p%+05d\n" % exponent for exponent in (
    -1022, *range(-1022, 1024))) + bytes(8), "<u8")


def _words(buffer, offset: int, n: int, stride: int = _ROW_BYTES):
    """The ``n`` little-endian 8-byte words of ``buffer`` at ``offset``,
    ``offset + stride``, ...: a view, writable when ``buffer`` is."""
    return np.ndarray((n,), "<u8", buffer, offset, (stride,))


def _hex_lines(block: np.ndarray) -> bytearray:
    """The rows of a contiguous block of finite float64 samples, built by
    array operations on their bits.

    A row spells the sample's three bit fields as a ``float.fromhex``
    literal: its sign, "0x", the lead digit 1 for a normal sample and 0 for
    a subnormal or zero, ".", the 13 hex digits of the low 52 bits, "p",
    and the exponent, the biased exponent less 1023 or -1022 for a biased
    exponent of 0, as a sign and four digits, then "\\n":
    ``+0x1.6c61522a6f3f5p-0008`` for 5.56e-3.  Each row is stored as four
    overlapping 8-byte words: the head from ``_HEADS``, the tail from
    ``_TAILS``, then two words of the hex digits, the second over the
    tail's first byte.
    """
    bits = block.view(np.uint64)
    n = bits.size
    rows = bytearray(_ROW_BYTES * n)
    biased = bits >> 52 & 0x7FF
    _words(rows, 0, n)[:] = _HEADS[bits >> 62 & 2 | (biased != 0)]
    _words(rows, 17, n)[:] = _TAILS[biased]
    digits = (bits << 12).astype(">u8").tobytes().hex().encode()
    _words(rows, 5, n)[:] = _words(digits, 0, n, 16)
    _words(rows, 10, n)[:] = _words(digits, 5, n, 16)
    return rows


def write_trace(path: str | Path, trace: InterferenceTrace) -> Path:
    """Write a trace as its metadata header line, then one row of
    ``_ROW_BYTES`` a sample, formatted by :func:`_hex_lines` at most
    ``_TRACE_BLOCK`` samples at once."""
    header = (f"# sample_rate_hz={_fmt(trace.sample_rate_hz)} "
              f"i0_w={_fmt(trace.input_power_w)} "
              f"noise_sigma={_fmt(trace.noise_sigma)}\n").encode()
    samples = trace.samples
    blocks = (_hex_lines(samples[lo:lo + _TRACE_BLOCK])
              for lo in range(0, samples.size, _TRACE_BLOCK))
    return _replace_file(path, itertools.chain([header], blocks))


#: The keys a trace header may hold, each at most once.
_HEADER_KEYS = ("sample_rate_hz", "i0_w", "noise_sigma")


def _literal(text: str) -> float:
    """The float a trace value ``text`` spells: ``float.fromhex`` of a text
    holding an "x" or "X", ``float`` of an ASCII text without "_".

    Only a hex literal holds an "x", in its "0x" prefix, so no decimal
    literal is read as hex (``float.fromhex("0.5")`` is 0.3125).  Any
    other text raises ``ValueError``, also a hex literal past the float
    range and the digit-group underscores and non-ASCII digits ``float``
    reads but ``write_trace`` never writes.
    """
    try:
        if "x" in text or "X" in text:
            return float.fromhex(text)
        if text.isascii() and "_" not in text:
            return float(text)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"value {text!r} cannot be read as a float")


def read_trace(path: str | Path) -> InterferenceTrace:
    """Read a trace written by :func:`write_trace`: the sample is the last
    field of each non-blank body line, so files with a leading time column
    read the same.  Lines end at the breaks ``str.splitlines`` honours.

    A body of whole rows under a header line that ends at the first "\\n",
    as :func:`write_trace` writes it, is read from the file's bytes by
    :func:`_hex_rows`.  Any other body, or one it hands back, is read line
    by line, header and sample values by :func:`_literal`, to the values
    ``float.fromhex`` reads from hex literals, so hex and decimal files in
    the earlier formats read as before.  The header holds each of
    ``_HEADER_KEYS`` at most once and no other key.

    Raises :class:`ConfigError` naming the file when it is missing,
    unreadable or malformed, and the line of a bad sample.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        end = data.find(b"\n") + 1
        samples = None
        if 0 < end < len(data) and (len(data) - end) % _ROW_BYTES == 0:
            header = data[:end - 1].decode("utf-8")
            if header.splitlines() == [header]:
                samples = _hex_rows(memoryview(data)[end:])
        if samples is None:
            header, *body = data.decode("utf-8").splitlines() or [""]
        meta = _header(header)
        if samples is None:
            samples = _samples(body)
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


def _header(header: str) -> dict[str, float]:
    """The values of a trace ``header`` line by key, each read by
    :func:`_literal`: each of ``_HEADER_KEYS`` at most once, the first two
    required, and no other key."""
    if not header.startswith("#"):
        raise ValueError("missing trace header line")
    meta = {}
    for token in header.lstrip("#").split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed header token {token!r}")
        if key not in _HEADER_KEYS:
            raise ValueError(f"unknown header key in {token!r}, not "
                             f"one of {', '.join(_HEADER_KEYS)}")
        if key in meta:
            raise ValueError(f"repeated header key in {token!r}")
        try:
            meta[key] = _literal(value)
        except ValueError as exc:
            raise ValueError(f"header token {token!r}: {exc}") from None
    for required in ("sample_rate_hz", "i0_w"):
        if required not in meta:
            raise ValueError(f"header missing {required}")
    return meta


def _hex_rows(body) -> np.ndarray | None:
    """The samples of a trace ``body``, bytes of whole rows as
    :func:`_hex_lines` writes them, or None for a body with any row that
    this function cannot read exactly.

    The mirror of :func:`_hex_lines`, by array operations on words of the
    rows: each head must be one of ``_HEADS``, each tail the one of
    ``_TAILS`` for the exponent its digits spell, -1022 to 1023 after the
    lead digit 1 and -1022 after the lead digit 0, and the 13 digits must
    be hex digits, of either case.  Each sample's bits are then the value
    ``float.fromhex`` reads from its row.
    """
    n = len(body) // _ROW_BYTES
    head = _words(body, 0, n) & 0xFF_FFFF_FFFF
    sign, lead = head & 0xFF == ord("-"), head >> 24 & 0xFF == ord("1")
    tail = _words(body, 17, n) >> 8
    digits = tail >> 16
    exponent = ((digits & 0xF) * 1000 + (digits >> 8 & 0xF) * 100
                + (digits >> 16 & 0xF) * 10 + (digits >> 24 & 0xF))
    exponent = exponent.astype(np.int64)
    biased = np.where(lead, np.where(tail >> 8 & 0xFF == ord("-"),
                                     1023 - exponent, 1023 + exponent), 0)
    if (head != _HEADS[sign * 2 | lead]).any() \
            or (tail != _TAILS.take(biased, mode="clip") >> 8).any():
        return None
    # The 13 digits and "000", the low 52 bits shifted to the top.
    hex16 = np.empty((n, 2), "<u8")
    hex16[:, 0] = _words(body, 5, n)
    hex16[:, 1] = _words(body, 13, n) & 0xFF_FFFF_FFFF | 0x303030 << 40
    try:
        mantissa = bytes.fromhex(str(hex16.data, "ascii"))
    except ValueError:
        return None
    # bytes.fromhex skips white space, so a row holding any reads short.
    if len(mantissa) != 8 * n:
        return None
    bits = np.frombuffer(mantissa, ">u8") >> 12
    bits |= biased.astype(np.uint64) << 52 | sign.astype(np.uint64) << 63
    return bits.view(np.float64)


def _samples(body: Sequence[str]) -> np.ndarray:
    """The samples of the trace ``body`` lines: the last field of each
    non-blank line by :func:`_literal`, a bad one named by its file line,
    the header being line 1."""
    samples = []
    for number, line in enumerate(body, start=2):
        if fields := line.split():
            try:
                samples.append(_literal(fields[-1]))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
    return np.array(samples, float)


def write_columns(path: str | Path, header: Sequence[str],
                  rows: Iterable[Sequence]) -> Path:
    """Write a plot-ready CSV: one header line, then one line per row of
    repr-formatted values, each row one value per header field."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("each row must have one value per header field")
        lines.append(",".join(map(_fmt, row)))
    return _replace_file(path, [("\n".join(lines) + "\n").encode()])


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


#: The encoder of every JSON file: ``json.dumps(value, sort_keys=True,
#: allow_nan=False)``, through the stdlib's C encoder where it exists.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def write_report(path: str | Path, report: dict) -> Path:
    """Write the single structured report document for a run:
    ``json.dumps(report, sort_keys=True)`` and a line break, one line."""
    return _replace_file(path, [(_json_text(path, _ENCODER.encode, report)
                                 + "\n").encode()])


def write_event_log(path: str | Path, entries: Sequence[dict]) -> Path:
    """Write controller log entries as line-delimited JSON records, each
    ``json.dumps(entry, sort_keys=True)``."""
    return _replace_file(path, [_json_text(
        path, lambda items: "".join([_ENCODER.encode(item) + "\n"
                                     for item in items]), entries).encode()])
