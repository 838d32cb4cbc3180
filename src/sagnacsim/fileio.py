"""Trace, report and columnar file formats.

Column and header values are written with shortest round-trip formatting
(repr), so attosecond-scale quantities survive write-then-read exactly.  A
trace is a header line, then one sample per line as its ``float.hex``
literal, which round-trips every float64 exactly too and formats and parses
faster than a decimal one; sample k was taken at k / sample_rate_hz.  The
writer builds the literals of a block of samples by array operations on
their bit patterns, the bytes ``float.hex`` writes without one Python
string a sample.  The reader reads header and sample values by one literal
rule, a hex literal or an ASCII decimal one, so the earlier decimal traces
read as before.  Rows of one width, which the writer writes for positive
normal samples whose exponents have one digit count, are read back by
array operations on their bytes, without a string a line.
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

#: The row a sample's ``float.hex`` literal is built in: sign, lead digit,
#: 13 hex digits, exponent sign, four exponent digits and a line break.
_HEX_ROW = b"-0x0.0000000000000p+0000\n"


def _hex_lines(block: np.ndarray) -> bytes:
    """The ASCII bytes of ``"\\n".join(map(float.hex, block)) + "\\n"`` for
    a contiguous block of finite float64 samples, built by array operations
    on their bits.

    Each sample fills a copy of ``_HEX_ROW``: lead digit 1 if it is a normal
    number, the last 13 of the 16 hex digits of its bits, and the sign and
    digits of its exponent, the biased exponent less 1023, or -1022 for a
    subnormal and 0 for a zero.  One boolean mask then drops what
    ``float.hex`` leaves out: the sign of a positive sample, the leading
    zeros of the exponent and the last 12 digits of a zero, ``0x0.0p+0``.
    """
    bits = block.view(np.uint64)
    n = bits.size
    rows = np.frombuffer(bytearray(_HEX_ROW * n), np.uint8).reshape(n, 25)
    rows[:, 5:18] = np.frombuffer(
        bits.astype(">u8").tobytes().hex().encode(),
        np.uint8).reshape(n, 16)[:, 3:]
    biased = (bits >> 52).astype(np.int16) & 0x7FF
    zero = (bits << 1) == 0
    rows[:, 3] += biased != 0
    exponent = (np.maximum(biased, 1) - 1023) * ~zero
    rows[:, 19] += (exponent < 0).view(np.uint8) << 1  # "+" to "-"
    magnitude = np.abs(exponent)
    keep = np.ones(rows.shape, bool)
    keep[:, 0] = bits >> 63
    keep[zero, 6:18] = False
    for col, power in enumerate((1000, 100, 10), start=20):
        keep[:, col] = magnitude >= power
    for col, power in enumerate((1000, 100, 10, 1), start=20):
        digit = magnitude // power
        rows[:, col] += digit.astype(np.uint8)
        magnitude -= digit * power
    return rows[keep].tobytes()


def write_trace(path: str | Path, trace: InterferenceTrace) -> Path:
    """Write a trace as its metadata header line, then one sample a line as
    its ``float.hex`` literal, formatted by :func:`_hex_lines` at most
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

    Header and sample values are read by :func:`_literal`, so decimal files
    in the earlier format read as before.  A body of one hex literal a line,
    as :func:`write_trace` writes it, is read by ``float.fromhex`` line by
    line: a text ``float.fromhex`` reads holds at most one "x", so when it
    reads every line, as many "x" as lines make every line a hex literal.
    A body of rows of one width after a header without other breaks, as
    :func:`write_trace` writes positive normal samples whose exponents have
    one digit count, is read by :func:`_hex_rows` without a string a line,
    to the same values.
    The header holds each of ``_HEADER_KEYS`` at most once and no other key.

    Raises :class:`ConfigError` naming the file when it is missing,
    unreadable or malformed, and the line of a bad sample.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        header, _, rest = text.partition("\n")
        samples = _hex_rows(rest) if header.splitlines() == [header] else None
        if samples is None:
            header, *body = text.splitlines() or [""]
        meta = _header(header)
        if samples is None:
            samples = _samples(body, text.count("x", len(header)))
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


#: The first four bytes of every row :func:`_hex_rows` reads.
_ROW_HEAD = np.frombuffer(b"0x1.", np.uint8)


def _hex_rows(body: str) -> np.ndarray | None:
    """The samples of a trace ``body`` of rows of one width, each the
    ``float.hex`` literal of a positive normal sample and a "\\n", as
    :func:`write_trace` writes samples whose exponents have one digit count:
    "0x1.", 13 hex digits, "p", an exponent sign and 1 to 4 exponent
    digits; None for any other body.

    The mirror of :func:`_hex_lines`: array operations on the rows' bytes
    check every byte and build each sample's bits, the value
    ``float.fromhex`` reads: the 13 digits are the low 52 bits, and the
    exponent, from -1022 to 1023, plus 1023 is the 11 bits above them.
    """
    width = body.find("\n") + 1
    if not 21 <= width <= 24 or len(body) % width or not body.isascii():
        return None
    rows = np.frombuffer(body.encode("ascii"), np.uint8).reshape(-1, width)
    if (rows[:, -1] != ord("\n")).any() or (rows[:, 17] != ord("p")).any() \
            or (rows[:, :4] != _ROW_HEAD).any():
        return None
    sign, digits = rows[:, 18], rows[:, 19:-1].astype(np.int16) - ord("0")
    if ((sign != ord("+")) & (sign != ord("-"))).any() \
            or ((digits < 0) | (digits > 9)).any():
        return None
    exponent = digits @ 10 ** np.arange(width - 21, -1, -1, dtype=np.int16)
    exponent[sign == ord("-")] *= -1
    if exponent.min() < -1022 or exponent.max() > 1023:
        return None
    hex16 = np.full((rows.shape[0], 16), ord("0"), np.uint8)
    hex16[:, 3:] = rows[:, 4:17]
    try:
        mantissa = bytes.fromhex(hex16.tobytes().decode("ascii"))
    except ValueError:
        return None
    # bytes.fromhex skips white space, so a row holding any reads short.
    if len(mantissa) != 8 * rows.shape[0]:
        return None
    bits = np.frombuffer(mantissa, ">u8").astype(np.uint64)
    bits |= (exponent + 1023).astype(np.uint64) << np.uint64(52)
    return bits.view(np.float64)


def _samples(body: Sequence[str], xs: int) -> np.ndarray:
    """The samples of the trace ``body`` lines, which hold ``xs`` "x": by
    ``float.fromhex`` line by line when every line is a hex literal, else
    the last field of each non-blank line by :func:`_literal`, a bad one
    named by its file line, the header being line 1."""
    if xs == len(body):
        try:
            return np.fromiter(map(float.fromhex, body), float, len(body))
        except (ValueError, OverflowError):
            pass
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
