"""Exception hierarchy shared by all simulator modules, and the typed,
bounded dataclass fields whose violations they report."""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, field, fields
from functools import cache, partial
from typing import Any, NamedTuple, Optional


class SagnacSimError(Exception):
    """Base class for all simulator errors."""


class NoSignalError(SagnacSimError):
    """The output port a measurement reads is dark."""


class InsufficientDataError(SagnacSimError):
    """A statistic was requested from too few samples or an empty window."""


class AliasingError(SagnacSimError):
    """Requested sample rate cannot represent the disturbance bandwidth."""


class OutOfLoopError(SagnacSimError):
    """A null frequency maps to a position outside the fiber loop."""


class UndefinedResolutionError(SagnacSimError):
    """Resolution is undefined when the null frequency is at or below the
    instrument frequency resolution."""


class HarmonicAmbiguityError(SagnacSimError):
    """Detected spectral notches cannot be assigned consistent harmonic
    indices."""


class OutOfBranchError(SagnacSimError):
    """A contrast ratio lies outside the invertible working branch."""


class ZeroWorkingPointError(SagnacSimError):
    """The offset intensity equals the calibrated minimum, so the contrast
    ratio denominator vanishes."""


class ConfigError(SagnacSimError, ValueError):
    """One or more configuration entries failed validation.

    Carries the full list of problems, not just the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_BOUND = "bound"
_FLOAT_MAX = sys.float_info.max


def interval_text(bound: tuple) -> str:
    """A bound ``(lo, hi, ends)`` as its "must be ..." problem states it."""
    lo, hi, ends = bound
    if hi == math.inf:
        return f">{'=' * (ends[0] == '[')} {lo}"
    return f"within {ends[0]}{lo}, {hi}{ends[1]}"


def within(lo, hi, default=MISSING, ends: str = "[]"):
    """A dataclass field whose value must lie from ``lo`` to ``hi``, a
    finite end taken in where ``ends`` holds its bracket, ``[`` or ``]``,
    and left out where it holds ``(`` or ``)``."""
    return field(default=default, metadata={_BOUND: (lo, hi, ends)})


positive = partial(within, 0, math.inf, ends="()")
non_negative = partial(within, 0, math.inf, ends="[)")
fraction = partial(within, 0, 1)


@cache
def _number_kind(value_type: type) -> Optional[type]:
    """``int`` for integer types, ``float`` for other real types and None
    for anything else, booleans included."""
    if issubclass(value_type, bool) or \
            not issubclass(value_type, numbers.Real):
        return None
    return int if issubclass(value_type, numbers.Integral) else float


class FieldSpec(NamedTuple):
    """Declared type (``int`` or ``float``), default (``MISSING`` when
    required) and bound, ``(lo, hi, ends)`` as :func:`within` takes them,
    of one numeric field."""

    kind: type
    default: Any
    bound: Optional[tuple[Any, Any, str]]

    def problem(self, value) -> Optional[str]:
        """Why ``value`` does not fit this field, or None when it does.

        ``int`` fields take integers only, ``float`` fields any real
        number; either must be finite as a float.  ``MISSING``, no value
        where the field has no default, fits no field.
        """
        if value is MISSING:
            return "required value missing"
        kind = _number_kind(type(value))
        if self.kind is int and kind is not int:
            return f"expected an integer, got {value!r}"
        if kind is None:
            return f"expected a number, got {value!r}"
        if not abs(value) <= _FLOAT_MAX:
            return f"expected a finite number, got {value!r}"
        lo, hi, ends = self.bound or (-math.inf, math.inf, "()")
        if (lo < value or lo == value and ends[0] == "[") and \
                (value < hi or value == hi and ends[1] == "]"):
            return None
        # A real quantity at or below a zero end has the wrong sign.
        note = (" (unit violation)" if self.kind is float and value <= 0 == lo
                else "")
        return f"must be {interval_text(self.bound)}{note}, got {value}"


_KINDS = {"int": int, "float": float, int: int, float: float}


@cache
def field_specs(cls) -> dict[str, FieldSpec]:
    """The spec of each ``int`` or ``float`` field of dataclass ``cls``."""
    return {f.name: FieldSpec(_KINDS[f.type], f.default, f.metadata.get(_BOUND))
            for f in fields(cls) if f.type in _KINDS}


def field_problems(specs: dict, values: dict, label: str = "") -> list[str]:
    """``label + key: problem`` for each of ``specs`` whose value in
    ``values`` does not fit it, in the order of ``specs``."""
    return [f"{label}{key}: {problem}" for key, spec in specs.items()
            if (problem := spec.problem(values[key]))]


class Checked:
    """Base of the dataclasses that check each ``int`` and ``float`` field
    against its :class:`FieldSpec` on construction and, once every field
    fits, the rules across fields that :meth:`problems` states; either
    list, if not empty, is raised as one :class:`ConfigError`."""

    def __post_init__(self):
        if problems := (field_problems(field_specs(type(self)), vars(self))
                        or self.problems()):
            raise ConfigError(problems)

    def problems(self) -> list[str]:
        """Why the fields, each of which fits, do not fit together."""
        return []
