"""Exception hierarchy shared by all simulator modules, and the typed,
bounded dataclass fields whose violations they report."""
from __future__ import annotations

import numbers
import sys
from dataclasses import MISSING, field, fields
from functools import cache, partial
from typing import Any, Callable, NamedTuple, Optional


class SagnacSimError(Exception):
    """Base class for all simulator errors."""


class NoSignalError(SagnacSimError):
    """Both output ports are dark; visibility and error rate are undefined."""


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


def bounded(test: Callable[[Any], bool], text: str, default=MISSING):
    """A dataclass field whose value must pass ``test``; ``text`` completes
    "must be ..." in the problem reported when it does not."""
    return field(default=default, metadata={_BOUND: (test, text)})


positive = partial(bounded, lambda v: v > 0, "> 0 (unit violation)")
non_negative = partial(bounded, lambda v: v >= 0, ">= 0 (unit violation)")
fraction = partial(bounded, lambda v: 0 <= v <= 1, "within [0, 1]")


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
    required) and bound of one numeric field."""

    kind: type
    default: Any
    bound: Optional[tuple[Callable[[Any], bool], str]]

    def problem(self, value) -> Optional[str]:
        """Why ``value`` does not fit this field, or None when it does.

        ``int`` fields take integers only, ``float`` fields any real
        number; either must be finite as a float.
        """
        kind = _number_kind(type(value))
        if self.kind is int and kind is not int:
            return f"expected an integer, got {value!r}"
        if kind is None:
            return f"expected a number, got {value!r}"
        if not abs(value) <= _FLOAT_MAX:
            return f"expected a finite number, got {value!r}"
        if self.bound is not None and not self.bound[0](value):
            return f"must be {self.bound[1]}, got {value}"
        return None


_KINDS = {"int": int, "float": float, int: int, float: float}


@cache
def field_specs(cls) -> dict[str, FieldSpec]:
    """The spec of each ``int`` or ``float`` field of dataclass ``cls``."""
    return {f.name: FieldSpec(_KINDS[f.type], f.default, f.metadata.get(_BOUND))
            for f in fields(cls) if f.type in _KINDS}


class Checked:
    """Base of the dataclasses that check each ``int`` and ``float`` field
    against its :class:`FieldSpec` on construction."""

    def __post_init__(self):
        problems = [f"{name}: {problem}"
                    for name, spec in field_specs(type(self)).items()
                    if (problem := spec.problem(getattr(self, name)))]
        if problems:
            raise ConfigError(problems)
