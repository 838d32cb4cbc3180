"""Physical disturbance models.

Maps lab-level knobs (drive voltage, dropped mass, standing weight) onto the
phase or delay waveforms they imprint on the loop.  All waveforms are pure
functions of time and parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import Checked, ConfigError, field_specs, non_negative, positive
from .optics import C_VACUUM

#: Standard acceleration of gravity (m/s^2), exact by definition.
STANDARD_GRAVITY = 9.80665


#: Largest peak phase (rad) a dynamic event may impose on one pass.  At
#: 1550 nm it stretches the fiber's optical path by about 170 m, against
#: 0.6 rad for the README drive; the net phase of a scenario's events then
#: stays far inside the float range.
MAX_PEAK_PHASE_RAD = 1e9

#: Longest group-delay shift (s) a standing weight may impose: 1 ns, 1e8
#: times the shift of the default 100 g and about 1e6 times a quarter turn
#: of the WM working point at 1550 nm.  Its phase ``omega0 tau`` then stays
#: far inside the float range at any wavelength.
MAX_DELAY_SHIFT_S = 1e-9


class _Peaked(Checked):
    """Base of the dynamic params: ``peak_phase_rad``, a product of fields,
    is bounded by ``MAX_PEAK_PHASE_RAD`` as a problem of the ``_GAIN`` key,
    and the event's band, ``band_hz``, is set by the ``_BAND`` key."""

    def __post_init__(self):
        super().__post_init__()
        if not self.peak_phase_rad <= MAX_PEAK_PHASE_RAD:
            raise ConfigError([f"{self._GAIN}: {getattr(self, self._GAIN)} "
                               f"puts the peak phase above "
                               f"{MAX_PEAK_PHASE_RAD} rad"])


@dataclass(frozen=True)
class PztParams(_Peaked):
    """Sinusoidal phase modulation from a piezo clamped on a bare segment.

    ``phase_gain_rad_per_v`` lumps the stress-optic coefficient, Young's
    modulus, piezo coefficient and modulated length into a single
    rad-per-volt calibration constant.
    """

    drive_amplitude_v: float = positive()
    frequency_hz: float = positive()
    phase_gain_rad_per_v: float = positive(0.5)
    _GAIN = "phase_gain_rad_per_v"
    _BAND = "frequency_hz"

    @property
    def angular_frequency_rad_s(self) -> float:
        return 2.0 * math.pi * self.frequency_hz

    @property
    def band_hz(self) -> float:
        return self.frequency_hz

    @property
    def peak_phase_rad(self) -> float:
        return self.phase_gain_rad_per_v * self.drive_amplitude_v


@dataclass(frozen=True)
class ImpactParams(_Peaked):
    """Point-like transient from a mass dropped onto a bare segment.

    The idealized space-time delta is realized as a unit-peak Gaussian of
    temporal width ``width_s``; the width must stay long against the transit
    time across the impacted region for both directions to see the event.
    ``impact_gain`` lumps the photoelastic coupling into rad per unit
    momentum (kg*m/s).
    """

    mass_kg: float = positive()
    drop_height_m: float = positive()
    width_s: float = positive(10e-6)
    impact_gain: float = positive(10.0)
    _GAIN = "impact_gain"
    _BAND = "width_s"

    @property
    def band_hz(self) -> float:
        """Where the pulse's spectrum ends: half the inverse width."""
        return 0.5 / self.width_s

    @property
    def reach_s(self) -> float:
        """How far from its centre the pulse reaches: six widths, where the
        Gaussian has fallen to exp(-18), about 1.5e-8 of its peak."""
        return 6.0 * self.width_s

    @property
    def peak_phase_rad(self) -> float:
        momentum = self.mass_kg * math.sqrt(
            2.0 * STANDARD_GRAVITY * self.drop_height_m)
        return self.impact_gain * momentum


@dataclass(frozen=True)
class PressureParams(Checked):
    """Standing weight pressing a bare fiber section.

    The stress-optic coefficient converts the applied stress (weight over
    contact area) into an index change which accumulates into a group-delay
    shift over the pressed length.  That shift, :func:`pressure_delay`, is
    bounded by ``MAX_DELAY_SHIFT_S`` as a problem of the factor furthest
    past its default, the contact area counting inversely.
    """

    mass_kg: float = non_negative(0.1)
    pressed_length_m: float = positive(0.1)
    contact_area_m2: float = positive(1e-4)
    stress_optic_per_pa: float = positive(3e-12)

    def __post_init__(self):
        super().__post_init__()
        if not pressure_delay(self) <= MAX_DELAY_SHIFT_S:
            specs = field_specs(PressureParams)
            key = max(specs, key=lambda k: math.log(
                getattr(self, k) / specs[k].default)
                * (-1.0 if k == "contact_area_m2" else 1.0))
            raise ConfigError([f"{key}: {getattr(self, key)} puts the delay "
                               f"shift above {MAX_DELAY_SHIFT_S} s"])


DisturbanceParams = Union[PztParams, ImpactParams, PressureParams]


@dataclass(frozen=True)
class DisturbanceEvent(Checked):
    """A typed disturbance at a position along the loop.

    ``position_m`` is measured from the beam splitter along the clockwise
    direction.  ``start_s`` anchors the waveform in scenario time: the piezo
    drive and standing weight act from ``start_s`` onward, the impact profile
    is centered on it.
    """

    params: DisturbanceParams
    position_m: float = non_negative()
    start_s: float = non_negative(0.0)

    def __post_init__(self):
        if type(self.params) not in (PztParams, ImpactParams, PressureParams):
            raise TypeError(f"unsupported params type {type(self.params)!r}")
        super().__post_init__()

    @property
    def is_dynamic(self) -> bool:
        return not isinstance(self.params, PressureParams)


def pzt_phase(t, params: PztParams):
    """Phase imposed on a single pass at time ``t`` by the piezo drive.

    Linear in the drive voltage: ``gain * V0 * sin(omega_s * t)``.
    Accepts scalars or arrays.
    """
    return params.peak_phase_rad * np.sin(params.angular_frequency_rad_s * t)


def impact_phase(t, params: ImpactParams, center_s: float = 0.0):
    """Phase pulse from a transient impact, centered on ``center_s``.

    Unit-peak Gaussian of width ``width_s`` scaled by
    ``impact_gain * m * sqrt(2 g h)``; identically zero beyond
    :attr:`ImpactParams.reach_s` from the center.  The Gaussian is
    evaluated only at the times within that reach, in any order, and every
    other time gets an exact ``0.0``.  A scalar time stays a scalar:
    numpy's scalar ``** 2``, a ``pow`` call, can round apart from the
    square its arrays take.
    """
    def pulse(dt):
        return params.peak_phase_rad * np.exp(-0.5 * (dt / params.width_s)
                                               ** 2)

    t = np.asarray(t, dtype=float)
    dt = t - center_s
    near = np.abs(dt) <= params.reach_s
    if not t.ndim:
        return float(pulse(dt)) if near else 0.0
    out = np.zeros(t.shape)
    out[near] = pulse(dt[near])
    return out


def pressure_delay(params: PressureParams) -> float:
    """Group-delay shift (s) between polarization components under load.

    Stress-induced index change ``C * (m g / S)`` accumulated over the
    pressed length and converted to time: ``C * (m g / S) * l / c``.  A
    100 g weight over a 10 cm section gives 9.81e-18 s.
    """
    stress_pa = params.mass_kg * STANDARD_GRAVITY / params.contact_area_m2
    index_change = params.stress_optic_per_pa * stress_pa
    return index_change * params.pressed_length_m / C_VACUUM


def single_pass_phase(t, event: DisturbanceEvent):
    """Phase a single pass picks up from a dynamic event at loop time ``t``.

    Quasi-static pressure contributes no per-pass global phase; only its
    delay shift (see :func:`pressure_delay`) matters, so it returns zero.
    """
    if isinstance(event.params, PztParams):
        t = np.asarray(t, dtype=float)
        active = t >= event.start_s
        out = np.where(active, pzt_phase(t - event.start_s, event.params), 0.0)
        return out if out.ndim else float(out)
    if isinstance(event.params, ImpactParams):
        return impact_phase(t, event.params, center_s=event.start_s)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    return out if out.ndim else 0.0
