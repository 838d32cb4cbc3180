"""Weak-measurement sensing of quasi-static disturbances.

The analyzer is first driven to the output minimum of the undisturbed loop,
then detuned by a small working offset.  A quasi-static delay shift moves
the output intensity between the offset level and the calibrated minimum;
the normalized swing (intensity contrast ratio) inverts to the delay shift
and, through the pressure model, to the applied mass.

The exact intensity ratio

    (I1 - Id) / (I1 - Imin) = (cos(2 de - 2 w0 dt) - cos 2 de) / (1 - cos 2 de)

is treated as ground truth here.  The familiar small-angle form
``(1 + cos d) * w0 dt / de``, whose bias prefactor cancels in the exact
ratio, lives in ``tests/oracles.py`` as the reference the tests compare
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .disturbance import STANDARD_GRAVITY, PressureParams, pressure_delay
from .errors import (Checked, ConfigError, NoSignalError, OutOfBranchError,
                     ZeroWorkingPointError, positive, within)
from .optics import C_VACUUM, LoopChannel, SpectralPacket, port_powers
from .perception import (DEFAULT_NOISE_SIGMA, MAX_INPUT_POWER_W,
                         MAX_NOISE_SIGMA)


@dataclass(frozen=True)
class WmSettings(Checked):
    """Working point and averaging of the WM readings, their poll interval
    and the pressure geometry that masses are inferred with."""

    delta_epsilon_rad: float = within(0, 0.5 * math.pi, math.pi / 6.0,
                                      ends="()")
    delta_bias_rad: float = 0.0
    input_power_w: float = within(0, MAX_INPUT_POWER_W, 1.0, ends="(]")
    noise_sigma: float = within(0, MAX_NOISE_SIGMA, DEFAULT_NOISE_SIGMA)
    samples_per_reading: int = within(1, 2**20, 16)
    poll_interval_s: float = positive(60.0)
    pressure: PressureParams = field(default_factory=PressureParams)


@dataclass(frozen=True)
class WmCalibration:
    """Analyzer null calibration against the undisturbed loop."""

    base_angle_rad: float
    min_intensity_w: float
    input_power_w: float
    bias_phase_rad: float


@dataclass(frozen=True)
class WmReading:
    """One quasi-static measurement: intensities, contrast and inversions."""

    offset_intensity_w: float
    disturbed_intensity_w: float
    contrast_ratio: float
    inferred_delay_s: float
    inferred_mass_kg: float


def calibrate(channel: LoopChannel, packet: SpectralPacket,
              settings: WmSettings) -> WmCalibration:
    """The analyzer angle minimizing the reflected output at the bias
    phase ``settings.delta_bias_rad``, and that minimum.

    The intensity is a constant minus a non-negative multiple of
    ``cos 2(e - w0 tau)``, so its minimum sits at ``w0 tau`` (taken modulo
    pi), the birefringence phase of the undisturbed loop.
    """
    bias, power = settings.delta_bias_rad, settings.input_power_w
    if 1.0 + math.cos(bias) < 1e-12:
        raise NoSignalError(
            "reflected port is dark at this bias phase; cannot calibrate")
    phase = packet.omega0 * channel.intrinsic_delay_s
    if not math.isfinite(phase):
        raise ConfigError(["channel.intrinsic_delay_s: the birefringence "
                           "phase omega0 tau must be finite, got "
                           f"{channel.intrinsic_delay_s} s"])
    eps0 = phase % math.pi
    return WmCalibration(
        base_angle_rad=eps0,
        min_intensity_w=port_powers(channel.intrinsic_delay_s, packet, eps0,
                                    bias, power)[0],
        input_power_w=power,
        bias_phase_rad=bias,
    )


def disturbed_intensity(cal: WmCalibration, delta_epsilon: float,
                        delta_tau_s: float, packet: SpectralPacket,
                        channel: LoopChannel) -> float:
    """Reflected-port power with the working offset and a delay shift."""
    return port_powers(channel.intrinsic_delay_s + delta_tau_s, packet,
                       cal.base_angle_rad + delta_epsilon, cal.bias_phase_rad,
                       cal.input_power_w)[0]


def contrast_ratio(i1_w: float, id_w: float, imin_w: float) -> float:
    """Intensity contrast ratio ``(I1 - Id) / (I1 - Imin)``."""
    swing = i1_w - imin_w
    if swing <= 0:
        raise ZeroWorkingPointError(
            "offset intensity does not exceed the calibrated minimum; "
            "the working point carries no signal")
    return (i1_w - id_w) / swing


def infer_delay(icr_value: float, delta_epsilon: float,
                omega0: float) -> float:
    """Invert a contrast ratio to the delay shift that produced it.

    Exact inversion of the intensity ratio on its monotone working branch,
    phase shifts ``s`` within a quarter turn below the offset ``de``.  With
    ``1 - cos 2x = 2 sin^2 x`` the ratio reads
    ``1 - sin^2(de - s) / sin^2 de``, so on that branch
    ``s = de - asin(sin(de) sqrt(1 - icr))``, which is exact at
    ``icr = 1`` and runs down to ``icr = -cot^2 de`` at ``s = de - pi/2``.
    """
    if not 0.0 < delta_epsilon < 0.5 * math.pi:
        raise ValueError("delta_epsilon must lie in (0, pi/2)")
    cot = math.cos(delta_epsilon) / math.sin(delta_epsilon)
    icr_lo = -cot * cot
    if not icr_lo <= icr_value <= 1.0:
        raise OutOfBranchError(
            f"contrast ratio {icr_value} outside the invertible branch "
            f"[{icr_lo}, 1]")
    shift = delta_epsilon - math.asin(
        min(1.0, math.sin(delta_epsilon) * math.sqrt(1.0 - icr_value)))
    return shift / omega0


def branch_top_problem(delay_s: float, settings: WmSettings,
                       packet: SpectralPacket) -> Optional[str]:
    """What is wrong with a delay shift past the branch top, the longest
    shift a reading inverts, or None for one it inverts.

    At the phase shift ``omega0 dt = delta_epsilon_rad`` the contrast
    ratio peaks at 1, and past it folds back onto the branch, where
    :func:`infer_delay` would read a shorter shift.
    """
    top = settings.delta_epsilon_rad / packet.omega0
    if delay_s > top:
        return f"{delay_s} s, past the WM branch top {top} s"
    return None


def mass_from_delay(delta_tau_s: float, params: PressureParams) -> float:
    """Applied mass implied by a delay shift under the pressure model."""
    return (delta_tau_s * params.contact_area_m2 * C_VACUUM
            / (params.stress_optic_per_pa * STANDARD_GRAVITY
               * params.pressed_length_m))


def read(cal: WmCalibration, settings: WmSettings, delta_tau_s: float,
         packet: SpectralPacket, channel: LoopChannel,
         rng: np.random.Generator) -> WmReading:
    """One reading of a delay shift at the working offset
    ``settings.delta_epsilon_rad``.

    Each of the offset, disturbed and minimum intensities (drawn in that
    order) is the mean of ``n = settings.samples_per_reading`` power
    readings with multiplicative Gaussian noise of ``settings.noise_sigma``.
    That mean is exactly normal with relative SD ``sigma / sqrt(n)``, so
    each intensity takes one draw of ``rng``, and none when ``sigma`` is
    zero.  The averaged intensities invert through the contrast ratio to
    the delay shift and, through ``settings.pressure``, to the applied mass.

    A delay shift past the branch top, which the inversion would read as a
    shorter one, raises :class:`OutOfBranchError` with the text of
    :func:`branch_top_problem`, before any draw.
    """
    if problem := branch_top_problem(delta_tau_s, settings, packet):
        raise OutOfBranchError(problem)
    offset, sigma = settings.delta_epsilon_rad, settings.noise_sigma
    spread = sigma / math.sqrt(settings.samples_per_reading)

    def measure(value: float) -> float:
        if sigma <= 0.0:
            return value
        return value * (1.0 + spread * rng.standard_normal())

    i1 = measure(disturbed_intensity(cal, offset, 0.0, packet, channel))
    i_d = measure(disturbed_intensity(cal, offset, delta_tau_s, packet,
                                      channel))
    imin = measure(cal.min_intensity_w)
    icr = contrast_ratio(i1, i_d, imin)
    delay = infer_delay(icr, offset, packet.omega0)
    return WmReading(
        offset_intensity_w=i1,
        disturbed_intensity_w=i_d,
        contrast_ratio=icr,
        inferred_delay_s=delay,
        inferred_mass_kg=mass_from_delay(delay, settings.pressure),
    )


def pressure_staircase(masses_kg, settings: WmSettings,
                       channel: LoopChannel, packet: SpectralPacket,
                       seed: Optional[int] = None) -> list[WmReading]:
    """Measure a staircase of standing weights, one :func:`read` per step,
    on ``settings.pressure`` loaded with each mass in turn.

    The analyzer is calibrated once, at ``settings.delta_bias_rad``; the
    bias phase of ``channel`` (the key's) is not used.
    """
    rng = np.random.default_rng(seed)
    cal = calibrate(channel, packet, settings)
    return [read(cal, settings,
                 pressure_delay(replace(settings.pressure, mass_kg=mass)),
                 packet, channel, rng)
            for mass in masses_kg]
