"""Weak-measurement sensing of quasi-static disturbances.

The analyzer is first driven to the output minimum of the undisturbed loop,
then detuned by a small working offset.  A quasi-static delay shift moves
the output intensity between the offset level and the calibrated minimum;
the normalized swing (intensity contrast ratio) inverts to the delay shift
and, through the pressure model, to the applied mass.

The exact intensity ratio

    (I1 - Id) / (I1 - Imin) = (cos(2 de - 2 w0 dt) - cos 2 de) / (1 - cos 2 de)

is treated as ground truth here; the familiar small-angle form
``(1 + cos d) * w0 dt / de`` is exposed separately as the documented
approximation (its bias prefactor cancels in the exact ratio).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.constants import g as STANDARD_GRAVITY
from scipy.optimize import brentq

from .disturbance import PressureParams, pressure_delay
from .errors import (ConfigError, NoSignalError, OutOfBranchError,
                     ZeroWorkingPointError)
from .optics import C_VACUUM, LoopChannel, SpectralPacket, port_powers


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


def reflected_intensity(epsilon_rad: float, channel: LoopChannel,
                        packet: SpectralPacket, delta_bias: float,
                        input_power_w: float,
                        delay_shift_s: float = 0.0) -> float:
    """Reflected-port output power for an analyzer angle ``epsilon_rad``.

    ``delay_shift_s`` replaces the channel's own delay shift.
    """
    return port_powers(channel.intrinsic_delay_s + delay_shift_s, packet,
                       epsilon_rad, delta_bias, input_power_w)[0]


def calibrate(channel: LoopChannel, packet: SpectralPacket,
              delta_bias: float, input_power_w: float,
              intensity_fn: Optional[Callable[[float], float]] = None,
              ) -> WmCalibration:
    """Find the analyzer angle minimizing the reflected output.

    The search is numerical over the measured intensity (so the identical
    code path works when a noisy intensity callable is supplied): the root
    of the symmetric finite difference ``I(e + h) - I(e - h)`` is bracketed
    around the analytic guess and polished to machine precision.  Requires
    the undisturbed loop (zero delay shift).
    """
    if 1.0 + math.cos(delta_bias) < 1e-12:
        raise NoSignalError(
            "reflected port is dark at this bias phase; cannot calibrate")
    if channel.delay_shift_s != 0.0:
        raise ConfigError(["channel.delay_shift_s: calibration requires an "
                           "undisturbed loop (0.0), got "
                           f"{channel.delay_shift_s}"])
    if input_power_w <= 0:
        raise ValueError("input_power_w must be positive")

    if intensity_fn is None:
        def intensity_fn(eps: float) -> float:
            return reflected_intensity(eps, channel, packet, delta_bias,
                                       input_power_w)

    guess = (packet.omega0 * channel.intrinsic_delay_s) % math.pi
    h = 0.01

    def balance(eps: float) -> float:
        return intensity_fn(eps + h) - intensity_fn(eps - h)

    lo, hi = guess - 0.25 * math.pi, guess + 0.25 * math.pi
    f_lo, f_hi = balance(lo), balance(hi)
    if f_lo == 0.0:
        eps0 = lo
    elif f_hi == 0.0:
        eps0 = hi
    elif f_lo * f_hi < 0:
        eps0 = brentq(balance, lo, hi, xtol=1e-14)
    else:
        # Degenerate landscape (e.g. fully decohered packet or a noisy
        # callable breaking the bracket): fall back to a grid scan.
        grid = np.linspace(lo, hi, 721)
        eps0 = float(grid[np.argmin([intensity_fn(e) for e in grid])])
    return WmCalibration(
        base_angle_rad=eps0,
        min_intensity_w=intensity_fn(eps0),
        input_power_w=input_power_w,
        bias_phase_rad=delta_bias,
    )


def offset_intensity(cal: WmCalibration, delta_epsilon: float,
                     packet: SpectralPacket, channel: LoopChannel) -> float:
    """Output power with the analyzer detuned by the working offset,
    loop still undisturbed."""
    return disturbed_intensity(cal, delta_epsilon, 0.0, packet, channel)


def disturbed_intensity(cal: WmCalibration, delta_epsilon: float,
                        delta_tau_s: float, packet: SpectralPacket,
                        channel: LoopChannel) -> float:
    """Output power with the working offset and a delay shift applied."""
    return reflected_intensity(cal.base_angle_rad + delta_epsilon, channel,
                               packet, cal.bias_phase_rad, cal.input_power_w,
                               delay_shift_s=delta_tau_s)


def contrast_ratio(i1_w: float, id_w: float, imin_w: float) -> float:
    """Intensity contrast ratio ``(I1 - Id) / (I1 - Imin)``."""
    swing = i1_w - imin_w
    if swing <= 0:
        raise ZeroWorkingPointError(
            "offset intensity does not exceed the calibrated minimum; "
            "the working point carries no signal")
    return (i1_w - id_w) / swing


def _exact_ratio(phase_shift: float, delta_epsilon: float) -> float:
    denom = 1.0 - math.cos(2.0 * delta_epsilon)
    return (math.cos(2.0 * delta_epsilon - 2.0 * phase_shift)
            - math.cos(2.0 * delta_epsilon)) / denom


def approx_contrast_ratio(delta_tau_s: float, delta_epsilon: float,
                          omega0: float, delta_bias: float = 0.0) -> float:
    """Small-angle contrast ratio ``(1 + cos d) * w0 dt / de``.

    Documented approximation only; it agrees with the exact ratio in the
    ``w0 dt << de << 1`` regime and only at zero bias phase.
    """
    return (1.0 + math.cos(delta_bias)) * omega0 * delta_tau_s / delta_epsilon


@dataclass(frozen=True)
class DelayInversion:
    """Exact and small-angle estimates of a delay shift from a contrast."""

    delay_s: float
    small_angle_delay_s: float


def infer_delay(icr_value: float, delta_epsilon: float,
                omega0: float) -> DelayInversion:
    """Invert a contrast ratio to the delay shift that produced it.

    Exact inversion of the intensity ratio on its monotone working branch
    (phase shift within a quarter turn of the offset) by bracketed
    root-finding; the absolute delay tolerance is far below 1e-21 s.
    """
    if not 0.0 < delta_epsilon < 0.5 * math.pi:
        raise ValueError("delta_epsilon must lie in (0, pi/2)")
    lo = delta_epsilon - 0.5 * math.pi
    hi = delta_epsilon
    icr_lo = _exact_ratio(lo, delta_epsilon)
    if not icr_lo <= icr_value <= 1.0:
        raise OutOfBranchError(
            f"contrast ratio {icr_value} outside the invertible branch "
            f"[{icr_lo}, 1]")

    def gap(phase_shift: float) -> float:
        return _exact_ratio(phase_shift, delta_epsilon) - icr_value

    if icr_value == 1.0:
        shift = hi
    else:
        shift = brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return DelayInversion(
        delay_s=shift / omega0,
        small_angle_delay_s=icr_value * delta_epsilon / (2.0 * omega0),
    )


def mass_from_delay(delta_tau_s: float, params: PressureParams) -> float:
    """Applied mass implied by a delay shift under the pressure model."""
    return (delta_tau_s * params.contact_area_m2 * C_VACUUM
            / (params.stress_optic_per_pa * STANDARD_GRAVITY
               * params.pressed_length_m))


def read(cal: WmCalibration, delta_epsilon: float, delta_tau_s: float,
         packet: SpectralPacket, channel: LoopChannel,
         pressure: PressureParams, noise_sigma: float,
         samples_per_reading: int, rng: np.random.Generator) -> WmReading:
    """One reading of a delay shift at the working offset.

    Each of the offset, disturbed and minimum intensities (drawn in that
    order) is the mean of ``samples_per_reading`` draws with multiplicative
    Gaussian noise, mirroring averaged power readings; ``rng`` is untouched
    when ``noise_sigma`` is zero.  The averaged intensities invert through
    the contrast ratio to the delay shift and the applied mass.
    """
    def measure(value: float) -> float:
        if noise_sigma <= 0.0:
            return value
        draws = value * (1.0 + noise_sigma
                         * rng.standard_normal(samples_per_reading))
        return float(np.mean(draws))

    i1 = measure(offset_intensity(cal, delta_epsilon, packet, channel))
    i_d = measure(disturbed_intensity(cal, delta_epsilon, delta_tau_s,
                                      packet, channel))
    imin = measure(cal.min_intensity_w)
    icr = contrast_ratio(i1, i_d, imin)
    delay = infer_delay(icr, delta_epsilon, packet.omega0).delay_s
    return WmReading(
        offset_intensity_w=i1,
        disturbed_intensity_w=i_d,
        contrast_ratio=icr,
        inferred_delay_s=delay,
        inferred_mass_kg=mass_from_delay(delay, pressure),
    )


def pressure_staircase(masses_kg, pressure: PressureParams,
                       channel: LoopChannel, packet: SpectralPacket,
                       delta_epsilon: float, input_power_w: float,
                       noise_sigma: float = 0.0,
                       samples_per_reading: int = 16,
                       seed: Optional[int] = None,
                       tau0_drift_s: float = 0.0) -> list[WmReading]:
    """Measure a staircase of standing weights, one :func:`read` per step.

    The analyzer is calibrated at ``channel.bias_phase_rad``.  An optional
    slow random walk of the intrinsic delay models polarization drift under
    load, with re-calibration between steps (off by default).
    """
    rng = np.random.default_rng(seed)
    cal = calibrate(channel, packet, channel.bias_phase_rad, input_power_w)
    readings = []
    work_channel = channel
    for mass in masses_kg:
        if tau0_drift_s > 0.0:
            drifted = work_channel.intrinsic_delay_s + abs(
                tau0_drift_s * rng.standard_normal())
            work_channel = replace(work_channel, intrinsic_delay_s=drifted)
            cal = calibrate(work_channel, packet, channel.bias_phase_rad,
                            input_power_w)
        step = replace(pressure, mass_kg=mass)
        readings.append(read(cal, delta_epsilon, pressure_delay(step), packet,
                             work_channel, step, noise_sigma,
                             samples_per_reading, rng))
    return readings
