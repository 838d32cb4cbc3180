"""Independent reference computations used to pin expected test values.

These deliberately avoid the closed forms under test: the port probability
oracle integrates the spectral density numerically, and the Taylor bound
evaluates position differences directly.  The swept-sine oracle is the
point-by-point definition that the block evaluation must equal bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from sagnacsim.disturbance import DisturbanceEvent, PztParams
from sagnacsim.perception import (DEFAULT_INPUT_POWER_W, DEFAULT_NOISE_SIGMA,
                                  DEFAULT_SAMPLE_RATE_HZ, FrequencySweep,
                                  measure_tone_amplitude, synthesize_trace)

C = 299792458.0


def spectral_port_probability(delta_bias: float, omega0: float, sigma: float,
                              tau: float, epsilon: float,
                              n_points: int = 100_001) -> float:
    """Reflected-port probability by quadrature over the spectral density.

    The packet amplitude is Gaussian around ``omega0`` with amplitude width
    ``sigma`` (density width ``sigma / sqrt(2)``); each spectral component
    passes the nearly orthogonal analyzer with amplitude
    ``sin(omega tau - epsilon)``, the destructive-at-null convention.  The
    path interference contributes ``(1 + cos(delta_bias)) / 2``.
    """
    if sigma == 0.0:
        weight_mean = math.sin(omega0 * tau - epsilon) ** 2
    else:
        omega = np.linspace(omega0 - 8.0 * sigma, omega0 + 8.0 * sigma,
                            n_points)
        density = np.exp(-((omega - omega0) / sigma) ** 2)
        weighted = density * np.sin(omega * tau - epsilon) ** 2
        weight_mean = np.trapezoid(weighted, omega) / np.trapezoid(density,
                                                                   omega)
    return 0.5 * (1.0 + math.cos(delta_bias)) * float(weight_mean)


def position_from_null(f_hz: float, k: int, length_m: float,
                       index: float) -> float:
    return 0.5 * (length_m - k * C / (index * f_hz))


def two_sided_position_span(f_hz: float, k: int, length_m: float,
                            index: float, delta_f_hz: float) -> float:
    """|x(f - df) - x(f + df)|, the direct position span across the
    frequency resolution."""
    return abs(position_from_null(f_hz - delta_f_hz, k, length_m, index)
               - position_from_null(f_hz + delta_f_hz, k, length_m, index))


def first_order_span(f_hz: float, k: int, index: float,
                     delta_f_hz: float) -> float:
    """First-order Taylor estimate of the same span: 2 |dx/df| df."""
    slope = k * C / (2.0 * index * f_hz * f_hz)
    return 2.0 * slope * delta_f_hz


def exact_contrast_ratio(delta_tau: float, delta_epsilon: float,
                         omega0: float) -> float:
    shift = omega0 * delta_tau
    return (math.cos(2.0 * delta_epsilon - 2.0 * shift)
            - math.cos(2.0 * delta_epsilon)) / (
                1.0 - math.cos(2.0 * delta_epsilon))


def ac_power_at(trace, frequency_hz: float) -> float:
    """Mean-square power of the tone at ``frequency_hz``."""
    amp = measure_tone_amplitude(trace, frequency_hz)
    return 0.5 * amp * amp


def point_by_point_sweep(event, channel, frequencies_hz, *,
                         duration_s=0.01,
                         sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
                         noise_sigma=DEFAULT_NOISE_SIGMA,
                         input_power_w=DEFAULT_INPUT_POWER_W,
                         seed=None) -> FrequencySweep:
    """Swept-sine response one grid point at a time: a fresh drive event,
    trace and tone measurement per frequency, then the drive-off floor."""
    if not isinstance(event.params, PztParams):
        raise ValueError("frequency sweeps require a sinusoidal drive")
    rng = np.random.default_rng(seed)
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    amps = np.empty_like(freqs)
    for i, f in enumerate(freqs):
        drive = replace(event.params,
                        angular_frequency_rad_s=2.0 * math.pi * f)
        point = DisturbanceEvent(params=drive, position_m=event.position_m,
                                 start_s=0.0)
        trace = synthesize_trace(
            point, channel, duration_s, sample_rate_hz, noise_sigma,
            seed=int(rng.integers(0, 2**31)), input_power_w=input_power_w)
        amps[i] = measure_tone_amplitude(trace, f)
    quiet = synthesize_trace(
        None, channel, duration_s, sample_rate_hz, noise_sigma,
        seed=int(rng.integers(0, 2**31)), input_power_w=input_power_w)
    probes = freqs[:: max(1, freqs.size // 16)]
    floor = float(np.median([measure_tone_amplitude(quiet, f)
                             for f in probes]))
    return FrequencySweep(frequencies_hz=freqs, amplitudes=amps,
                          noise_floor_amplitude=floor)
