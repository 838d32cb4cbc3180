"""Continuous-wave perception mode: trace synthesis and null-frequency
localization.

A dynamic disturbance at position ``x`` along a loop of length ``L``
modulates the two counter-propagating waves at times offset by the transit
of the path difference ``L - 2x``.  The resulting nonreciprocal phase makes
the interferometer response vanish at the null frequencies
``f_k = k c / (n (L - 2x))``; reading one null off the spectrum inverts to
the position.  Quasi-static disturbances cancel between the directions and
leave no trace here by construction.

The controller and the CLI share three steps: :func:`sense` grades a
disturbance, :func:`acquire` records it and :func:`locate` turns a record
into a position.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disturbance import (DisturbanceEvent, ImpactParams, PztParams,
                          single_pass_phase)
from .errors import (AliasingError, Checked, ConfigError,
                     HarmonicAmbiguityError, InsufficientDataError,
                     OutOfLoopError, ReciprocalDisturbanceError,
                     UndefinedResolutionError, non_negative, positive)
from .optics import C_VACUUM, LoopChannel

logger = logging.getLogger(__name__)

#: Default continuous-wave input power (W) of the shared source.
DEFAULT_INPUT_POWER_W = 5.645e-3

#: Default relative intensity noise of the source (power fluctuation).
DEFAULT_NOISE_SIGMA = 0.0019

#: Default sample rate able to probe nulls up to 50 kHz with margin.
DEFAULT_SAMPLE_RATE_HZ = 200e3

#: Default instrument frequency resolution (Hz) entering the resolution
#: formula.
DEFAULT_FREQ_RESOLUTION_HZ = 500.0

#: Exclusive upper bound of the seeds drawn for each synthesized trace.
MAX_SEED = 2**31

#: Lowest frequency (Hz) :func:`significance` grades, clear of DC.
_SIGNIFICANCE_MIN_HZ = 50.0


#: Most scan points times sweep samples a sweep may evaluate: about 55
#: times the default 293-point grid of 2000-sample traces.
_MAX_SWEEP_WORK = 32_000_000

#: Samples evaluated at once by :func:`frequency_sweep`: whole grid points,
#: at least one, up to this many samples.
_SWEEP_BLOCK_SAMPLES = 16_000

#: Shortest Welch segment; a sensing trace must hold at least one.
_WELCH_MIN_SEGMENT = 64

#: Most samples a sensing or acquisition trace may hold: 21 s at 200 kHz.
MAX_TRACE_SAMPLES = 2**22


def _sample_count(duration_s: float, sample_rate_hz: float) -> int:
    """Number of samples a trace of ``duration_s`` holds, ``math.inf``
    past the float range."""
    samples = duration_s * sample_rate_hz
    return round(samples) if math.isfinite(samples) else math.inf


@dataclass(frozen=True)
class PerceptionSettings(Checked):
    sample_rate_hz: float = positive(DEFAULT_SAMPLE_RATE_HZ)
    sense_duration_s: float = positive(0.05)
    sweep_duration_s: float = positive(0.01)
    noise_sigma: float = non_negative(DEFAULT_NOISE_SIGMA)
    input_power_w: float = positive(DEFAULT_INPUT_POWER_W)
    bias_phase_rad: float = 0.5 * math.pi
    significance_threshold: float = positive(10.0)
    scan_min_hz: float = positive(2000.0)
    scan_max_hz: float = positive(75000.0)
    scan_step_hz: float = positive(250.0)
    max_harmonics: int = positive(3)
    notch_depth_db: float = positive(10.0)
    freq_resolution_hz: float = positive(DEFAULT_FREQ_RESOLUTION_HZ)
    switch_dead_time_s: float = non_negative(1.0)

    def __post_init__(self):
        super().__post_init__()
        problems = []
        if self.scan_min_hz >= self.scan_max_hz:
            problems.append("scan_min_hz: must be below scan_max_hz")
        else:
            problems += self._scan_grid_problems()
        # A sensing trace is graded on Welch segments; a tone measurement's
        # Hann window has weight from 3 samples on.
        for key, least in (("sense_duration_s", _WELCH_MIN_SEGMENT),
                           ("sweep_duration_s", 3)):
            n = _sample_count(getattr(self, key), self.sample_rate_hz)
            if n < least:
                problems.append(f"{key}: holds {n} samples at sample_rate_hz "
                                f"{self.sample_rate_hz}, fewer than {least}")
        n = _sample_count(self.sense_duration_s, self.sample_rate_hz)
        if n > MAX_TRACE_SAMPLES:
            problems.append(f"sense_duration_s: holds {n} samples at "
                            f"sample_rate_hz {self.sample_rate_hz}, more "
                            f"than {MAX_TRACE_SAMPLES}")
        if problems:
            raise ConfigError(problems)

    def _scan_grid_problems(self) -> list[str]:
        # The length and last value of scan_grid(), found without building
        # it: np.arange fills start + i * ((start + step) - start).
        steps = (self.scan_max_hz + self.scan_step_hz
                 - self.scan_min_hz) / self.scan_step_hz
        points = math.ceil(steps) if math.isfinite(steps) else math.inf
        if points < 3:
            return [f"scan_step_hz: {self.scan_step_hz} leaves {points} scan "
                    f"points from scan_min_hz to scan_max_hz; a sweep needs "
                    f"at least 3"]
        samples = _sample_count(self.sweep_duration_s, self.sample_rate_hz)
        if 3 * samples > _MAX_SWEEP_WORK:
            return [f"sweep_duration_s: {self.sweep_duration_s} holds "
                    f"{samples} samples at sample_rate_hz "
                    f"{self.sample_rate_hz}, so even a 3-point sweep asks "
                    f"for more than {_MAX_SWEEP_WORK} samples in all"]
        if points * samples > _MAX_SWEEP_WORK:
            return [f"scan_step_hz: {self.scan_step_hz} asks for "
                    f"{points:.12g} scan points of {samples} sweep samples "
                    f"each, more than {_MAX_SWEEP_WORK} samples in all"]
        last = self.scan_min_hz + (points - 1) * (
            (self.scan_min_hz + self.scan_step_hz) - self.scan_min_hz)
        if last >= self.sample_rate_hz / 2.0:
            return [f"scan_max_hz: the last scan point {last} Hz is not "
                    f"below half the sample_rate_hz {self.sample_rate_hz}"]
        return []

    def scan_grid(self) -> np.ndarray:
        """Drive frequencies of a sweep: ``scan_min_hz`` onward in steps of
        ``scan_step_hz``, below ``scan_max_hz + scan_step_hz``."""
        return np.arange(self.scan_min_hz,
                         self.scan_max_hz + self.scan_step_hz,
                         self.scan_step_hz)

    def trace_duration_s(self, impact: ImpactParams) -> float:
        """Length of the trace that records a transient: 32 pulse widths
        plus 4 ms, for the spectral notches to resolve, and at least the
        sensing window."""
        return max(self.sense_duration_s, 32.0 * impact.width_s + 4e-3)

    def event_problems(self, event: DisturbanceEvent) -> list[str]:
        """Why this perception cannot record dynamic ``event``, keyed by
        the event parameter: its bandwidth must lie below half the sample
        rate, and a transient's trace may hold at most
        ``MAX_TRACE_SAMPLES`` samples."""
        key = ("frequency_hz" if isinstance(event.params, PztParams)
               else "width_s")
        value = getattr(event.params, key)
        needed_hz = _required_bandwidth_hz(event)
        if _aliases(needed_hz, self.sample_rate_hz):
            return [f"{key}: {value} puts the disturbance band at "
                    f"{needed_hz} Hz, not below half the perception "
                    f"sample_rate_hz {self.sample_rate_hz}"]
        if key == "width_s":
            n = _sample_count(self.trace_duration_s(event.params),
                              self.sample_rate_hz)
            if n > MAX_TRACE_SAMPLES:
                return [f"width_s: {value} asks for a trace of {n} samples "
                        f"at the perception sample_rate_hz "
                        f"{self.sample_rate_hz}, more than "
                        f"{MAX_TRACE_SAMPLES}"]
        return []

    def sense_channel(self, channel: LoopChannel) -> LoopChannel:
        """The loop as perception sees it: biased to the sensing phase."""
        return replace(channel, bias_phase_rad=self.bias_phase_rad)


@dataclass(frozen=True)
class InterferenceTrace(Checked):
    """Uniformly sampled detector intensity with acquisition metadata."""

    sample_rate_hz: float = positive()
    samples: np.ndarray
    input_power_w: float = positive()
    noise_sigma: float = non_negative(0.0)

    def __post_init__(self):
        super().__post_init__()
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate_hz


def _check_sweep_grid(frequencies_hz: np.ndarray) -> None:
    if frequencies_hz.ndim != 1 or frequencies_hz.size < 3:
        raise ValueError("sweep needs a 1-D grid of >= 3 points")
    if np.any(np.diff(frequencies_hz) <= 0):
        raise ValueError("sweep frequencies must be strictly ascending")


@dataclass(frozen=True)
class FrequencySweep:
    """Measured AC amplitude of the interferometer response versus drive
    frequency.

    ``noise_floor_amplitude``, when present, is the tone amplitude measured
    on a disturbance-free reference trace; a sweep whose typical response
    does not stand clear of it carries no localizable structure.
    """

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray
    noise_floor_amplitude: Optional[float] = None

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        a = np.asarray(self.amplitudes, dtype=float)
        if f.shape != a.shape:
            raise ValueError("sweep needs one amplitude per frequency")
        _check_sweep_grid(f)
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "amplitudes", a)


@dataclass(frozen=True)
class NullFrequency:
    """A vanishing point of the nonreciprocal response."""

    frequency_hz: float
    harmonic: int
    depth_db: float

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.harmonic < 1:
            raise ValueError("harmonic must be >= 1")


@dataclass(frozen=True)
class LocalizationReport:
    """Position estimate with its resolution and propagated uncertainty.

    Positions are reported on the near branch (at most half the loop); the
    interferometer cannot distinguish ``x`` from ``L - x``, so the mirror
    position is carried alongside.
    """

    nulls: tuple[NullFrequency, ...]
    position_m: float
    resolution_m: float
    sigma_position_m: Optional[float]
    path_difference_m: float
    mirror_position_m: float


def _delay_lag_s(event: DisturbanceEvent, channel: LoopChannel) -> float:
    dx = channel.length_m - 2.0 * event.position_m
    return channel.refractive_index * dx / C_VACUUM


def nonreciprocal_phase(t, event: DisturbanceEvent, channel: LoopChannel):
    """Differential phase between the two directions, bias excluded.

    The clockwise wave sees the waveform at ``t`` and the counterclockwise
    wave sees it one path-difference transit later, so the net phase is
    ``w(t) - w(t - n (L - 2x) / c)``.  Zero for any constant waveform and
    exactly zero at the loop midpoint.
    """
    lag = _delay_lag_s(event, channel)
    return single_pass_phase(t, event) - single_pass_phase(
        np.asarray(t, dtype=float) - lag, event)


def effective_gpd(t, event: DisturbanceEvent, channel: LoopChannel):
    """Total time-varying global phase difference including the bias.

    Only dynamic disturbances are meaningful here: a quasi-static event
    cancels identically between the two directions and raises instead of
    silently returning the bias.
    """
    if not event.is_dynamic:
        raise ReciprocalDisturbanceError(
            "quasi-static disturbance is reciprocal; its net dynamic phase "
            "is zero by construction")
    return nonreciprocal_phase(t, event, channel) + channel.bias_phase_rad


def _required_bandwidth_hz(event: DisturbanceEvent) -> float:
    if isinstance(event.params, PztParams):
        return event.params.frequency_hz
    if isinstance(event.params, ImpactParams):
        return 0.5 / event.params.width_s
    return 0.0


def _aliases(needed_hz: float, sample_rate_hz: float) -> bool:
    """Whether ``sample_rate_hz`` is too low for a ``needed_hz`` band."""
    return needed_hz > 0 and sample_rate_hz <= 2.0 * needed_hz


def _check_bandwidth(needed_hz: float, sample_rate_hz: float) -> None:
    if _aliases(needed_hz, sample_rate_hz):
        raise AliasingError(
            f"sample rate {sample_rate_hz} Hz cannot represent a "
            f"disturbance extending to {needed_hz} Hz")


def _port_intensity(gpd: np.ndarray, input_power_w: float,
                    noise_sigma: float,
                    seeds: Sequence[Optional[int]]) -> np.ndarray:
    """Reflected-port intensity ``I0 (1 + cos gpd) (1 + sigma z)``.

    ``gpd`` is one trace or a block of rows, one seed each; row ``i``'s
    ``z`` is ``default_rng(seeds[i]).standard_normal``, drawn only when
    ``noise_sigma`` is nonzero.
    """
    intensity = input_power_w * (1.0 + np.cos(gpd))
    if noise_sigma > 0.0:
        z = np.empty_like(intensity)
        for row, seed in zip(z.reshape(-1, z.shape[-1]), seeds):
            np.random.default_rng(seed).standard_normal(out=row)
        intensity = intensity * (1.0 + noise_sigma * z)
    return intensity


def synthesize_trace(event: Optional[DisturbanceEvent], channel: LoopChannel,
                     duration_s: float, sample_rate_hz: float,
                     noise_sigma: float = DEFAULT_NOISE_SIGMA,
                     seed: Optional[int] = None, *,
                     input_power_w: float = DEFAULT_INPUT_POWER_W,
                     start_s: float = 0.0) -> InterferenceTrace:
    """Detector intensity for the reflected port under a disturbance.

    Samples ``I0 * (1 + cos(gpd(t)))`` with multiplicative Gaussian
    intensity noise; deterministic for a given seed.  Quasi-static events
    contribute nothing beyond the bias.  Raises when the sample rate cannot
    cover twice the disturbance bandwidth or the trace would hold no sample.
    """
    if duration_s <= 0 or sample_rate_hz <= 0:
        raise ValueError("duration_s and sample_rate_hz must be positive")
    if event is not None:
        _check_bandwidth(_required_bandwidth_hz(event), sample_rate_hz)
    n = _sample_count(duration_s, sample_rate_hz)
    if n == 0:
        raise InsufficientDataError(
            f"a {duration_s} s trace at {sample_rate_hz} Hz holds no sample")
    t = start_s + np.arange(n) / sample_rate_hz
    if event is not None and event.is_dynamic:
        gpd = effective_gpd(t, event, channel)
    else:
        gpd = np.full(n, channel.bias_phase_rad)
    return InterferenceTrace(
        sample_rate_hz=sample_rate_hz,
        samples=_port_intensity(gpd, input_power_w, noise_sigma, [seed]),
        input_power_w=input_power_w, noise_sigma=noise_sigma)


def ac_amplitude_theory(omega_s_rad_s: float, position_m: float,
                        channel: LoopChannel, delta_d_rad: float,
                        input_power_w: float) -> float:
    """Small-signal cross-interference amplitude at the drive frequency.

    ``|I0 * delta_d * sin(omega_s n (L - 2x) / (2 c))|``: zero whenever the
    half-transit phase hits a multiple of pi, which defines the null
    frequencies.  The synthesized trace carries twice this amplitude (the
    difference of the two direction waveforms contributes a factor 2 that
    this normalized form omits); the null positions are unaffected.
    """
    dx = channel.length_m - 2.0 * position_m
    half_transit = omega_s_rad_s * channel.refractive_index * dx / (2.0 * C_VACUUM)
    return abs(input_power_w * delta_d_rad * math.sin(half_transit))


def _hann(n: int) -> tuple[np.ndarray, float]:
    """Hann window of ``n`` samples and its weight."""
    w = np.hanning(n)
    weight = w.sum()
    if weight == 0.0:
        raise InsufficientDataError(
            f"a {n}-sample trace has no weight under the Hann window")
    return w, weight


def _unit_phasors(omegas: np.ndarray, n: int,
                  sample_rate_hz: float) -> np.ndarray:
    """``exp(1j * omega * k / sample_rate_hz)`` for ``k < n``, one row per
    angular frequency.

    Sample ``k = step * j + r`` is a coarse phasor (every ``step``-th
    sample) times a fine one (the first ``step`` samples), with
    ``step = isqrt(n - 1) + 1``, so a row costs about ``2 sqrt(n)``
    complex exponentials and ``n`` complex multiplies.
    """
    step = math.isqrt(n - 1) + 1
    k = np.arange(step)
    theta = np.asarray(omegas, dtype=float)[:, None] / sample_rate_hz
    fine = np.exp(1j * theta * k)
    coarse = np.exp(1j * theta * (step * k))
    rows = coarse[:, :, None] * fine[:, None, :]
    return rows.reshape(theta.shape[0], step * step)[:, :n]


def _tone_amplitudes(samples: np.ndarray, phasors: np.ndarray,
                     hann: tuple[np.ndarray, float]) -> np.ndarray:
    """Hann-weighted projection of ``samples`` onto each row of
    :func:`_unit_phasors`.

    ``2 |sum(w x e)| / sum(w)`` with ``x`` the samples less their mean;
    ``e`` and its conjugate give the same modulus.  ``samples`` is one
    trace, projected onto every row, or one row per phasor row.
    """
    w, weight = hann
    x = samples - samples.mean(axis=-1, keepdims=True)
    return 2.0 * np.abs(np.sum(w * x * phasors, axis=-1)) / weight


def measure_tone_amplitude(trace: InterferenceTrace,
                           frequency_hz: float) -> float:
    """Amplitude of the trace component at an arbitrary frequency.

    Hann-weighted projection onto the exact tone (not a DFT bin), so there
    is no scalloping bias; the mean is removed first to keep the large DC
    term from leaking.  A trace of two samples has no Hann weight and
    raises :class:`InsufficientDataError`.
    """
    n = trace.samples.size
    hann = _hann(n)
    phasors = _unit_phasors([2.0 * math.pi * frequency_hz], n,
                            trace.sample_rate_hz)
    return float(_tone_amplitudes(trace.samples, phasors, hann)[0])


def frequency_sweep(event: DisturbanceEvent, channel: LoopChannel,
                    frequencies_hz: Sequence[float], *,
                    duration_s: float = 0.01,
                    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
                    noise_sigma: float = DEFAULT_NOISE_SIGMA,
                    input_power_w: float = DEFAULT_INPUT_POWER_W,
                    seed: Optional[int] = None) -> FrequencySweep:
    """Swept-sine response: re-drive the sinusoidal source over a frequency
    grid and record the measured tone amplitude at each point.

    This mirrors the lab procedure of exciting the same position at a
    series of frequencies.  Only sinusoidal (piezo) events can be swept,
    the grid must be strictly ascending with at least 3 points, and every
    point must lie below half the sample rate; all three are checked
    before any trace is synthesized.

    Each point is by definition :func:`synthesize_trace` of the drive
    switched on at 0 s, seeded by the next ``rng.integers(0, MAX_SEED)``,
    then :func:`measure_tone_amplitude` at its frequency; one more seed
    gives the drive-off reference that fixes the noise floor.  The grid is
    evaluated in blocks of whole points of at most ``_SWEEP_BLOCK_SAMPLES``
    samples.  One :func:`_unit_phasors` table per block gives the drive,
    the lagged drive and the tone projection, so the result equals that
    definition to rounding, with the same random stream.
    """
    if not isinstance(event.params, PztParams):
        raise ValueError("frequency sweeps require a sinusoidal drive")
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    _check_sweep_grid(freqs)
    omegas = 2.0 * math.pi * freqs
    for needed_hz in omegas / (2.0 * math.pi):  # each drive's frequency_hz
        _check_bandwidth(float(needed_hz), sample_rate_hz)
    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(0, MAX_SEED)) for _ in freqs]
    # Reference measurement with the drive off fixes the instrument floor.
    quiet = synthesize_trace(
        None, channel, duration_s, sample_rate_hz, noise_sigma,
        seed=int(rng.integers(0, MAX_SEED)), input_power_w=input_power_w)
    n = quiet.samples.size
    lag = _delay_lag_s(event, channel)
    # effective_gpd of the drive switched on at 0 s: the clockwise pass
    # sees it from t = 0, the counterclockwise pass from t = lag.
    on = quiet.times() >= lag
    hann = _hann(n)
    peak = event.params.peak_phase_rad
    rows = max(1, _SWEEP_BLOCK_SAMPLES // n)
    amps = np.empty_like(freqs)
    for lo in range(0, freqs.size, rows):
        omega = omegas[lo:lo + rows]
        e = _unit_phasors(omega, n, sample_rate_hz)
        delayed = (e * np.exp(-1j * omega * lag)[:, None]).imag
        gpd = peak * (e.imag - delayed * on) + channel.bias_phase_rad
        block = _port_intensity(gpd, input_power_w, noise_sigma,
                                seeds[lo:lo + rows])
        amps[lo:lo + rows] = _tone_amplitudes(block, e, hann)
    probes = omegas[:: max(1, freqs.size // 16)]
    floor = float(np.median(_tone_amplitudes(
        quiet.samples, _unit_phasors(probes, n, sample_rate_hz), hann)))
    return FrequencySweep(frequencies_hz=freqs, amplitudes=amps,
                          noise_floor_amplitude=floor)


def acquire(event: DisturbanceEvent, channel: LoopChannel,
            settings: PerceptionSettings,
            seed: Optional[int]) -> Union[FrequencySweep, InterferenceTrace]:
    """Record a dynamic disturbance for null-frequency localization.

    A sinusoidal drive is swept over the scan grid; a transient is captured
    in one trace of :meth:`PerceptionSettings.trace_duration_s` centred on
    its onset.
    Both see the loop through :meth:`PerceptionSettings.sense_channel`.
    """
    sense = settings.sense_channel(channel)
    if isinstance(event.params, PztParams):
        return frequency_sweep(
            event, sense, settings.scan_grid(),
            duration_s=settings.sweep_duration_s,
            sample_rate_hz=settings.sample_rate_hz,
            noise_sigma=settings.noise_sigma,
            input_power_w=settings.input_power_w, seed=seed)
    duration = settings.trace_duration_s(event.params)
    return synthesize_trace(
        event, sense, duration, settings.sample_rate_hz, settings.noise_sigma,
        seed=seed, input_power_w=settings.input_power_w,
        start_s=event.start_s - duration / 2.0)


def _parabolic_vertex(x_left: float, x_mid: float, x_right: float,
                      y_left: float, y_mid: float, y_right: float) -> float:
    """Vertex abscissa of the parabola through three equally spaced points."""
    denom = y_left - 2.0 * y_mid + y_right
    if denom <= 0:
        return x_mid
    shift = 0.5 * (y_left - y_right) / denom
    return x_mid + shift * (x_right - x_mid)


def _harmonic_support(base: float, freqs: list[float],
                      tolerance_hz: float) -> list[int]:
    hits = []
    for i, f in enumerate(freqs):
        k = int(round(f / base))
        if k >= 1 and abs(f - k * base) <= tolerance_hz:
            hits.append(i)
    return hits


def _assign_harmonics(freqs: list[float], depths: list[float], max_k: int,
                      tolerance_hz: float) -> list[NullFrequency]:
    """Assign harmonic indices to candidate nulls.

    A strongly driven loop can show isolated response zeros that are not
    part of the harmonic comb, so the fundamental is chosen by consensus:
    the candidate whose integer multiples explain the most detections wins
    and unexplained candidates are dropped with a diagnostic.  Two
    detections claiming the same index is a genuine ambiguity and raises.
    """
    if not freqs:
        return []
    best = max(range(len(freqs)),
               key=lambda i: (len(_harmonic_support(freqs[i], freqs,
                                                    tolerance_hz)),
                              depths[i]))
    support = _harmonic_support(freqs[best], freqs, tolerance_hz)
    dropped = [f for i, f in enumerate(freqs) if i not in support]
    if dropped:
        logger.info("dropping %d non-harmonic minima (%s Hz) against "
                    "fundamental %.1f Hz", len(dropped),
                    ", ".join(f"{f:.1f}" for f in dropped), freqs[best])
    nulls = []
    seen: dict[int, float] = {}
    for i in support:
        k = int(round(freqs[i] / freqs[best]))
        if k in seen:
            raise HarmonicAmbiguityError(
                f"nulls at {seen[k]:.1f} Hz and {freqs[i]:.1f} Hz both map "
                f"to harmonic index {k}")
        seen[k] = freqs[i]
        if k <= max_k:
            nulls.append(NullFrequency(frequency_hz=freqs[i], harmonic=k,
                                       depth_db=depths[i]))
    if not nulls:
        raise HarmonicAmbiguityError(
            f"no consistent harmonic assignment within the first {max_k} "
            "indices")
    return nulls


def _local_minima(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Indices ``i`` in ``range(start, stop)``, ``start >= 1`` and ``stop <
    values.size``, where ``values[i] <= values[i - 1]`` and ``values[i] <
    values[i + 1]``: a plateau's minimum is its last point."""
    stop = max(start, stop)
    mid = values[start:stop]
    return start + np.flatnonzero((mid <= values[start - 1:stop - 1])
                                  & (mid < values[start + 1:stop + 1]))


def _nulls_from_sweep(sweep: FrequencySweep, max_k: int,
                      depth_threshold_db: float) -> list[NullFrequency]:
    power = sweep.amplitudes ** 2
    freqs = sweep.frequencies_hz
    reference = np.median(power)
    if sweep.noise_floor_amplitude is not None:
        floor = sweep.noise_floor_amplitude ** 2
        if reference < 10.0 ** (depth_threshold_db / 10.0) * floor:
            logger.info("sweep response sits at the instrument noise floor; "
                        "no localizable structure")
            return []
    found_f: list[float] = []
    found_d: list[float] = []
    for i in _local_minima(power, 1, power.size - 1):
        depth_db = 10.0 * math.log10(reference / power[i]) if power[i] > 0 \
            else depth_threshold_db
        if depth_db < depth_threshold_db:
            continue
        found_f.append(float(_parabolic_vertex(
            freqs[i - 1], freqs[i], freqs[i + 1],
            power[i - 1], power[i], power[i + 1])))
        found_d.append(float(depth_db))
    if not found_f:
        logger.info("no sweep minimum reaches %.1f dB below the median "
                    "response", depth_threshold_db)
        return []
    spacing = float(np.median(np.diff(freqs)))
    return _assign_harmonics(found_f, found_d, max_k,
                             tolerance_hz=2.0 * spacing)


#: Number of 50 %-overlapping Hann segments in the averaged spectrum.
_WELCH_SEGMENTS = 8


def _welch_psd(trace: InterferenceTrace) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-windowed power spectrum of a trace (Welch's method).

    Segments overlap by half and each loses its mean; the periodic Hann
    window weighs them, and the one-sided density (``1 / (fs sum w^2)``,
    every bin but DC and an even segment's Nyquist bin doubled) is averaged
    over the segments.  A one-sample segment takes the window ``[1]``.
    """
    n, fs = trace.samples.size, trace.sample_rate_hz
    nperseg = max(_WELCH_MIN_SEGMENT,
                  2 ** int(math.log2(2 * n / (_WELCH_SEGMENTS + 1))))
    nperseg = min(nperseg, n)
    segments = sliding_window_view(trace.samples, nperseg)[
        ::nperseg - nperseg // 2]
    segments = segments - segments.mean(axis=1, keepdims=True)
    w = (0.5 - 0.5 * np.cos(2.0 * math.pi / nperseg * np.arange(nperseg))
         if nperseg > 1 else np.ones(1))
    spectra = np.fft.rfft(w * segments, axis=1)
    psd = (spectra.real ** 2 + spectra.imag ** 2) / (fs * np.sum(w * w))
    psd[:, 1:(nperseg + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd.mean(axis=0)


def _local_medians(psd: np.ndarray, centres: np.ndarray, lo: int,
                   half_window: int) -> np.ndarray:
    """Median of ``psd[max(lo, i - half_window):i + half_window + 1]`` for
    each centre ``i``: whole windows in one call, the few cut off by ``lo``
    or by the end of the spectrum one at a time."""
    medians = np.empty(centres.size)
    whole = ((centres - half_window >= lo)
             & (centres + half_window < psd.size))
    if whole.any():
        windows = sliding_window_view(psd, 2 * half_window + 1)
        medians[whole] = np.median(windows[centres[whole] - half_window],
                                   axis=1)
    for j in np.flatnonzero(~whole):
        i = centres[j]
        medians[j] = np.median(psd[max(lo, i - half_window):
                                   i + half_window + 1])
    return medians


def _nulls_from_trace(trace: InterferenceTrace, max_k: int,
                      depth_threshold_db: float) -> list[NullFrequency]:
    freqs, psd = _welch_psd(trace)
    # Skip DC and window-leakage bins.
    lo = 3
    log_psd = np.full_like(psd, -np.inf)
    positive = psd > 0
    log_psd[positive] = np.log10(psd[positive])
    half_window = max(5, psd.size // 64)
    minima = _local_minima(psd, lo + 1, psd.size - 2)
    medians = _local_medians(psd, minima, lo, half_window)
    usable = (psd[minima] > 0) & (medians > 0)
    minima = minima[usable]
    ratios = medians[usable] / psd[minima]
    found_f: list[float] = []
    found_d: list[float] = []
    for i, ratio in zip(minima.tolist(), ratios.tolist()):
        depth_db = 10.0 * math.log10(ratio)
        if depth_db < depth_threshold_db:
            continue
        found_f.append(float(_parabolic_vertex(
            freqs[i - 1], freqs[i], freqs[i + 1],
            log_psd[i - 1], log_psd[i], log_psd[i + 1])))
        found_d.append(depth_db)
    if not found_f:
        logger.info("no spectral notch reaches %.1f dB below the local "
                    "median", depth_threshold_db)
        return []
    bin_hz = freqs[1] - freqs[0]
    return _assign_harmonics(found_f, found_d, max_k,
                             tolerance_hz=2.0 * bin_hz)


def find_null_frequencies(data: Union[InterferenceTrace, FrequencySweep],
                          max_k: int = 3, *,
                          depth_threshold_db: float = 10.0,
                          ) -> list[NullFrequency]:
    """Locate nulls of the nonreciprocal response.

    Two strategies, chosen by input type: swept-sine tables are searched
    for amplitude minima refined by a three-point parabola on the squared
    amplitude; broadband traces go through an averaged Hann-windowed
    spectrum (eight 50 %-overlapping segments) with notches taken as local
    minima at least ``depth_threshold_db`` below the local median and
    refined on the log magnitude.  Returns ascending nulls with harmonic
    indices 1..max_k; an empty list (with a logged diagnostic) when nothing
    reaches the threshold.
    """
    if isinstance(data, FrequencySweep):
        return _nulls_from_sweep(data, max_k, depth_threshold_db)
    if isinstance(data, InterferenceTrace):
        return _nulls_from_trace(data, max_k, depth_threshold_db)
    raise TypeError(f"cannot search for nulls in {type(data)!r}")


def localize(null: NullFrequency, channel: LoopChannel) -> float:
    """Position along the loop implied by a null frequency.

    ``x = (L - k c / (n f)) / 2`` on the near branch.  Frequencies below
    ``k c / (n L)`` would place the event outside the loop and raise.
    """
    floor_hz = null.harmonic * C_VACUUM / (channel.refractive_index
                                           * channel.length_m)
    if null.frequency_hz < floor_hz:
        raise OutOfLoopError(
            f"null at {null.frequency_hz:.1f} Hz (k={null.harmonic}) lies "
            f"below the in-loop floor {floor_hz:.1f} Hz")
    return float(0.5 * (channel.length_m
                        - null.harmonic * C_VACUUM
                        / (channel.refractive_index * null.frequency_hz)))


def resolution(null: NullFrequency, channel: LoopChannel,
               delta_f_hz: float = DEFAULT_FREQ_RESOLUTION_HZ) -> float:
    """Position resolution set by the instrument frequency resolution.

    ``R = (k c / n) |df / (f^2 - df^2)|``, which is algebraically the
    position span swept as the measured frequency moves across ``+-df``.
    """
    if null.frequency_hz <= delta_f_hz:
        raise UndefinedResolutionError(
            f"null frequency {null.frequency_hz} Hz is not above the "
            f"frequency resolution {delta_f_hz} Hz")
    k = null.harmonic
    f = null.frequency_hz
    return (k * C_VACUUM / channel.refractive_index) * abs(
        delta_f_hz / (f * f - delta_f_hz * delta_f_hz))


def localization_error(f_samples_hz: Sequence[float], harmonic: int,
                       channel: LoopChannel) -> float:
    """Propagated position uncertainty from repeated frequency readings.

    The frequency scatter (sample standard deviation) maps through the
    local slope ``|dx/df| = k c / (2 n f^2)`` at the sample mean.
    """
    samples = np.asarray(list(f_samples_hz), dtype=float)
    if samples.size < 2:
        raise InsufficientDataError(
            "error propagation needs at least two frequency samples")
    mean = float(samples.mean())
    sigma_f = float(samples.std(ddof=1))
    slope = harmonic * C_VACUUM / (2.0 * channel.refractive_index * mean * mean)
    return slope * sigma_f


def localization_report(nulls: Sequence[NullFrequency],
                        channel: LoopChannel,
                        delta_f_hz: float = DEFAULT_FREQ_RESOLUTION_HZ,
                        ) -> LocalizationReport:
    """Assemble the full report from a set of detected nulls.

    The position comes from the lowest harmonic; when several harmonics
    were caught, their fundamental-equivalent frequencies feed the
    propagated uncertainty.
    """
    if not nulls:
        raise InsufficientDataError("no nulls to localize from")
    ordered = sorted(nulls, key=lambda nf: nf.harmonic)
    first = ordered[0]
    x = localize(first, channel)
    fundamentals = [nf.frequency_hz / nf.harmonic for nf in ordered]
    sigma = None
    if len(fundamentals) >= 2:
        sigma = localization_error(fundamentals, 1, channel)
    return LocalizationReport(
        nulls=tuple(ordered),
        position_m=x,
        resolution_m=resolution(first, channel, delta_f_hz),
        sigma_position_m=sigma,
        path_difference_m=channel.length_m - 2.0 * x,
        mirror_position_m=channel.length_m - x,
    )


def significance(trace: InterferenceTrace) -> tuple[float, float]:
    """Strongest AC component against the noise floor.

    Returns ``(candidate_frequency_hz, peak_to_floor_ratio)`` over the
    spectrum from ``_SIGNIFICANCE_MIN_HZ`` up, where the floor is the median
    spectral power there.
    """
    freqs, psd = _welch_psd(trace)
    band = freqs >= _SIGNIFICANCE_MIN_HZ
    if not np.any(band):
        raise InsufficientDataError("trace too short for a spectral estimate")
    floor = float(np.median(psd[band]))
    idx = int(np.argmax(psd[band]))
    candidate = float(freqs[band][idx])
    peak = float(psd[band][idx])
    ratio = peak / floor if floor > 0 else math.inf
    return candidate, ratio


def sense(event: Optional[DisturbanceEvent], channel: LoopChannel,
          settings: PerceptionSettings, seed: Optional[int],
          at_s: float) -> tuple[InterferenceTrace, dict]:
    """Take the sensing trace at ``at_s`` and grade it.

    The window of a transient is centred on its onset instead.  Returns the
    trace and its :func:`significance` as ``candidate_frequency_hz`` and
    ``peak_to_floor``.
    """
    if event is not None and isinstance(event.params, ImpactParams):
        at_s = event.start_s - 0.5 * settings.sense_duration_s
    trace = synthesize_trace(
        event, settings.sense_channel(channel), settings.sense_duration_s,
        settings.sample_rate_hz, settings.noise_sigma, seed=seed,
        input_power_w=settings.input_power_w, start_s=at_s)
    candidate, ratio = significance(trace)
    return trace, {"candidate_frequency_hz": candidate,
                   "peak_to_floor": ratio}


def locate(data: Union[FrequencySweep, InterferenceTrace],
           channel: LoopChannel,
           settings: PerceptionSettings) -> Optional[LocalizationReport]:
    """Null search and localization report, or ``None`` without a null."""
    nulls = find_null_frequencies(data, settings.max_harmonics,
                                  depth_threshold_db=settings.notch_depth_db)
    if not nulls:
        return None
    return localization_report(nulls, channel, settings.freq_resolution_hz)
