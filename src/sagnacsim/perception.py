"""Continuous-wave perception mode: trace synthesis and null-frequency
localization.

A dynamic disturbance at position ``x`` along a loop of length ``L``
modulates the two counter-propagating waves at times offset by the transit
of the path difference ``L - 2x``.  The resulting nonreciprocal phase makes
the interferometer response vanish at the null frequencies
``f_k = k c / (n (L - 2x))``; reading one null off the spectrum inverts to
the position.  Quasi-static disturbances cancel between the directions and
leave no trace here by construction.

Key windows and sensing traces read the one phase of all events,
:func:`loop_phase`; a key window takes its means over the window,
:func:`window_phase_means`.  The controller and the CLI share three steps:
:func:`sense` grades the loop from a given time on, :func:`acquire` records
one event and :func:`locate` turns a record into a position.

What a sweep or a Welch spectrum needs of no event, seed or sample, its
windows and probes, is computed once per configuration by
:func:`_sweep_plan` and :func:`_welch_plan` and shared read-only; only the
drive's own series are taken per sweep, and kept per run by the caller's
``responses`` memo.
"""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disturbance import (DisturbanceEvent, ImpactParams, PztParams,
                          single_pass_phase)
from .errors import (AliasingError, Checked, ConfigError,
                     HarmonicAmbiguityError, InsufficientDataError,
                     OutOfLoopError, UndefinedResolutionError, bounded,
                     non_negative, positive)
from .optics import C_VACUUM, LoopChannel

logger = logging.getLogger(__name__)

#: Default continuous-wave input power (W) of the shared source.
DEFAULT_INPUT_POWER_W = 5.645e-3

#: Default relative intensity noise of the source (power fluctuation).
DEFAULT_NOISE_SIGMA = 0.0019

#: Largest input power (W) and relative intensity noise perception may
#: assume, some 2e8 and 5e5 times the defaults.  Together they keep the
#: samples of a trace near 1e10 W at most, so the squares that Welch
#: spectra and sweeps take of sums over millions of samples stay far inside
#: the float range.
MAX_INPUT_POWER_W = 1e6
MAX_NOISE_SIGMA = 1e3

#: Default sample rate able to probe nulls up to 50 kHz with margin.
DEFAULT_SAMPLE_RATE_HZ = 200e3

#: Default instrument frequency resolution (Hz) entering the resolution
#: formula.
DEFAULT_FREQ_RESOLUTION_HZ = 500.0

#: Exclusive upper bound of the seeds drawn for each synthesized trace.
MAX_SEED = 2**31

#: Lowest frequency (Hz) :func:`significance` grades, clear of DC.
_SIGNIFICANCE_MIN_HZ = 50.0

#: Deepest notch (dB) a null search may ask for: a power ratio of 1e300.
#: From about 3083 dB on the ratio leaves the float range.
MAX_NOTCH_DEPTH_DB = 3000.0


#: Most scan points times sweep samples a sweep may evaluate: about 55
#: times the default 293-point grid of 2000-sample traces.  It bounds the
#: scan points times the Fourier orders of a drive's sweep series too.
_MAX_SWEEP_WORK = 32_000_000

#: Most elements a block of rows may hold, whole rows and at least one:
#: grid points of :func:`_sweep_response` and harmonics of
#: :func:`_drive_means`, each its Fourier orders.
_BLOCK_ELEMENTS = 16_000

#: Natural log of the Bessel bound below which a drive series drops a
#: Fourier order: ``2**-60``, far below rounding.
_LOG_NEGLIGIBLE = -60.0 * math.log(2.0)

#: Shortest Welch segment; a sensing trace must hold at least one.
_WELCH_MIN_SEGMENT = 64

#: Most samples a sensing or acquisition trace may hold: 21 s at 200 kHz.
MAX_TRACE_SAMPLES = 2**22

#: Most loop-phase samples a key window averages, and most Fourier orders
#: ``2M + 1`` of its closed-form means; a sweep's series takes ``M`` up to
#: ``_PHASE_SAMPLES // 2`` (:func:`_sweep_orders`).
_PHASE_SAMPLES = 2**16


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
    noise_sigma: float = bounded(lambda v: 0.0 <= v <= MAX_NOISE_SIGMA,
                                 f"within [0, {MAX_NOISE_SIGMA}]",
                                 DEFAULT_NOISE_SIGMA)
    input_power_w: float = bounded(lambda v: 0.0 < v <= MAX_INPUT_POWER_W,
                                   f"within (0, {MAX_INPUT_POWER_W}]",
                                   DEFAULT_INPUT_POWER_W)
    bias_phase_rad: float = 0.5 * math.pi
    significance_threshold: float = positive(10.0)
    scan_min_hz: float = positive(2000.0)
    scan_max_hz: float = positive(75000.0)
    scan_step_hz: float = positive(250.0)
    max_harmonics: int = positive(3)
    notch_depth_db: float = bounded(
        lambda v: 0.0 < v <= MAX_NOTCH_DEPTH_DB,
        f"within (0, {MAX_NOTCH_DEPTH_DB}]", 10.0)
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

    def _scan_points(self) -> int:
        """Length of :meth:`scan_grid`, found without building it,
        ``math.inf`` past the float range."""
        steps = (self.scan_max_hz + self.scan_step_hz
                 - self.scan_min_hz) / self.scan_step_hz
        return math.ceil(steps) if math.isfinite(steps) else math.inf

    def _scan_grid_problems(self) -> list[str]:
        # The last value of scan_grid(), found without building it:
        # np.arange fills start + i * ((start + step) - start).
        points = self._scan_points()
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
        if _band_aliases(last, self.sample_rate_hz):
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
        the parameter that sets its band, ``_BAND``: the band must pass
        :func:`_band_aliases` at the sample rate, and a transient's trace
        may hold at most ``MAX_TRACE_SAMPLES`` samples.  A drive must pass
        :func:`_strong_drive_problem` over the scan grid, a problem of its
        gain key."""
        key, band = event.params._BAND, event.params.band_hz
        value = getattr(event.params, key)
        if _band_aliases(band, self.sample_rate_hz):
            return [f"{key}: {value} puts the disturbance band at {band} "
                    f"Hz, not below half the perception sample_rate_hz "
                    f"{self.sample_rate_hz}"]
        if isinstance(event.params, PztParams):
            problem = _strong_drive_problem(event.params, self._scan_points())
            return [problem] if problem else []
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


def _check_sweep_grid(frequencies_hz: np.ndarray) -> None:
    if frequencies_hz.ndim != 1 or frequencies_hz.size < 3:
        raise ValueError("sweep needs a 1-D grid of >= 3 points")
    # A comparison with NaN is false, so a NaN point fails one of these.
    if not frequencies_hz[0] > 0:
        raise ValueError("sweep frequencies must be positive")
    if not np.all(np.diff(frequencies_hz) > 0):
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


def loop_phase(t, events: Sequence[DisturbanceEvent], channel: LoopChannel):
    """The loop's nonreciprocal phase at ``t``, bias excluded: the sum of
    :func:`nonreciprocal_phase` over the dynamic ``events``, exactly zero
    without one."""
    return sum((nonreciprocal_phase(t, ev, channel) for ev in events
                if ev.is_dynamic), np.zeros_like(np.asarray(t, dtype=float)))


def events_reaching(events: Sequence[DisturbanceEvent], t0: float, t1: float,
                    channel: LoopChannel) -> tuple[DisturbanceEvent, ...]:
    """The dynamic ``events`` whose phase can be nonzero in ``[t0, t1]``:
    from ``start - reach + min(0, lag)`` to ``start + reach + max(0,
    lag)``, with an impact's :attr:`ImpactParams.reach_s` (a drive: 0
    before, no bound after) and ``lag`` the counterclockwise copy's delay
    ``n (L - 2x) / c``."""
    out = []
    for ev in events:
        lag = _delay_lag_s(ev, channel)
        below, above = ((ev.params.reach_s,) * 2 if isinstance(
            ev.params, ImpactParams) else (0.0, math.inf))
        if (ev.is_dynamic and ev.start_s - below + min(0.0, lag) <= t1
                and t0 <= ev.start_s + above + max(0.0, lag)):
            out.append(ev)
    return tuple(out)


def _bessel_orders(z: float, most: int) -> int:
    """The first order ``m`` whose bound ``(z / 2)**m / m!`` on ``|J_m(z)|``
    is below ``2**-60``, by bisection: the bound rises from 1 up to ``m =
    z / 2`` and falls after it, so every higher order is below too.
    ``most + 1`` when no order up to ``most`` is below."""
    log_half = math.log(0.5 * z) if z > 0.0 else -math.inf
    return bisect.bisect_left(
        range(most + 1), True,
        key=lambda m: m * log_half - math.lgamma(m + 1.0) < _LOG_NEGLIGIBLE)


def _drive_series(f, amplitudes, orders: int, phases=0.0) -> np.ndarray:
    """Fourier orders ``-orders .. orders`` in ``t`` of ``f(A cos(t +
    phi))``, along the last axis, for amplitudes ``A`` and phases ``phi``
    broadcast together.  ``f`` maps the array of ``A cos(t + phi)`` to a
    stack of real arrays of its shape, and the stack's axis leads the
    result.

    One real FFT at ``1 << (2 orders + 1).bit_length()`` equally spaced
    ``t`` gives them, exact but for the higher orders that fold onto them,
    which :func:`_bessel_orders` bounds.
    """
    nodes = 1 << (2 * orders + 1).bit_length()
    t = (2.0 * math.pi / nodes) * np.arange(nodes)
    x = np.expand_dims(amplitudes, -1) * np.cos(np.add.outer(phases, t))
    coefs = np.fft.rfft(f(x), axis=-1)[..., :orders + 1] / nodes
    return np.concatenate([coefs[..., orders:0:-1].conj(), coefs], axis=-1)


def _drive_pieces(event: DisturbanceEvent, channel: LoopChannel, t0: float,
                  window_s: float) -> list[tuple[float, float, float, float]]:
    """The parts of ``[t0, t0 + window_s)`` where a drive's net phase is a
    nonzero ``A cos(theta)``, ``theta`` linear in time, each as (share of
    the window, ``A``, ``theta`` at its middle, the span of ``theta``).

    From the onset ``s`` one copy runs alone until the other starts at
    ``s + lag`` (for a negative lag the late copy starts first, at
    ``s + lag``); after that the net phase is ``B cos(omega (t - s) -
    omega lag / 2)`` with ``B = 2 peak sin(omega lag / 2)``.  Before both
    it is 0.
    """
    params, s = event.params, event.start_s
    omega, peak = params.angular_frequency_rad_s, params.peak_phase_rad
    lag = _delay_lag_s(event, channel)
    both = s + max(0.0, lag)
    # (from, to, A, theta - omega (t - s))
    spans = ((s + min(0.0, lag), both, peak,
              -0.5 * math.pi if lag > 0.0 else 0.5 * math.pi - omega * lag),
             (both, math.inf, 2.0 * peak * math.sin(0.5 * omega * lag),
              -0.5 * omega * lag))
    pieces = []
    for lo, hi, amplitude, phase in spans:
        lo, hi = max(lo, t0), min(hi, t0 + window_s)
        if hi > lo and amplitude != 0.0:
            pieces.append(((hi - lo) / window_s, amplitude,
                           omega * (0.5 * (lo + hi) - s) + phase,
                           omega * (hi - lo)))
    return pieces


def _drive_means(pieces: list[tuple[float, float, float, float]],
                 kept: list[int], n: int) -> np.ndarray:
    """Window means of ``exp(1j k A cos(theta))``, k = 1 .. n, over
    :func:`_drive_pieces`, 1 elsewhere in the window: each piece adds its
    share of ``sum_m i**m J_m(k A)`` (Jacobi–Anger, Abramowitz & Stegun
    9.1.42–45) times its mean of ``exp(i m theta)``, a ``sinc`` of its
    span.  :func:`_drive_series` gives the coefficients as those of ``cos``
    plus ``i`` those of ``sin``, over the orders ``-M .. M`` with ``M``
    the piece's entry of ``kept``, :func:`_bessel_orders` of its ``n A``."""
    means = np.ones(n, dtype=complex)
    k = np.arange(1, n + 1)
    for (share, amplitude, theta, span), orders in zip(pieces, kept):
        m = np.arange(-orders, orders + 1)
        piece = np.exp(1j * m * theta) * np.sinc(m * span / (2.0 * math.pi))
        rows = max(1, _BLOCK_ELEMENTS // (2 * orders + 1))
        for lo in range(0, n, rows):
            cos, sin = _drive_series(lambda x: (np.cos(x), np.sin(x)),
                                     amplitude * k[lo:lo + rows], orders)
            means[lo:lo + rows] += share * ((cos + 1j * sin) @ piece - 1.0)
    return means


def window_phase_means(events: Sequence[DisturbanceEvent],
                       channel: LoopChannel, t0: float, window_s: float,
                       n_pulses: int, n: int) -> np.ndarray:
    """Mean of ``exp(1j k loop_phase(t))`` over the key window
    ``[t0, t0 + window_s)`` for k = 1 .. n.

    A window that only one drive reaches takes the means in closed form
    (:func:`_drive_means`), unless its ``n A`` needs more than
    ``_PHASE_SAMPLES`` Fourier orders ``-M .. M``.  Any other window
    averages the phase at ``min(n_pulses, _PHASE_SAMPLES)`` equally spaced
    midpoints, the pulse times when there are no more pulses than that.
    """
    if len(events) == 1 and isinstance(events[0].params, PztParams):
        pieces = _drive_pieces(events[0], channel, t0, window_s)
        orders = [_bessel_orders(n * abs(amplitude), _PHASE_SAMPLES // 2)
                  for _, amplitude, _, _ in pieces]
        if all(2 * m + 1 <= _PHASE_SAMPLES for m in orders):
            return _drive_means(pieces, orders, n)
    samples = min(n_pulses, _PHASE_SAMPLES)
    return _harmonic_means(loop_phase(
        t0 + (np.arange(samples) + 0.5) * (window_s / samples), events,
        channel), n)


def _harmonic_means(phases: np.ndarray, n: int) -> np.ndarray:
    """``mean(exp(1j * k * phases))`` for k = 1 .. n."""
    step = np.exp(1j * phases)
    power = step.copy()
    means = np.empty(n, dtype=complex)
    for k in range(n):
        means[k] = power.mean()
        power *= step
    return means


def _band_aliases(needed_hz: float, sample_rate_hz: float) -> bool:
    """Whether ``sample_rate_hz`` is too low for a band reaching
    ``needed_hz``: the one Nyquist rule of perception, for a dynamic
    event's ``band_hz`` and a scan grid's last point alike, exact at half
    the sample rate."""
    return needed_hz > 0 and sample_rate_hz <= 2.0 * needed_hz


def _aliasing_error(needed_hz: float, sample_rate_hz: float) -> AliasingError:
    return AliasingError(f"sample rate {sample_rate_hz} Hz cannot represent a "
                         f"disturbance extending to {needed_hz} Hz")


def _port_intensity(gpd, input_power_w: float):
    """Noise-free reflected-port intensity ``I0 (1 + cos gpd)``."""
    return input_power_w * (1.0 + np.cos(gpd))


def synthesize_trace(events: Sequence[DisturbanceEvent], channel: LoopChannel,
                     duration_s: float, sample_rate_hz: float,
                     noise_sigma: float = DEFAULT_NOISE_SIGMA,
                     seed: Optional[int] = None, *,
                     input_power_w: float = DEFAULT_INPUT_POWER_W,
                     start_s: float = 0.0) -> InterferenceTrace:
    """Reflected-port intensity from ``start_s`` on under ``events``.

    Samples ``I0 * (1 + cos(bias + loop_phase(t)))`` times ``1 + sigma z``,
    with ``z`` the ``standard_normal`` draw of ``default_rng(seed)`` (none
    when ``sigma`` is 0), so a given seed gives the same trace.  The port
    formula of a trace no event reaches (:func:`events_reaching`) is
    evaluated once.  Raises when the sample rate cannot cover twice the
    bandwidth of any event or the trace would hold no sample.
    """
    if duration_s <= 0 or sample_rate_hz <= 0:
        raise ValueError("duration_s and sample_rate_hz must be positive")
    for ev in events:
        if ev.is_dynamic and _band_aliases(ev.params.band_hz, sample_rate_hz):
            raise _aliasing_error(ev.params.band_hz, sample_rate_hz)
    n = _sample_count(duration_s, sample_rate_hz)
    if n == 0:
        raise InsufficientDataError(
            f"a {duration_s} s trace at {sample_rate_hz} Hz holds no sample")
    reaching = events_reaching(events, start_s,
                               start_s + n / sample_rate_hz, channel)
    if reaching:
        t = start_s + np.arange(n) / sample_rate_hz
        samples = _port_intensity(
            loop_phase(t, reaching, channel) + channel.bias_phase_rad,
            input_power_w)
    else:
        samples = np.full(n, _port_intensity(channel.bias_phase_rad,
                                             input_power_w))
    if noise_sigma > 0.0:
        z = np.random.default_rng(seed).standard_normal(n)
        samples = samples * (1.0 + noise_sigma * z)
    return InterferenceTrace(
        sample_rate_hz=sample_rate_hz, samples=samples,
        input_power_w=input_power_w, noise_sigma=noise_sigma)


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


def _tone_amplitudes(samples: np.ndarray, probes: np.ndarray,
                     weight: float) -> np.ndarray:
    """``2 |sum(w e (x - mean x))| / sum(w)`` of ``samples`` ``x`` for
    each row ``w e`` of ``probes``, ``e`` a :func:`_unit_phasors` row."""
    # numpy's own loop, not BLAS: threaded OpenBLAS ran this zgemv in ms.
    return 2.0 * np.abs(np.einsum("ij,j->i", probes,
                                  samples - samples.mean())) / weight


def measure_tone_amplitude(trace: InterferenceTrace,
                           frequency_hz: float) -> float:
    """Amplitude of the trace component at an arbitrary frequency.

    Hann-weighted projection onto the exact tone (not a DFT bin), so there
    is no scalloping bias; the mean is removed first to keep the large DC
    term from leaking.  A trace of two samples has no Hann weight and
    raises :class:`InsufficientDataError`.
    """
    n = trace.samples.size
    w, weight = _hann(n)
    probe = w * _unit_phasors([2.0 * math.pi * frequency_hz], n,
                              trace.sample_rate_hz)
    return float(_tone_amplitudes(trace.samples, probe, weight)[0])


def frequency_sweep(event: DisturbanceEvent, channel: LoopChannel,
                    frequencies_hz: Sequence[float], *,
                    duration_s: float = PerceptionSettings.sweep_duration_s,
                    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
                    noise_sigma: float = DEFAULT_NOISE_SIGMA,
                    input_power_w: float = DEFAULT_INPUT_POWER_W,
                    seed: Optional[int] = None,
                    responses: Optional[dict] = None) -> FrequencySweep:
    """Swept-sine response: re-drive the sinusoidal source over a frequency
    grid and record the measured tone amplitude at each point.

    Only sinusoidal (piezo) events can be swept, the grid must be strictly
    ascending with at least 3 points, its last point must lie below half
    the sample rate, and the drive may need at most ``_PHASE_SAMPLES //
    2`` Fourier orders (:func:`_sweep_orders`); all four are checked
    before any trace is synthesized.  Each point reads the settled drive
    behind an ideal anti-alias filter, as a swept-sine instrument does:
    the Hann-weighted tone of an ``n``-sample trace of the steady state
    (:func:`_sweep_response`), so a point depends only on the drive's
    strength and the lag between its copies, not on when it started.  The
    trace noise enters the projection linearly, so a point is its
    noise-free projection plus one exact bivariate-normal draw
    (:func:`_correlated_normals`) from the second moments of the
    projection's noise.  The seed fixes the drive-off reference trace,
    whose tone amplitudes at fixed grid points set the noise floor, and
    then one ``(points, 2)`` standard-normal draw.

    ``responses`` is a dict the caller owns, such as the memo of one
    scenario run: repeat sweeps of the same drive then compute their
    response once, with the same results as without the dict.
    """
    if not isinstance(event.params, PztParams):
        raise ValueError("frequency sweeps require a sinusoidal drive")
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    _check_sweep_grid(freqs)
    if _band_aliases(freqs[-1], sample_rate_hz):
        raise _aliasing_error(float(freqs[-1]), sample_rate_hz)
    problem = _strong_drive_problem(event.params, freqs.size)
    if problem:
        raise ValueError(problem)
    rng = np.random.default_rng(seed)
    # Reference measurement with the drive off fixes the instrument floor.
    quiet = synthesize_trace(
        (), channel, duration_s, sample_rate_hz, noise_sigma,
        seed=int(rng.integers(0, MAX_SEED)), input_power_w=input_power_w)
    n = quiet.samples.size
    if responses is None:
        responses = {}
    key = (event, channel, freqs.tobytes(), n, sample_rate_hz, input_power_w)
    if key not in responses:
        responses[key] = _sweep_response(event, channel, freqs, n,
                                         sample_rate_hz, input_power_w)
    response = responses[key]
    plan = response.plan
    projections = response.projections
    if noise_sigma > 0.0:
        projections = projections + noise_sigma * _correlated_normals(
            *response.moments, rng.standard_normal((freqs.size, 2)))
    floor = float(np.median(_tone_amplitudes(quiet.samples, plan.probes,
                                             plan.weight)))
    return FrequencySweep(
        frequencies_hz=freqs,
        amplitudes=2.0 * np.abs(projections) / plan.weight,
        noise_floor_amplitude=floor)


@dataclass(frozen=True)
class _SweepResponse:
    """The seed-free half of a sweep that depends on its drive, read-only
    so that sweeps sharing it cannot change it: ``projections`` and
    ``moments`` (of ``c u``: re re, re im, im im) hold one column per grid
    point, and ``plan`` is the :class:`_SweepPlan` they were taken with."""

    projections: np.ndarray
    moments: np.ndarray
    plan: _SweepPlan


@dataclass(frozen=True)
class _SweepPlan:
    """The half of a sweep that depends on no drive, read-only: the Hann
    window ``w`` of an ``n``-sample trace and its ``weight``, and the
    ``probes`` ``w e`` for the :func:`_unit_phasors` rows ``e`` of the grid
    points whose median tone amplitude on the reference trace is the
    floor."""

    w: np.ndarray
    weight: float
    probes: np.ndarray


@functools.lru_cache(maxsize=16)
def _sweep_plan(grid: bytes, n: int, sample_rate_hz: float) -> _SweepPlan:
    """The :class:`_SweepPlan` of ``n``-sample sweeps over the grid whose
    float64 bytes are ``grid``, computed once per key and shared
    read-only."""
    omegas = 2.0 * math.pi * np.frombuffer(grid)
    w, weight = _hann(n)
    probes = w * _unit_phasors(omegas[:: max(1, omegas.size // 16)], n,
                               sample_rate_hz)
    w.flags.writeable = probes.flags.writeable = False
    return _SweepPlan(w, weight, probes)


def _sweep_orders(peak: float) -> int:
    """Fourier orders ``M`` that ``c**2`` holds under a drive of ``peak``
    rad: :func:`_bessel_orders` of the ``4 peak`` it reaches, and
    ``_PHASE_SAMPLES // 2 + 1`` for a drive past that cap."""
    return _bessel_orders(4.0 * peak, _PHASE_SAMPLES // 2)


def _strong_drive_problem(params: PztParams, points: int) -> Optional[str]:
    """Why a drive of ``params`` cannot be swept over ``points`` grid
    points, as a problem of its gain key, or ``None``: its series needs
    more than ``_PHASE_SAMPLES // 2`` Fourier orders ``M``, from about 6020
    rad on, or the ``M + 3`` or so orders that :func:`_sweep_response`
    takes a point come to more than ``_MAX_SWEEP_WORK`` over the grid."""
    orders = _sweep_orders(params.peak_phase_rad)
    if orders > _PHASE_SAMPLES // 2:
        why = f"more than {_PHASE_SAMPLES // 2} Fourier orders"
    elif points * (orders + 3) > _MAX_SWEEP_WORK:
        why = (f"{orders + 3} Fourier orders at each of {points} scan "
               f"points, more than {_MAX_SWEEP_WORK} in all")
    else:
        return None
    return (f"{params._GAIN}: {getattr(params, params._GAIN)} gives a "
            f"{params.peak_phase_rad} rad drive, whose sweep needs {why}")


def _sweep_response(event: DisturbanceEvent, channel: LoopChannel,
                    freqs: np.ndarray, n: int, sample_rate_hz: float,
                    input_power_w: float) -> _SweepResponse:
    """Noise-free response of ``n``-sample sweep traces over ``freqs``: the
    settled drive, read behind an ideal anti-alias filter.

    With both copies running, the net phase is ``A cos(omega t + phi)``,
    ``A = 2 peak sin(omega lag / 2)`` and ``phi = -omega lag / 2``, so the
    port intensity ``c`` and ``c**2`` are Fourier series in ``omega t``,
    of orders ``-M .. M`` (:func:`_sweep_orders`).  Only orders 0, -1 and
    -2 are read, and no order of ``c**2`` folds onto them while
    :func:`_drive_series` takes more than ``M + 2`` nodes, which ``(M +
    2) // 2`` orders give; the grid goes in blocks of at most
    ``_BLOCK_ELEMENTS`` orders.  Under the Hann window ``w`` and the unit
    phasor ``e`` of a point, only the order that stands still in ``c e``
    survives a sum over the trace: the projection
    ``sum w c e`` is ``sum(w)`` times order -1 of ``c``, and with ``u = w
    e``, ``sum c**2 |u|**2`` and ``sum c**2 u**2`` are ``sum(w**2)`` times
    orders 0 and -2 of ``c**2``.  Their real and imaginary parts give the
    three second moments of ``c u``, which times ``sigma**2`` are the
    covariance of the point's noise.
    """
    omega_lag = 2.0 * math.pi * freqs * _delay_lag_s(event, channel)
    peak = event.params.peak_phase_rad
    orders = max(2, (_sweep_orders(peak) + 2) // 2)
    bias = channel.bias_phase_rad

    def powers(phase):
        c = _port_intensity(bias + phase, input_power_w)
        return c, c * c

    # Orders -1 of c, 0 of c**2 and -2 of c**2, one row each.
    picked = np.empty((3, freqs.size), dtype=complex)
    rows = max(1, _BLOCK_ELEMENTS // (2 * orders + 1))
    for lo in range(0, freqs.size, rows):
        c, cc = _drive_series(
            powers, 2.0 * peak * np.sin(0.5 * omega_lag[lo:lo + rows]),
            orders, -0.5 * omega_lag[lo:lo + rows])
        picked[:, lo:lo + rows] = (c[:, orders - 1], cc[:, orders],
                                   cc[:, orders - 2])
    plan = _sweep_plan(freqs.tobytes(), n, sample_rate_hz)
    power = float(plan.w @ plan.w)
    q0, q2 = power * picked[1].real, power * picked[2]
    projections = plan.weight * picked[0]
    moments = np.array([0.5 * (q0 + q2.real), 0.5 * q2.imag,
                        0.5 * (q0 - q2.real)])
    for array in (projections, moments):
        array.flags.writeable = False
    return _SweepResponse(projections, moments, plan)


def _correlated_normals(a: np.ndarray, h: np.ndarray, b: np.ndarray,
                        g: np.ndarray) -> np.ndarray:
    """``L g`` as complex numbers: zero-mean normals whose real and
    imaginary parts have covariance ``[[a, h], [h, b]]``, from standard
    normals ``g`` of shape ``(points, 2)``.

    ``L`` is the lower Cholesky factor in closed form.  A degenerate
    covariance gives no NaN: ``l21`` is 0 where ``a`` is, and a
    rounding-negative ``b - l21**2`` counts as 0.
    """
    l11 = np.sqrt(a)
    l21 = np.divide(h, l11, out=np.zeros_like(h), where=l11 > 0.0)
    l22 = np.sqrt(np.maximum(b - l21 * l21, 0.0))
    return l11 * g[:, 0] + 1j * (l21 * g[:, 0] + l22 * g[:, 1])


def acquire(event: DisturbanceEvent, channel: LoopChannel,
            settings: PerceptionSettings, seed: Optional[int],
            *, responses: Optional[dict] = None,
            ) -> Union[FrequencySweep, InterferenceTrace]:
    """Record dynamic ``event`` alone for null-frequency localization.

    A drive is swept over the scan grid, sharing the noise-free responses
    of ``responses`` (see :func:`frequency_sweep`).  A transient is
    captured in one trace of :meth:`PerceptionSettings.trace_duration_s`
    centred on its onset.  Both see the loop through
    :meth:`PerceptionSettings.sense_channel`.
    """
    sense = settings.sense_channel(channel)
    if isinstance(event.params, PztParams):
        return frequency_sweep(
            event, sense, settings.scan_grid(),
            duration_s=settings.sweep_duration_s,
            sample_rate_hz=settings.sample_rate_hz,
            noise_sigma=settings.noise_sigma,
            input_power_w=settings.input_power_w, seed=seed,
            responses=responses)
    duration = settings.trace_duration_s(event.params)
    return synthesize_trace(
        (event,), sense, duration, settings.sample_rate_hz,
        settings.noise_sigma, seed=seed, input_power_w=settings.input_power_w,
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


#: How far (dB) short of the threshold a notch's depth may be and still be
#: taken with ``math.log10``: far beyond the rounding of either form.
_DEPTH_MARGIN_DB = 1e-6


def _notches(freqs: np.ndarray, spectrum: np.ndarray, refine: np.ndarray,
             minima: np.ndarray, references, max_k: int,
             depth_threshold_db: float, tolerance_hz: Callable[[], float],
             missing: str) -> list[NullFrequency]:
    """Nulls at the local ``minima`` of ``spectrum`` whose depth below
    their ``references`` entry (one for all, or one each) reaches the
    threshold, a zero value at exactly it: each at the parabola vertex
    through ``refine``, harmonics assigned at ``tolerance_hz()``, read only
    once there is a notch.  Without one ``missing`` is logged.

    One vectorized test of the positive ratios ``reference / value``
    drops the minima more than ``_DEPTH_MARGIN_DB`` too shallow; only the
    rest have their depth ``10 log10(ratio)`` taken with ``math.log10``,
    which decides at the threshold (and rejects a zero ratio).
    """
    values = spectrum[minima]
    ratios = np.divide(references, values, out=np.full(values.shape, np.inf),
                       where=values > 0)
    # Capped in the float range, where a deeper threshold keeps only
    # ratios that math.log10 then decides.
    bound = 10.0 ** min(0.1 * (depth_threshold_db - _DEPTH_MARGIN_DB),
                        308.0)
    near = ~((ratios > 0.0) & (ratios < bound))
    found_f: list[float] = []
    found_d: list[float] = []
    for i, ratio, value in zip(minima[near].tolist(), ratios[near].tolist(),
                               values[near].tolist()):
        depth_db = (10.0 * math.log10(ratio) if value > 0
                    else depth_threshold_db)
        if depth_db < depth_threshold_db:
            continue
        found_f.append(float(_parabolic_vertex(
            freqs[i - 1], freqs[i], freqs[i + 1],
            refine[i - 1], refine[i], refine[i + 1])))
        found_d.append(float(depth_db))
    if not found_f:
        logger.info(missing, depth_threshold_db)
        return []
    return _assign_harmonics(found_f, found_d, max_k, tolerance_hz())


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
    return _notches(
        freqs, power, power, _local_minima(power, 1, power.size - 1),
        reference, max_k, depth_threshold_db,
        lambda: 2.0 * float(np.median(np.diff(freqs))),
        "no sweep minimum reaches %.1f dB below the median response")


#: Number of 50 %-overlapping Hann segments in the averaged spectrum.
_WELCH_SEGMENTS = 8


@functools.lru_cache(maxsize=64)
def _welch_plan(nperseg: int,
                fs: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The periodic Hann window of ``nperseg`` samples (``[1]`` for one
    sample), the density scale ``fs sum w^2`` and the one-sided frequency
    axis, computed once per ``(nperseg, fs)`` and shared read-only."""
    w = (0.5 - 0.5 * np.cos(2.0 * math.pi / nperseg * np.arange(nperseg))
         if nperseg > 1 else np.ones(1))
    freqs = np.fft.rfftfreq(nperseg, 1.0 / fs)
    w.flags.writeable = freqs.flags.writeable = False
    return w, fs * np.sum(w * w), freqs


def _welch_psd(trace: InterferenceTrace) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-windowed power spectrum of a trace (Welch's method).

    Segments overlap by half and each loses its mean; the periodic Hann
    window weighs them, and the one-sided density (``1 / (fs sum w^2)``,
    every bin but DC and an even segment's Nyquist bin doubled) is averaged
    over the segments.  The window and axis come from :func:`_welch_plan`.
    """
    n = trace.samples.size
    nperseg = max(_WELCH_MIN_SEGMENT,
                  2 ** int(math.log2(2 * n / (_WELCH_SEGMENTS + 1))))
    nperseg = min(nperseg, n)
    w, scale, freqs = _welch_plan(nperseg, trace.sample_rate_hz)
    segments = sliding_window_view(trace.samples, nperseg)[
        ::nperseg - nperseg // 2]
    segments = segments - segments.mean(axis=1, keepdims=True)
    spectra = np.fft.rfft(w * segments, axis=1)
    psd = (spectra.real ** 2 + spectra.imag ** 2) / scale
    psd[:, 1:(nperseg + 1) // 2] *= 2.0
    return freqs, psd.mean(axis=0)


def _local_medians(psd: np.ndarray, centres: np.ndarray, lo: int,
                   half_window: int) -> np.ndarray:
    """Median of ``psd[max(lo, i - half_window):i + half_window + 1]`` for
    each centre ``i``, as ``np.median`` gives it, from one sort.

    The windows of ``psd[lo:]`` padded by ``half_window`` NaNs at each end
    are sorted row by row, so the ``m`` values of a window cut off by
    ``lo`` or by the end come first.  Their middle value, or the mean of
    the middle two for an even ``m``, is the median; a NaN among them
    sorts to their end and makes it NaN.
    """
    pad = np.full(half_window, np.nan)
    rows = np.sort(np.concatenate([pad, psd[lo:], pad])[
        np.add.outer(centres - lo, np.arange(2 * half_window + 1))], axis=1)
    count = (np.minimum(centres + half_window + 1, psd.size)
             - np.maximum(centres - half_window, lo))
    index = np.arange(centres.size)
    medians = rows[index, count // 2]
    even = count % 2 == 0
    medians[even] = (rows[index[even], count[even] // 2 - 1]
                     + medians[even]) / 2
    medians[np.isnan(rows[index, count - 1])] = np.nan
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
    return _notches(
        freqs, psd, log_psd, minima[usable], medians[usable], max_k,
        depth_threshold_db, lambda: 2.0 * (freqs[1] - freqs[0]),
        "no spectral notch reaches %.1f dB below the local median")


def find_null_frequencies(
        data: Union[InterferenceTrace, FrequencySweep],
        max_k: int = PerceptionSettings.max_harmonics, *,
        depth_threshold_db: float = PerceptionSettings.notch_depth_db,
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


def localization_report(nulls: Sequence[NullFrequency],
                        channel: LoopChannel,
                        delta_f_hz: float = DEFAULT_FREQ_RESOLUTION_HZ,
                        ) -> LocalizationReport:
    """Assemble the full report from a set of detected nulls.

    The position comes from the lowest harmonic.  When several harmonics
    were caught, the scatter (sample standard deviation) of their
    fundamental-equivalent frequencies maps through the local slope
    ``|dx/df| = c / (2 n f^2)`` at their mean into ``sigma_position_m``.
    """
    if not nulls:
        raise InsufficientDataError("no nulls to localize from")
    ordered = sorted(nulls, key=lambda nf: nf.harmonic)
    first = ordered[0]
    x = localize(first, channel)
    sigma = None
    if len(ordered) >= 2:
        fundamentals = np.array([nf.frequency_hz / nf.harmonic
                                 for nf in ordered])
        mean = float(fundamentals.mean())
        sigma = (C_VACUUM / (2.0 * channel.refractive_index * mean * mean)
                 * float(fundamentals.std(ddof=1)))
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
    spectral power there.  A band with no power at all grades 0.
    """
    freqs, psd = _welch_psd(trace)
    lo = int(np.searchsorted(freqs, _SIGNIFICANCE_MIN_HZ))
    if lo == freqs.size:
        raise InsufficientDataError("trace too short for a spectral estimate")
    band = psd[lo:]
    floor = float(np.median(band))
    idx = int(np.argmax(band))
    candidate = float(freqs[lo + idx])
    peak = float(band[idx])
    if peak == 0.0:
        return candidate, 0.0
    return candidate, peak / floor if floor > 0 else math.inf


def sense(events: Sequence[DisturbanceEvent], channel: LoopChannel,
          settings: PerceptionSettings, seed: Optional[int],
          at_s: float) -> tuple[InterferenceTrace, dict]:
    """Take and grade the sensing trace of all ``events`` from ``at_s`` on.

    Returns the trace and its :func:`significance` as
    ``candidate_frequency_hz`` and ``peak_to_floor``.
    """
    trace = synthesize_trace(
        events, settings.sense_channel(channel), settings.sense_duration_s,
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
