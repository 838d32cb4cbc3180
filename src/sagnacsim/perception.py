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

A sweep reads no samples: its points and its noise floor are closed
forms in the Hann window's two sums (:func:`_hann_sums`) and three Bessel
orders of the drive (:func:`_bessel`), kept per drive by
:func:`_sweep_response`.
What a Welch spectrum needs of no event, seed or sample is computed once
per configuration by :func:`_welch_plan` and shared read-only.  The
Fourier rows of a drive's key-window means are kept per drive amplitude
by :func:`_drive_rows`.
"""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .disturbance import (DisturbanceEvent, ImpactParams, PztParams,
                          single_pass_phase)
from .errors import (AliasingError, Checked, HarmonicAmbiguityError,
                     InsufficientDataError, OutOfLoopError,
                     UndefinedResolutionError, non_negative, positive, within)
from .optics import C_VACUUM, LoopChannel

logger = logging.getLogger(__name__)

#: Default continuous-wave input power (W) of the shared source.
DEFAULT_INPUT_POWER_W = 5.645e-3

#: Default relative intensity noise of the source (power fluctuation).
DEFAULT_NOISE_SIGMA = 0.0019

#: Largest input power (W) and relative intensity noise perception and WM
#: may assume, some 2e8 and 5e5 times perception's defaults.  Together
#: they keep the samples of a trace near 1e10 W at most, so the squares
#: that Welch spectra and sweeps take of sums over millions of samples, and
#: the intensities of a WM reading, stay far inside the float range.
MAX_INPUT_POWER_W = 1e6
MAX_NOISE_SIGMA = 1e3

#: Largest sample magnitude (W) a trace may hold, about 2e11 W: the port's
#: peak ``2 I0`` at ``MAX_INPUT_POWER_W`` times a noise factor ``1 + sigma
#: z`` at ``MAX_NOISE_SIGMA`` with ``|z| = 100``, which no normal draw
#: reaches.  A synthesized trace always passes; a trace file past it is
#: refused before any spectrum squares its samples.
MAX_SAMPLE_W = 2.0 * MAX_INPUT_POWER_W * (1.0 + 100.0 * MAX_NOISE_SIGMA)

#: Default sample rate able to probe nulls up to 50 kHz with margin.
DEFAULT_SAMPLE_RATE_HZ = 200e3

#: Sample rates (Hz) a trace may take.  A Welch segment of ``m < 2**63``
#: samples has ``1 <= sum(w**2) <= m``, so its scale ``fs sum(w**2)`` lies
#: in [1e-3, 1e32]; a bin's ``|sum w (x - mean)|**2 <= (2 m MAX_SAMPLE_W)**2
#: < 2e61``, so a density, doubled and summed over segments, is below 1e84.
SAMPLE_RATE_BOUNDS_HZ = (1e-3, 1e12)

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


#: Most scan points a sweep may take, 112 times the default 293.  The
#: harmonic vote of a null search is quadratic in notch candidates: on a
#: 2-vCPU host, 146 001 points took 13 s to vote on.
_MAX_SCAN_POINTS = 2**15

#: Most elements a block of :func:`_drive_means`' rows may hold, whole
#: rows and at least one: a harmonic's row holds its Fourier orders.
_BLOCK_ELEMENTS = 16_000

#: Natural log of the Bessel bound below which a drive series drops a
#: Fourier order: ``2**-60``, far below rounding.
_LOG_NEGLIGIBLE = -60.0 * math.log(2.0)

#: Most values a block of :func:`_local_medians`' sorted windows holds,
#: 32 MiB of floats.
_MEDIAN_ELEMENTS = 2**22

#: Shortest Welch segment; a sensing trace must hold at least one.
_WELCH_MIN_SEGMENT = 64

#: Most samples a sensing, acquisition or sweep trace may hold: 21 s at
#: 200 kHz.
MAX_TRACE_SAMPLES = 2**22

#: Most loop-phase samples a key window averages, and most Fourier orders
#: ``2M + 1`` of its closed-form means.
_PHASE_SAMPLES = 2**16


def _sample_count(duration_s: float, sample_rate_hz: float) -> int:
    """Number of samples a trace of ``duration_s`` holds, ``math.inf``
    past the float range."""
    samples = duration_s * sample_rate_hz
    return round(samples) if math.isfinite(samples) else math.inf


@dataclass(frozen=True)
class PerceptionSettings(Checked):
    sample_rate_hz: float = within(*SAMPLE_RATE_BOUNDS_HZ,
                                   DEFAULT_SAMPLE_RATE_HZ)
    sense_duration_s: float = positive(0.05)
    sweep_duration_s: float = positive(0.01)
    noise_sigma: float = within(0, MAX_NOISE_SIGMA, DEFAULT_NOISE_SIGMA)
    input_power_w: float = within(0, MAX_INPUT_POWER_W, DEFAULT_INPUT_POWER_W,
                                  ends="(]")
    bias_phase_rad: float = 0.5 * math.pi
    significance_threshold: float = positive(10.0)
    scan_min_hz: float = positive(2000.0)
    scan_max_hz: float = positive(75000.0)
    scan_step_hz: float = positive(250.0)
    max_harmonics: int = positive(3)
    notch_depth_db: float = within(0, MAX_NOTCH_DEPTH_DB, 10.0, ends="(]")
    freq_resolution_hz: float = positive(DEFAULT_FREQ_RESOLUTION_HZ)
    switch_dead_time_s: float = non_negative(1.0)

    def problems(self) -> list[str]:
        problems = []
        if self.scan_min_hz >= self.scan_max_hz:
            problems.append("scan_min_hz: must be below scan_max_hz")
        else:
            problems += self._scan_grid_problems()
        # A sensing trace is graded on Welch segments; a sweep's Hann
        # window has weight from 3 samples on.
        for key, least in (("sense_duration_s", _WELCH_MIN_SEGMENT),
                           ("sweep_duration_s", 3)):
            n = _sample_count(getattr(self, key), self.sample_rate_hz)
            if not least <= n <= MAX_TRACE_SAMPLES:
                bound = (f"fewer than {least}" if n < least
                         else f"more than {MAX_TRACE_SAMPLES}")
                problems.append(f"{key}: holds {n:.12g} samples at "
                                f"sample_rate_hz {self.sample_rate_hz}, "
                                f"{bound}")
        return problems

    def _scan_grid_problems(self) -> list[str]:
        # The length of scan_grid, found without building it, math.inf
        # past the float range.
        steps = (self.scan_max_hz + self.scan_step_hz
                 - self.scan_min_hz) / self.scan_step_hz
        points = math.ceil(steps) if math.isfinite(steps) else math.inf
        if points < 3:
            return [f"scan_step_hz: {self.scan_step_hz} leaves {points} scan "
                    f"points from scan_min_hz to scan_max_hz; a sweep needs "
                    f"at least 3"]
        if points > _MAX_SCAN_POINTS:
            return [f"scan_step_hz: {self.scan_step_hz} asks for "
                    f"{points:.12g} scan points, more than "
                    f"{_MAX_SCAN_POINTS}"]
        last = float(self.scan_grid()[-1])
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
        may hold at most ``MAX_TRACE_SAMPLES`` samples."""
        key, band = event.params._BAND, event.params.band_hz
        value = getattr(event.params, key)
        if _band_aliases(band, self.sample_rate_hz):
            return [f"{key}: {value} puts the disturbance band at {band} "
                    f"Hz, not below half the perception sample_rate_hz "
                    f"{self.sample_rate_hz}"]
        if key == "width_s":
            n = _sample_count(self.trace_duration_s(event.params),
                              self.sample_rate_hz)
            if n > MAX_TRACE_SAMPLES:
                return [f"width_s: {value} asks for a trace of {n:.12g} "
                        f"samples at the perception sample_rate_hz "
                        f"{self.sample_rate_hz}, more than "
                        f"{MAX_TRACE_SAMPLES}"]
        return []

    def sense_channel(self, channel: LoopChannel) -> LoopChannel:
        """The loop as perception sees it: biased to the sensing phase."""
        return replace(channel, bias_phase_rad=self.bias_phase_rad)


@dataclass(frozen=True)
class InterferenceTrace(Checked):
    """Uniformly sampled detector intensity with acquisition metadata."""

    sample_rate_hz: float = within(*SAMPLE_RATE_BOUNDS_HZ)
    samples: np.ndarray
    input_power_w: float = positive()
    noise_sigma: float = non_negative(0.0)

    def __post_init__(self):
        super().__post_init__()
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        # Contiguous, for _welch_psd's view of its segments.
        samples = np.ascontiguousarray(samples)
        # Two reductions: a NaN sample makes both NaN and fails them.
        if not (samples.max() <= MAX_SAMPLE_W
                and samples.min() >= -MAX_SAMPLE_W):
            raise ValueError(f"samples must all be finite and at most "
                             f"{MAX_SAMPLE_W:g} W in magnitude")
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

    ``noise_floor_amplitude`` is the median tone amplitude that the
    measurement noise alone gives a point, 0.0 without noise; a sweep whose
    typical response does not stand clear of it carries no localizable
    structure.
    """

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray
    noise_floor_amplitude: float

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


def _settled_drive(peak: float, omega_lag):
    """``(A, phi)`` of a settled drive's net phase ``A cos(omega (t - s) +
    phi)``, for its ``peak`` and ``omega lag`` (one value or an array):
    ``A = 2 peak sin(omega lag / 2)`` and ``phi = -omega lag / 2``."""
    half = 0.5 * omega_lag
    return 2.0 * peak * np.sin(half), -half


def nonreciprocal_phase(t, event: DisturbanceEvent, channel: LoopChannel):
    """Differential phase between the two directions, bias excluded.

    The clockwise wave sees the waveform at ``t`` and the counterclockwise
    wave sees it one path-difference transit later, so the net phase is
    ``w(t) - w(t - n (L - 2x) / c)``.  Zero for any constant waveform and
    exactly zero at the loop midpoint.  A drive whose two copies both run
    at every ``t``, from ``start_s + max(0, lag)`` on, takes the settled
    form of :func:`_settled_drive`, one cosine a sample.
    """
    lag = _delay_lag_s(event, channel)
    t = np.asarray(t, dtype=float)
    params = event.params
    if (isinstance(params, PztParams) and t.size
            and t.min() >= event.start_s + max(0.0, lag)):
        omega = params.angular_frequency_rad_s
        amplitude, phase = _settled_drive(params.peak_phase_rad, omega * lag)
        out = amplitude * np.cos(omega * (t - event.start_s) + phase)
        return out if out.ndim else float(out)
    return single_pass_phase(t, event) - single_pass_phase(t - lag, event)


def loop_phase(t, events: Sequence[DisturbanceEvent], channel: LoopChannel):
    """The loop's nonreciprocal phase at ``t``, bias excluded: the sum of
    :func:`nonreciprocal_phase` over the dynamic ``events``, the one
    event's own phase when there is one, exactly zero without one."""
    phases = (nonreciprocal_phase(t, ev, channel) for ev in events
              if ev.is_dynamic)
    first = next(phases, None)
    if first is None:
        return np.zeros_like(np.asarray(t, dtype=float))
    return sum(phases, first)


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


@functools.lru_cache(maxsize=64)
def _bessel_orders(z: float, most: int) -> int:
    """The first order ``m`` whose bound ``(z / 2)**m / m!`` on ``|J_m(z)|``
    is below ``2**-60``, by bisection: the bound rises from 1 up to ``m =
    z / 2`` and falls after it, so every higher order is below too.
    ``most + 1`` when no order up to ``most`` is below.  Computed once per
    key: a drive's windows and sweeps ask again with the same ``z``."""
    log_half = math.log(0.5 * z) if z > 0.0 else -math.inf
    return bisect.bisect_left(
        range(most + 1), True,
        key=lambda m: m * log_half - math.lgamma(m + 1.0) < _LOG_NEGLIGIBLE)


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
             (both, math.inf, *_settled_drive(peak, omega * lag)))
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
    span.  The coefficients over the orders ``-M .. M``, with ``M`` the
    piece's entry of ``kept``, :func:`_bessel_orders` of its ``n A``, come
    from :func:`_drive_rows`, so the steady windows of a drive after the
    first cost only their piece phasors and one product."""
    means = np.ones(n, dtype=complex)
    for (share, amplitude, theta, span), orders in zip(pieces, kept):
        m = np.arange(-orders, orders + 1)
        piece = np.exp(1j * m * theta) * np.sinc(m * span / (2.0 * math.pi))
        rows = max(1, _BLOCK_ELEMENTS // (2 * orders + 1))
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            means[lo:hi] += share * (
                _drive_rows(amplitude, orders, lo, hi) @ piece - 1.0)
    return means


@functools.lru_cache(maxsize=16)
def _drive_rows(amplitude: float, orders: int, lo: int,
                hi: int) -> np.ndarray:
    """Fourier orders ``-orders .. orders`` in ``t`` of ``exp(1j k A cos
    t)`` for ``k = lo + 1 .. hi``, one row each, computed once per key and
    shared read-only.

    One real FFT each of ``cos`` and ``sin`` of ``k A cos t`` at ``1 << (2
    orders + 1).bit_length()`` equally spaced ``t`` gives them, exact but
    for the higher orders that fold onto them, which
    :func:`_bessel_orders` bounds.
    """
    nodes = 1 << (2 * orders + 1).bit_length()
    t = (2.0 * math.pi / nodes) * np.arange(nodes)
    x = np.multiply.outer(amplitude * np.arange(lo + 1, hi + 1), np.cos(t))
    coefs = np.fft.rfft((np.cos(x), np.sin(x)), axis=-1)[..., :orders + 1]
    coefs /= nodes
    cos, sin = np.concatenate([coefs[..., orders:0:-1].conj(), coefs],
                              axis=-1)
    rows = cos + 1j * sin
    rows.flags.writeable = False
    return rows


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


def _port_intensity(gpd, input_power_w: float, out=None):
    """Noise-free reflected-port intensity ``I0 (1 + cos gpd)``, written
    into the array ``out`` when given."""
    c = np.cos(gpd, out=out)
    c += 1.0
    c *= input_power_w
    return c


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
    evaluated once, and the noise draw's own buffer becomes its samples.
    Raises when the sample rate cannot cover twice the bandwidth of any
    event or the trace would hold no sample.
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
    factor = None
    if noise_sigma > 0.0:
        factor = np.random.default_rng(seed).standard_normal(n)
        factor *= noise_sigma
        factor += 1.0
    if reaching:
        t = np.arange(n, dtype=float)
        t /= sample_rate_hz
        t += start_s
        samples = loop_phase(t, reaching, channel)
        samples += channel.bias_phase_rad
        _port_intensity(samples, input_power_w, out=samples)
        if factor is not None:
            samples *= factor
    else:
        c0 = _port_intensity(channel.bias_phase_rad, input_power_w)
        samples = (np.full(n, c0) if factor is None
                   else np.multiply(factor, c0, out=factor))
    return InterferenceTrace(
        sample_rate_hz=sample_rate_hz, samples=samples,
        input_power_w=input_power_w, noise_sigma=noise_sigma)


def _hann_sums(n: int) -> tuple[float, float]:
    """``sum(w)`` and ``sum(w**2)`` of the ``n``-sample Hann window ``w_k =
    (1 - cos(2 pi k / (n - 1))) / 2`` of ``np.hanning``: the cosines over a
    period sum to 0 and their squares to half the period, and sample ``n -
    1`` ends the period with a cosine of 1, so the sums are ``(n - 1) / 2``
    and ``3 (n - 1) / 8``.  At ``n = 3`` the window is ``[0, 1, 0]`` and
    both are 1; below 3 it has no weight and raises
    :class:`InsufficientDataError`."""
    if n < 3:
        raise InsufficientDataError(
            f"a {n}-sample trace has no weight under the Hann window")
    return 0.5 * (n - 1), 1.0 if n == 3 else 0.375 * (n - 1)


def measure_tone_amplitude(trace: InterferenceTrace,
                           frequency_hz: float) -> float:
    """Amplitude of the trace component at an arbitrary frequency.

    ``2 |sum(w e (x - mean x))| / sum(w)`` of the samples ``x`` under the
    Hann window ``w`` and the exact tone's phasors ``e`` (not a DFT bin),
    so there is no scalloping bias; the mean is removed first to keep the
    large DC term from leaking.  A trace of two samples has no Hann weight
    and raises :class:`InsufficientDataError`.
    """
    n = trace.samples.size
    weight, _ = _hann_sums(n)
    phasors = np.exp(2j * math.pi * frequency_hz / trace.sample_rate_hz
                     * np.arange(n))
    x = trace.samples - trace.samples.mean()
    return 2.0 * abs(np.sum(np.hanning(n) * x * phasors)) / weight


def frequency_sweep(event: DisturbanceEvent, channel: LoopChannel,
                    frequencies_hz: Sequence[float], *,
                    duration_s: float = PerceptionSettings.sweep_duration_s,
                    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
                    noise_sigma: float = DEFAULT_NOISE_SIGMA,
                    input_power_w: float = DEFAULT_INPUT_POWER_W,
                    seed: Optional[int] = None) -> FrequencySweep:
    """Swept-sine response: re-drive the sinusoidal source over a frequency
    grid and record the measured tone amplitude at each point.

    Only sinusoidal (piezo) events can be swept, the grid must be strictly
    ascending with at least 3 points, its last point must lie below half
    the sample rate; all three are checked first, and the trace must hold
    3 to ``MAX_TRACE_SAMPLES`` samples.
    Each point reads the settled drive behind an ideal anti-alias filter,
    as a swept-sine instrument does: the Hann-weighted tone of an
    ``n``-sample trace of the steady state (:func:`_sweep_response`), so a
    point depends only on the drive's strength and the lag between its
    copies, not on when it started.  The trace noise enters the projection
    linearly, so a point is its noise-free projection plus one exact
    bivariate-normal draw (:func:`_correlated_normals`) from the second
    moments of the projection's noise; the seed fixes one ``(points, 2)``
    standard-normal draw.  The noise floor is the median tone amplitude of
    a drive-off trace ``c0 (1 + sigma z)``, ``c0 = I0 (1 + cos b)`` at the
    bias ``b``: each amplitude is Rayleigh, and its median is ``2 c0 sigma
    sqrt(sum(w**2) ln 2) / sum(w)``, with no sample drawn.
    """
    if not isinstance(event.params, PztParams):
        raise ValueError("frequency sweeps require a sinusoidal drive")
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    _check_sweep_grid(freqs)
    if _band_aliases(freqs[-1], sample_rate_hz):
        raise _aliasing_error(float(freqs[-1]), sample_rate_hz)
    n = _sample_count(duration_s, sample_rate_hz)
    if n > MAX_TRACE_SAMPLES:
        raise ValueError(f"duration_s: {duration_s} s holds {n:.12g} samples "
                         f"at sample_rate_hz {sample_rate_hz}, more than "
                         f"{MAX_TRACE_SAMPLES}")
    weight, power = _hann_sums(n)
    projections, moments = _sweep_response(event, channel, freqs.tobytes(),
                                           n, input_power_w)
    if noise_sigma > 0.0:
        projections = projections + noise_sigma * _correlated_normals(
            *moments,
            np.random.default_rng(seed).standard_normal((freqs.size, 2)))
    c0 = float(_port_intensity(channel.bias_phase_rad, input_power_w))
    floor = 2.0 * c0 * noise_sigma * math.sqrt(power * math.log(2.0)) / weight
    return FrequencySweep(
        frequencies_hz=freqs,
        amplitudes=2.0 * np.abs(projections) / weight,
        noise_floor_amplitude=floor)


class _SweepResponse(NamedTuple):
    """The seed-free half of a sweep that depends on its drive, read-only
    so that sweeps sharing it cannot change it: ``projections`` and
    ``moments`` (of ``c u``: re re, re im, im im) hold one column per grid
    point."""

    projections: np.ndarray
    moments: np.ndarray


#: Nodes of :func:`_bessel`'s trapezoid rule over a period: it is exact
#: but for the orders ``J_{64 - m}`` and above, below 1e-18 for ``|z| <
#: _HANKEL_FROM``.
_BESSEL_NODES = 64

#: Least ``|z|`` whose Bessel values :func:`_bessel` takes from the Hankel
#: expansion's first 27 terms: the first term left out is about 2e-20
#: there (A&S 9.2.5).
_HANKEL_FROM = 25.0

#: The expansion's ``a_k = prod_{j <= k} (4 m**2 - (2j - 1)**2) / (k!
#: 8**k)``, k = 0 .. 26, one row each, for orders m = 0, 1 and 2.
_HANKEL = np.cumprod(np.vstack([np.ones(3), (
    4.0 * np.arange(3) ** 2 - (2.0 * np.arange(1, 27)[:, None] - 1.0) ** 2)
    / (8.0 * np.arange(1, 27)[:, None])]), axis=0)


def _bessel(z: np.ndarray) -> np.ndarray:
    """``J_0``, ``J_1`` and ``J_2`` of the real array ``z``, stacked on a
    leading axis, within about 1e-15.

    Below ``_HANKEL_FROM`` in ``|z|``, the trapezoid rule of ``J_m(z) =
    mean(cos(m t - z sin t))`` over a period, at ``_BESSEL_NODES``
    midpoints ``t``: the integrand is even in ``t`` and its sum with that
    at ``pi - t`` is ``2 cos(m t) cos(z sin t)`` for even ``m`` and ``2
    sin(m t) sin(z sin t)`` for odd ``m``, so the nodes in ``(0, pi / 2)``
    give it, and ``cos 2t`` is odd about ``pi / 4``.  So ``J_m(0)`` is
    exactly 1, 0 and 0.  From ``_HANKEL_FROM`` on, the Hankel expansion
    ``J_m(x) = sqrt(2 / (pi x)) (P cos chi - Q sin chi)``, ``chi = x - pi
    / 4 - m pi / 2`` (A&S 9.2.5), which is the real part of ``sqrt(2 /
    (pi x)) exp(i chi) sum_k a_k (i / x)**k``, and ``J_m(-x) = (-1)**m
    J_m(x)``.  ``exp(i chi)`` is ``exp(i x)`` of the argument itself
    times a constant of the order, so no rounding of ``chi`` grows with
    ``x``.
    """
    out = np.empty((3,) + z.shape)
    near = np.abs(z) < _HANKEL_FROM
    t = (2.0 * math.pi / _BESSEL_NODES) * (np.arange(_BESSEL_NODES // 4)
                                           + 0.5)
    u = np.multiply.outer(z[near], np.sin(t))
    c, half = np.cos(u), _BESSEL_NODES // 8
    out[:, near] = (4.0 / _BESSEL_NODES) * np.array([
        c.sum(axis=-1), np.sin(u) @ np.sin(t),
        (c[:, :half] - c[:, :half - 1:-1]) @ np.cos(2.0 * t[:half])])
    if near.all():
        return out
    x = np.abs(z[~near])
    series = 0.0
    for a in _HANKEL[::-1]:  # Horner's rule in i / x
        series = series * (1j / x) + a[:, None]
    turn = np.exp(-0.25j * math.pi) * np.array([[1.0], [-1j], [-1.0]])
    out[:, ~near] = (series * np.exp(1j * x) * turn).real * np.sqrt(
        2.0 / (math.pi * x))
    out[1, ~near] *= np.sign(z[~near])
    return out


@functools.lru_cache(maxsize=16)
def _sweep_response(event: DisturbanceEvent, channel: LoopChannel,
                    grid: bytes, n: int,
                    input_power_w: float) -> _SweepResponse:
    """Noise-free response of ``n``-sample sweep traces over the grid whose
    float bytes are ``grid``: the settled drive, read behind an ideal
    anti-alias filter, computed once per key and shared read-only.

    With both copies running, the net phase is ``A cos(omega t + psi)``,
    ``A = 2 peak sin(omega lag / 2)`` and ``psi = -omega lag / 2``
    (:func:`_settled_drive`), so with ``Y = b + A cos(omega t + psi)`` the
    port intensity ``c = I0 (1 + cos Y)`` and ``c**2 = I0**2 (3/2 + 2 cos
    Y + cos(2Y) / 2)`` are Fourier series in ``omega t`` whose orders are
    Bessel values (Jacobi–Anger, Abramowitz & Stegun 9.1.42–45, by
    :func:`_bessel`): order -1 of ``c`` is ``-I0 sin b J_1(A) exp(-i
    psi)``, and orders 0 and -2 of ``c**2`` are ``I0**2 (3/2 + 2 cos b
    J_0(A) + cos 2b J_0(2A) / 2)`` and ``-I0**2 (2 cos b J_2(A) + cos 2b
    J_2(2A) / 2) exp(-2i psi)``.  Under the Hann window ``w`` and the unit
    phasor ``e`` of a point, only the order that stands still in ``c e``
    survives a sum over the trace: the projection ``sum w c e`` is
    ``sum(w)`` times order -1 of ``c``, and with ``u = w e``, ``sum c**2
    |u|**2`` and ``sum c**2 u**2`` are ``sum(w**2)`` times orders 0 and -2
    of ``c**2``.  Their real and imaginary parts give the three second
    moments of ``c u``, which times ``sigma**2`` are the covariance of the
    point's noise.
    """
    freqs = np.frombuffer(grid)
    weight, power = _hann_sums(n)
    amplitudes, phases = _settled_drive(
        event.params.peak_phase_rad,
        2.0 * math.pi * freqs * _delay_lag_s(event, channel))
    # Each order at A, then at 2A.
    j0, j1, j2 = _bessel(np.array((amplitudes, 2.0 * amplitudes)))
    bias, i0 = channel.bias_phase_rad, input_power_w
    # cos 2b by the double angle: 2 * bias overflows past half the float
    # range, where bias itself is finite.
    cos_b = math.cos(bias)
    cos_2b = 2.0 * cos_b * cos_b - 1.0
    turn = np.exp(-1j * phases)
    projections = (-weight * i0 * math.sin(bias)) * j1[0] * turn
    q0 = (power * i0 * i0) * (1.5 + 2.0 * cos_b * j0[0] + 0.5 * cos_2b * j0[1])
    q2 = (-power * i0 * i0) * (2.0 * cos_b * j2[0]
                               + 0.5 * cos_2b * j2[1]) * (turn * turn)
    moments = np.array([0.5 * (q0 + q2.real), 0.5 * q2.imag,
                        0.5 * (q0 - q2.real)])
    for array in (projections, moments):
        array.flags.writeable = False
    return _SweepResponse(projections, moments)


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
            settings: PerceptionSettings,
            seed: Optional[int]) -> Union[FrequencySweep, InterferenceTrace]:
    """Record dynamic ``event`` alone for null-frequency localization.

    A drive is swept over the scan grid (:func:`frequency_sweep`).  A
    transient is captured in one trace of
    :meth:`PerceptionSettings.trace_duration_s` centred on its onset.  Both
    see the loop through :meth:`PerceptionSettings.sense_channel`.
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

    One vectorized test of the ratios ``reference / value`` drops the
    minima more than ``_DEPTH_MARGIN_DB`` too shallow, a zero ratio (-inf
    dB) among them; only the rest have their depth ``10 log10(ratio)``
    taken with ``math.log10``, which decides at the threshold.
    """
    values = spectrum[minima]
    ratios = np.divide(references, values, out=np.full(values.shape, np.inf),
                       where=values > 0)
    # Capped in the float range, where a deeper threshold keeps only
    # ratios that math.log10 then decides.
    bound = 10.0 ** min(0.1 * (depth_threshold_db - _DEPTH_MARGIN_DB),
                        308.0)
    near = ~(ratios < bound)
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


def _median(values: np.ndarray) -> float:
    """``np.median`` of the non-empty 1-D ``values``, bit for bit, from one
    partition: the mean of the middle value, or of the middle two for an
    even count, taken as ``np.mean`` takes it, a sum over a count; NaN when
    a value is.  The partition also places the largest value last, where
    a NaN sorts."""
    lo, hi = (values.size - 1) // 2, values.size // 2 + 1
    part = np.partition(values, (lo, hi - 1, -1))
    if np.isnan(part[-1]):
        return math.nan
    return float(np.add.reduce(part[lo:hi]) / (hi - lo))


def _nulls_from_sweep(sweep: FrequencySweep, max_k: int,
                      depth_threshold_db: float) -> list[NullFrequency]:
    power = sweep.amplitudes ** 2
    freqs = sweep.frequencies_hz
    reference = _median(power)
    floor = sweep.noise_floor_amplitude ** 2
    if reference < 10.0 ** (depth_threshold_db / 10.0) * floor:
        logger.info("sweep response sits at the instrument noise floor; "
                    "no localizable structure")
        return []
    return _notches(
        freqs, power, power, _local_minima(power, 1, power.size - 1),
        reference, max_k, depth_threshold_db,
        lambda: 2.0 * _median(np.diff(freqs)),
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
    """Averaged Hann-windowed power spectrum of a trace (Welch's method,
    P. D. Welch, IEEE Trans. Audio Electroacoust. AU-15, 70 (1967)).

    Segments overlap by half and each loses its mean; the periodic Hann
    window weighs them, and the one-sided density (``1 / (fs sum w^2)``,
    every bin but DC and an even segment's Nyquist bin doubled) is averaged
    over the segments.  The window and axis come from :func:`_welch_plan`.
    Past the one copy that removes the means, each step works in place,
    and the means are plain sums over a count, as ``ndarray.mean`` takes
    them.  The one-sided bins are doubled in the sum over the segments,
    not in each: doubling is exact and commutes with every rounding of
    the sum.
    """
    n = trace.samples.size
    nperseg = max(_WELCH_MIN_SEGMENT,
                  2 ** int(math.log2(2 * n / (_WELCH_SEGMENTS + 1))))
    nperseg = min(nperseg, n)
    w, scale, freqs = _welch_plan(nperseg, trace.sample_rate_hz)
    # The segments as a view of the contiguous samples.
    step, size = nperseg - nperseg // 2, trace.samples.itemsize
    segments = np.ndarray(((n - nperseg) // step + 1, nperseg),
                          buffer=trace.samples, strides=(size * step, size))
    means = np.add.reduce(segments, axis=1, keepdims=True)
    means /= nperseg
    segments = segments - means
    segments *= w
    spectra = np.fft.rfft(segments, axis=1)
    psd = np.square(spectra.real)
    psd += np.square(spectra.imag, out=spectra.imag)
    psd /= scale
    average = np.add.reduce(psd, axis=0)
    average[1:(nperseg + 1) // 2] *= 2.0
    average /= psd.shape[0]
    return freqs, average


def _local_medians(psd: np.ndarray, centres: np.ndarray, lo: int,
                   half_window: int) -> np.ndarray:
    """Median of ``psd[max(lo, i - half_window):i + half_window + 1]`` for
    each centre ``i``, as ``np.median`` gives it, from one sort a block.

    The windows of ``psd[lo:]`` padded by ``half_window`` NaNs at each end
    are sorted row by row, so the ``m`` values of a window cut off by
    ``lo`` or by the end come first.  Their middle value, or the mean of
    the middle two for an even ``m``, is the median; a NaN among them
    sorts to their end and makes it NaN.  The rows are taken in blocks of
    at most ``_MEDIAN_ELEMENTS`` values, and one row at least: a trace's
    centres and window widths both grow with its length.
    """
    medians = np.empty(centres.size)
    if not centres.size:
        # psd[lo:] may then be too short to hold one window.
        return medians
    pad = np.full(half_window, np.nan)
    padded = np.concatenate([pad, psd[lo:], pad])
    # Window j, centred on lo + j, as a view of the padded spectrum.
    width, size = 2 * half_window + 1, padded.itemsize
    windows = np.ndarray((padded.size - width + 1, width), buffer=padded,
                         strides=(size, size))
    count = (np.minimum(centres + half_window + 1, psd.size)
             - np.maximum(centres - half_window, lo))
    block = max(1, _MEDIAN_ELEMENTS // width)
    for start in range(0, centres.size, block):
        part = slice(start, start + block)
        rows = windows[centres[part] - lo]
        rows.sort(axis=1)
        index, n = np.arange(rows.shape[0]), count[part]
        out = rows[index, n // 2]
        even = n % 2 == 0
        out[even] = (rows[index[even], n[even] // 2 - 1] + out[even]) / 2
        out[np.isnan(rows[index, n - 1])] = np.nan
        medians[part] = out
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

    Every field follows from the delays ``tau_k = k / f_k`` of the nulls:
    the lowest harmonic's ``tau`` gives the path ``c tau / n`` and the
    near-branch position ``x = (L - c tau / n) / 2``.  A null below
    ``k c / (n L)`` would place the event outside the loop and raises.
    When several harmonics were caught, ``x`` being linear in ``tau`` maps
    the scatter (sample standard deviation) of their delays exactly into
    ``sigma_position_m = c / (2 n) SD(tau_k)``.
    """
    if not nulls:
        raise InsufficientDataError("no nulls to localize from")
    ordered = sorted(nulls, key=lambda nf: nf.harmonic)
    first = ordered[0]
    n = channel.refractive_index
    floor_hz = first.harmonic * C_VACUUM / (n * channel.length_m)
    if first.frequency_hz < floor_hz:
        raise OutOfLoopError(
            f"null at {first.frequency_hz:.1f} Hz (k={first.harmonic}) lies "
            f"below the in-loop floor {floor_hz:.1f} Hz")
    delays = np.array([nf.harmonic / nf.frequency_hz for nf in ordered])
    path = C_VACUUM * float(delays[0]) / n
    x = 0.5 * (channel.length_m - path)
    sigma = None
    if len(ordered) >= 2:
        # Shifted by the first delay, identical delays scatter by exactly 0.
        sigma = (C_VACUUM / (2.0 * n)
                 * float((delays - delays[0]).std(ddof=1)))
    return LocalizationReport(
        nulls=tuple(ordered),
        position_m=x,
        resolution_m=resolution(first, channel, delta_f_hz),
        sigma_position_m=sigma,
        path_difference_m=path,
        mirror_position_m=channel.length_m - x,
    )


def significance(trace: InterferenceTrace) -> tuple[float, float]:
    """Strongest AC component against the noise floor.

    Returns ``(candidate_frequency_hz, peak_to_floor_ratio)`` over the
    spectrum from ``_SIGNIFICANCE_MIN_HZ`` up, where the floor is the median
    spectral power there (:func:`_median`).  A band with no power at all
    grades 0.
    """
    freqs, psd = _welch_psd(trace)
    lo = int(np.searchsorted(freqs, _SIGNIFICANCE_MIN_HZ))
    if lo == freqs.size:
        raise InsufficientDataError("trace too short for a spectral estimate")
    band = psd[lo:]
    floor = _median(band)
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
