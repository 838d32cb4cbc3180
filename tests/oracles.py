"""Independent reference computations used to pin expected test values.

These deliberately avoid the closed forms under test: the port probability
oracle integrates the spectral density numerically, and the Taylor bound
evaluates position differences directly.  The small-signal tone amplitude
is the first-order formula whose zeros define the null frequencies.  The
swept-sine response of a settled drive is kept twice: from Bessel values,
the reference for the sweep's Fourier series to rounding, and point by
point, a trace and its own tone projection per frequency, which the sweep
must match away from the points where sampling folds the drive's
harmonics onto its tone.  The
per-round key oracle draws every BB84 round that the count-level engine
summarizes in one multinomial draw, and the sampled window mean of the
loop phase's harmonics is the reference for the closed-form means of a
key window under a drive; the Fourier orders of a drive, which both of
those closed forms read, are checked against ``scipy.special.jv`` in the
tests themselves.  The WM null angle and delay inversion are found by
bracketed root finding where the library takes closed forms, and the
small-angle contrast ratio is the approximation the exact one is compared
against.  The trace writer, reader and notch scan are kept here one
sample, line or candidate at a time, as the references the whole-column
library code must equal byte for byte; so is an impact's pulse, taken at
every time.  The earlier decimal trace writers, one repr a line or two
columns, write the files the reader must still read.  A drive's net
phase is kept as the difference of its two copies at every time, the
reference for the settled drive's one cosine
to the rounding of their arguments.  The key window's totals are kept as fancy-indexed sums over its class counts, and the Welch spectrum and
significance band as a window built afresh and boolean-mask copies, the
references for the tally matrix, the cached Welch plan and the band
slice, which must give identical values; so are the outcome
probabilities of a round with their Fourier coefficients taken afresh, the
reference for the cached harmonic plan.  The Cramér–Rao bound on a drive's
position from one sweep, which no library code computes, is the yardstick
the localization error is measured against.  So is a key window's breach
probability, a finite binomial sum that draws no window, for the breach
rate of the key engine.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.optimize import brentq
from scipy.special import jv

from sagnacsim import perception, qkd
from sagnacsim.disturbance import (DisturbanceEvent, PztParams,
                                   single_pass_phase)
from sagnacsim.errors import (ConfigError, InsufficientDataError,
                             OutOfBranchError)
from sagnacsim.optics import port_powers
from sagnacsim.perception import (DEFAULT_INPUT_POWER_W, DEFAULT_NOISE_SIGMA,
                                  DEFAULT_SAMPLE_RATE_HZ, FrequencySweep,
                                  InterferenceTrace, measure_tone_amplitude,
                                  synthesize_trace)

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


def ac_amplitude_theory(omega_s_rad_s: float, position_m: float,
                        channel, delta_d_rad: float,
                        input_power_w: float) -> float:
    """Small-signal cross-interference amplitude at the drive frequency.

    ``|I0 * delta_d * sin(omega_s n (L - 2x) / (2 c))|``: zero whenever the
    half-transit phase hits a multiple of pi, which defines the null
    frequencies.  The synthesized trace carries twice this amplitude (the
    difference of the two direction waveforms contributes a factor 2 that
    this normalized form omits); the null positions are unaffected.
    """
    dx = channel.length_m - 2.0 * position_m
    half_transit = omega_s_rad_s * channel.refractive_index * dx / (2.0 * C)
    return abs(input_power_w * delta_d_rad * math.sin(half_transit))


def exact_contrast_ratio(delta_tau: float, delta_epsilon: float,
                         omega0: float) -> float:
    shift = omega0 * delta_tau
    return (math.cos(2.0 * delta_epsilon - 2.0 * shift)
            - math.cos(2.0 * delta_epsilon)) / (
                1.0 - math.cos(2.0 * delta_epsilon))


def approx_contrast_ratio(delta_tau_s: float, delta_epsilon: float,
                          omega0: float, delta_bias: float = 0.0) -> float:
    """Small-angle contrast ratio ``(1 + cos d) * w0 dt / de``.

    It agrees with the exact ratio in the ``w0 dt << de << 1`` regime and
    only at zero bias phase.
    """
    return (1.0 + math.cos(delta_bias)) * omega0 * delta_tau_s / delta_epsilon


def root_found_null_angle(channel, packet, settings) -> float:
    """Analyzer angle of the reflected-output minimum: the root of the
    symmetric finite difference ``I(e + h) - I(e - h)``, bracketed a quarter
    turn either side of ``omega0 * tau mod pi`` and polished to 1e-14 rad."""
    def intensity(eps: float) -> float:
        return port_powers(channel.intrinsic_delay_s, packet, eps,
                           settings.delta_bias_rad,
                           settings.input_power_w)[0]

    guess = (packet.omega0 * channel.intrinsic_delay_s) % math.pi
    h = 0.01
    return brentq(lambda eps: intensity(eps + h) - intensity(eps - h),
                  guess - 0.25 * math.pi, guess + 0.25 * math.pi, xtol=1e-14)


def root_found_shift(icr_value: float, delta_epsilon: float) -> float:
    """Phase shift on the branch ``[de - pi/2, de]`` whose exact contrast
    ratio (at ``omega0 = 1``) is ``icr_value``, by bracketed root finding;
    :class:`OutOfBranchError` outside the ratios of that branch."""
    lo, hi = delta_epsilon - 0.5 * math.pi, delta_epsilon
    icr_lo = exact_contrast_ratio(lo, delta_epsilon, 1.0)
    if not icr_lo <= icr_value <= 1.0:
        raise OutOfBranchError(f"{icr_value} outside [{icr_lo}, 1]")
    if icr_value == 1.0:
        return hi
    return brentq(
        lambda s: exact_contrast_ratio(s, delta_epsilon, 1.0) - icr_value,
        lo, hi, xtol=1e-15, rtol=8.9e-16)


def ac_power_at(trace, frequency_hz: float) -> float:
    """Mean-square power of the tone at ``frequency_hz``."""
    amp = measure_tone_amplitude(trace, frequency_hz)
    return 0.5 * amp * amp


def tone_amplitude(trace, frequency_hz: float) -> float:
    """``2 |sum(w (x - mean x) exp(-2 pi i f t))| / sum(w)`` with ``w`` the
    Hann window, every phasor a complex exponential of its own."""
    w = np.hanning(trace.samples.size)
    x = trace.samples - trace.samples.mean()
    times = np.arange(trace.samples.size) / trace.sample_rate_hz
    phasor = np.exp(-2j * math.pi * frequency_hz * times)
    return 2.0 * abs(np.sum(w * x * phasor)) / w.sum()


def steady_state_response(event, channel, frequencies_hz, n: int,
                          input_power_w=DEFAULT_INPUT_POWER_W):
    """The settled drive's Hann-weighted tone at each grid frequency, from
    Bessel values (``scipy.special.jv``): ``(projections, moments)`` in the
    layout of ``perception._SweepResponse`` for ``n``-sample traces.

    Both copies run, so the net phase is ``A cos(s + phi)`` in ``s = omega
    t``, ``A = 2 peak sin(omega lag / 2)``, ``phi = -omega lag / 2`` and
    ``lag = n (L - 2x) / c``.  With ``Y = b + A cos(s + phi)``, order ``m``
    of ``cos Y`` is ``J_m(A) cos(b + m pi / 2) exp(i m phi)`` (Jacobi–
    Anger), so order -1 of ``c = I0 (1 + cos Y)`` is ``-I0 sin(b) J_1(A)
    exp(-i phi)``: a tone amplitude ``2 I0 |sin b| |J_1(A)|``.  Orders 0
    and -2 of ``c**2 = I0**2 (1.5 + 2 cos Y + 0.5 cos 2Y)`` are ``I0**2
    (1.5 + 2 J_0(A) cos b + 0.5 J_0(2A) cos 2b)`` and ``-I0**2 (2 J_2(A)
    cos b + 0.5 J_2(2A) cos 2b) exp(-2i phi)``.  Under the Hann window
    ``w`` the projection is ``sum(w)`` times order -1 of ``c``, and ``sum
    c**2 |w e|**2`` and ``sum c**2 (w e)**2`` are ``sum(w**2)`` times
    orders 0 and -2 of ``c**2``.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    lag = channel.refractive_index * (channel.length_m
                                      - 2.0 * event.position_m) / C
    omega_lag = 2.0 * math.pi * freqs * lag
    a = 2.0 * event.params.peak_phase_rad * np.sin(0.5 * omega_lag)
    turn = np.exp(0.5j * omega_lag)  # exp(-i phi)
    b, i0 = channel.bias_phase_rad, input_power_w
    c_tone = -i0 * math.sin(b) * jv(1, a) * turn
    cc_mean = i0**2 * (1.5 + 2.0 * jv(0, a) * math.cos(b)
                       + 0.5 * jv(0, 2.0 * a) * math.cos(2.0 * b))
    cc_twice = -i0**2 * (2.0 * jv(2, a) * math.cos(b) + 0.5 * jv(
        2, 2.0 * a) * math.cos(2.0 * b)) * turn**2
    w = np.hanning(n)
    q0, q2 = np.sum(w * w) * cc_mean, np.sum(w * w) * cc_twice
    return w.sum() * c_tone, np.array([0.5 * (q0 + q2.real), 0.5 * q2.imag,
                                       0.5 * (q0 - q2.real)])


def rayleigh_floor(channel, n: int, noise_sigma: float,
                   input_power_w=DEFAULT_INPUT_POWER_W) -> float:
    """Median tone amplitude of the noise of an ``n``-sample drive-off
    trace ``c0 (1 + sigma z)``, ``c0 = I0 (1 + cos b)``: under the Hann
    window ``w`` the projection of ``c0 sigma z`` is complex normal with
    ``E|.|**2 = (c0 sigma)**2 sum(w**2)``, so its amplitude ``2 |.| /
    sum(w)`` is Rayleigh with median ``2 c0 sigma sqrt(sum(w**2) ln 2) /
    sum(w)``, the window sums taken from ``np.hanning``."""
    w = np.hanning(n)
    c0 = input_power_w * (1.0 + math.cos(channel.bias_phase_rad))
    return 2.0 * c0 * noise_sigma * math.sqrt(np.sum(w * w) * math.log(2.0)) \
        / w.sum()


def drawn_noise_floors(channel, frequencies_hz, seeds, *, duration_s=0.01,
                       sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
                       noise_sigma=DEFAULT_NOISE_SIGMA,
                       input_power_w=DEFAULT_INPUT_POWER_W) -> np.ndarray:
    """The noise floor drawn from samples, one for each of ``seeds``: the
    median tone amplitude (:func:`tone_amplitude`, its Hann-weighted
    phasors built once) of the drive-off trace of that seed at every
    ``max(1, points // 16)``-th grid point, 17 points for the default
    293-point grid."""
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    probes = freqs[:: max(1, freqs.size // 16)]
    floors = []
    for seed in seeds:
        quiet = synthesize_trace((), channel, duration_s, sample_rate_hz,
                                 noise_sigma, seed=seed,
                                 input_power_w=input_power_w)
        if not floors:
            n = quiet.samples.size
            w = np.hanning(n)
            times = np.arange(n) / sample_rate_hz
            weighted = w * np.exp(-2j * math.pi * probes[:, None] * times)
        x = quiet.samples - quiet.samples.mean()
        # numpy's own loop: threaded BLAS was slower on this product.
        projections = np.einsum("ij,j->i", weighted, x)
        floors.append(np.median(2.0 * np.abs(projections) / w.sum()))
    return np.array(floors)


def point_by_point_sweep(event, channel, frequencies_hz, *,
                         duration_s=0.01,
                         sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
                         noise_sigma=DEFAULT_NOISE_SIGMA,
                         input_power_w=DEFAULT_INPUT_POWER_W,
                         seed=None) -> FrequencySweep:
    """Swept-sine response one grid point at a time: a fresh drive event
    switched on at 0 s, a trace of it from 1 s on, when both copies have
    long been running, and its tone measurement per frequency, with the
    noise floor of :func:`rayleigh_floor`."""
    if not isinstance(event.params, PztParams):
        raise ValueError("frequency sweeps require a sinusoidal drive")
    rng = np.random.default_rng(seed)
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    amps = np.empty_like(freqs)
    for i, f in enumerate(freqs):
        drive = replace(event.params,
                        frequency_hz=f)
        point = DisturbanceEvent(params=drive, position_m=event.position_m,
                                 start_s=0.0)
        trace = synthesize_trace(
            (point,), channel, duration_s, sample_rate_hz, noise_sigma,
            seed=int(rng.integers(0, 2**31)), input_power_w=input_power_w,
            start_s=1.0)
        amps[i] = tone_amplitude(trace, f)
    floor = rayleigh_floor(channel, trace.samples.size, noise_sigma,
                           input_power_w)
    return FrequencySweep(frequencies_hz=freqs, amplitudes=amps,
                          noise_floor_amplitude=floor)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return "nan"
    return str(value)


def _trace_header(trace) -> str:
    return (f"# sample_rate_hz={_fmt(trace.sample_rate_hz)} "
            f"i0_w={_fmt(trace.input_power_w)} "
            f"noise_sigma={_fmt(trace.noise_sigma)}")


def hex_row(value: float) -> str:
    """One sample's trace row without its line break, from its bit fields:
    sign, "0x", the lead digit 1 for a normal number and 0 for a subnormal
    or zero, ".", the 13 hex digits of the low 52 bits, "p" and the
    exponent, the biased exponent less 1023 or -1022 for a biased exponent
    of 0, as a sign and four digits."""
    [bits] = struct.unpack("<Q", struct.pack("<d", value))
    biased = bits >> 52 & 0x7FF
    return (f"{'-' if bits >> 63 else '+'}0x{int(biased != 0)}."
            f"{bits & (1 << 52) - 1:013x}p{max(biased, 1) - 1023:+05d}")


def per_sample_write_trace(path, trace) -> Path:
    """:func:`sagnacsim.fileio.write_trace` one sample at a time: every
    value written on its own as its :func:`hex_row`."""
    path = Path(path)
    lines = [_trace_header(trace)]
    lines.extend(hex_row(float(v)) for v in trace.samples)
    path.write_text("\n".join(lines) + "\n")
    return path


def hex_line_write_trace(path, trace) -> Path:
    """A trace in the earlier hex format: each sample its ``float.hex``
    literal, of the width that literal has."""
    path = Path(path)
    lines = [_trace_header(trace)]
    lines.extend(float(v).hex() for v in trace.samples)
    path.write_text("\n".join(lines) + "\n")
    return path


def repr_write_trace(path, trace) -> Path:
    """A trace in the earlier decimal one-column format: each sample the
    ``repr`` of its float."""
    path = Path(path)
    lines = [_trace_header(trace)]
    lines.extend(_fmt(v) for v in trace.samples)
    path.write_text("\n".join(lines) + "\n")
    return path


def two_column_write_trace(path, trace) -> Path:
    """A trace in the earlier two-column format: each line the time
    ``k / sample_rate_hz`` of sample ``k``, a space and the sample."""
    path = Path(path)
    times = np.arange(trace.samples.size) / trace.sample_rate_hz
    lines = [_trace_header(trace)]
    lines.extend(f"{_fmt(t)} {_fmt(v)}"
                 for t, v in zip(times, trace.samples))
    path.write_text("\n".join(lines) + "\n")
    return path


_HEX_PREFIXES = ("0x", "0X", "+0x", "+0X", "-0x", "-0X")


def read_literal(value: str) -> float:
    """One trace value by its own syntax: ``float.fromhex`` of a literal
    that starts with a ``0x`` prefix, after an optional sign, and ``float``
    of any other.  A hex literal too large for a float raises
    ``ValueError``, as a malformed one does."""
    if not value.startswith(_HEX_PREFIXES):
        return float(value)
    try:
        return float.fromhex(value)
    except OverflowError as exc:
        raise ValueError(f"{value!r}: {exc}") from None


def read_header_literal(value: str) -> float:
    """One trace header value by the literal rule: a hex literal, known by
    its ``0x`` prefix, by :func:`read_literal`, and any other only if it is
    ASCII without ``_``, so the digit-group underscores and non-ASCII
    digits ``float`` reads raise ``ValueError``."""
    if not value.startswith(_HEX_PREFIXES) and (not value.isascii()
                                                or "_" in value):
        raise ValueError(f"{value!r} is not an ASCII decimal literal")
    return read_literal(value)


_HEADER_KEYS = {"sample_rate_hz", "i0_w", "noise_sigma"}


def per_line_read_trace(path) -> InterferenceTrace:
    """:func:`sagnacsim.fileio.read_trace` one line at a time:
    :func:`read_literal` of the last field of every non-blank body line,
    under a header that holds each of its three keys at most once and no
    other, its values read by :func:`read_header_literal`."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing trace header line")
        meta = {}
        for token in lines[0].lstrip("#").split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"malformed header token {token!r}")
            if key not in _HEADER_KEYS or key in meta:
                raise ValueError(f"bad header key in {token!r}")
            meta[key] = read_header_literal(value)
        for required in ("sample_rate_hz", "i0_w"):
            if required not in meta:
                raise ValueError(f"header missing {required}")
        body = [ln for ln in lines[1:] if ln.strip()]
        if not body:
            raise ValueError("trace has no samples")
        samples = np.array([read_literal(ln.split()[-1]) for ln in body])
        return InterferenceTrace(
            sample_rate_hz=meta["sample_rate_hz"],
            samples=samples,
            input_power_w=meta["i0_w"],
            noise_sigma=meta.get("noise_sigma", 0.0),
        )
    except (OSError, ValueError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def per_candidate_trace_nulls(trace, max_k: int,
                              depth_threshold_db: float):
    """The spectral notch scan of :func:`sagnacsim.perception.
    find_null_frequencies` one bin at a time, with one median per local
    minimum, over the library's spectrum and harmonic assignment."""
    freqs, psd = perception._welch_psd(trace)
    lo = 3
    log_psd = np.full_like(psd, -np.inf)
    positive = psd > 0
    log_psd[positive] = np.log10(psd[positive])
    half_window = max(5, psd.size // 64)
    found_f: list[float] = []
    found_d: list[float] = []
    for i in range(lo + 1, psd.size - 2):
        if not (psd[i] <= psd[i - 1] and psd[i] < psd[i + 1]):
            continue
        lo_w = max(lo, i - half_window)
        hi_w = min(psd.size, i + half_window + 1)
        local_median = float(np.median(psd[lo_w:hi_w]))
        if psd[i] <= 0 or local_median <= 0:
            continue
        depth_db = 10.0 * math.log10(local_median / psd[i])
        if depth_db < depth_threshold_db:
            continue
        found_f.append(float(perception._parabolic_vertex(
            freqs[i - 1], freqs[i], freqs[i + 1],
            log_psd[i - 1], log_psd[i], log_psd[i + 1])))
        found_d.append(float(depth_db))
    if not found_f:
        return []
    bin_hz = freqs[1] - freqs[0]
    return perception._assign_harmonics(found_f, found_d, max_k,
                                        tolerance_hz=2.0 * bin_hz)


def per_candidate_notches(freqs, spectrum, refine, minima, references,
                          max_k: int, depth_threshold_db: float,
                          tolerance_hz: float):
    """:func:`sagnacsim.perception._notches` one minimum at a time, with a
    ``math.log10`` depth for each; a zero ratio is -inf dB, no notch."""
    found_f: list[float] = []
    found_d: list[float] = []
    for i, reference in zip(minima.tolist(), np.broadcast_to(
            references, minima.shape).tolist()):
        if spectrum[i] > 0 and reference / spectrum[i] == 0.0:
            continue
        depth_db = (10.0 * math.log10(reference / spectrum[i])
                    if spectrum[i] > 0 else depth_threshold_db)
        if depth_db < depth_threshold_db:
            continue
        found_f.append(float(perception._parabolic_vertex(
            freqs[i - 1], freqs[i], freqs[i + 1],
            refine[i - 1], refine[i], refine[i + 1])))
        found_d.append(float(depth_db))
    return perception._assign_harmonics(found_f, found_d, max_k,
                                        tolerance_hz)


def two_copy_phase(t, event, channel):
    """:func:`sagnacsim.perception.nonreciprocal_phase` as the two copies
    of the single-pass waveform at every time, ``w(t) - w(t - lag)`` with
    ``lag = n (L - 2x) / c``."""
    t = np.asarray(t, dtype=float)
    lag = channel.refractive_index * (channel.length_m
                                      - 2.0 * event.position_m) / C
    return single_pass_phase(t, event) - single_pass_phase(t - lag, event)


def where_impact_phase(t, params, center_s: float = 0.0):
    """:func:`sagnacsim.disturbance.impact_phase` with the Gaussian taken
    at every time and ``np.where`` zeroing it beyond the reach."""
    t = np.asarray(t, dtype=float)
    dt = t - center_s
    out = np.where(
        np.abs(dt) <= params.reach_s,
        params.peak_phase_rad * np.exp(-0.5 * (dt / params.width_s) ** 2),
        0.0,
    )
    return out if out.ndim else float(out)


def fancy_indexed_window_totals(counts) -> tuple[int, int, int, int]:
    """Clicks reflected, clicks transmitted, sifted bits and errors of a
    window's 32 class counts (choice-major, four click outcomes each), as
    fancy-indexed sums.

    Sifted rounds are single clicks on matched bases; the transmitted port
    (outcome 1) reads bit 1 and the reflected port (outcome 2) bit 0.
    """
    counts = np.asarray(counts).reshape(-1, 4)
    matched = np.flatnonzero(qkd._ALICE_BASIS == qkd._BOB_BASIS)
    return (int(counts[:, 2:].sum()), int(counts[:, 1::2].sum()),
            int(counts[matched, 1:3].sum()),
            int(counts[matched, 1 + qkd._ALICE_BIT[matched]].sum()))


def fresh_welch_psd(trace) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sagnacsim.perception._welch_psd` with its Hann window, power
    sum and frequency axis computed afresh on every call."""
    n, fs = trace.samples.size, trace.sample_rate_hz
    nperseg = max(perception._WELCH_MIN_SEGMENT,
                  2 ** int(math.log2(2 * n / (perception._WELCH_SEGMENTS
                                              + 1))))
    nperseg = min(nperseg, n)
    segments = np.lib.stride_tricks.sliding_window_view(
        trace.samples, nperseg)[::nperseg - nperseg // 2]
    segments = segments - segments.mean(axis=1, keepdims=True)
    w = (0.5 - 0.5 * np.cos(2.0 * math.pi / nperseg * np.arange(nperseg))
         if nperseg > 1 else np.ones(1))
    spectra = np.fft.rfft(w * segments, axis=1)
    psd = (spectra.real ** 2 + spectra.imag ** 2) / (fs * np.sum(w * w))
    psd[:, 1:(nperseg + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd.mean(axis=0)


def masked_significance(trace) -> tuple[float, float]:
    """:func:`sagnacsim.perception.significance` over
    :func:`fresh_welch_psd`, its band taken by boolean masks."""
    freqs, psd = fresh_welch_psd(trace)
    band = freqs >= perception._SIGNIFICANCE_MIN_HZ
    if not np.any(band):
        raise InsufficientDataError("trace too short for a spectral estimate")
    floor = float(np.median(psd[band]))
    idx = int(np.argmax(psd[band]))
    candidate = float(freqs[band][idx])
    peak = float(psd[band][idx])
    if peak == 0.0:
        return candidate, 0.0
    return candidate, peak / floor if floor > 0 else math.inf


def fresh_outcome_probabilities(delta, lam: float, dark: float,
                                phase_noise_rad: float = 0.0,
                                offset_means=None) -> np.ndarray:
    """:func:`sagnacsim.qkd._outcome_probabilities` with its grid
    coefficients, kept harmonics and noise weights computed afresh on every
    call."""
    delta = np.asarray(delta, dtype=float)
    if phase_noise_rad == 0.0 and offset_means is None:
        return qkd._outcome_table(delta, lam, dark)
    n_grid = qkd._grid_size(lam)
    grid = (2.0 * math.pi / n_grid) * np.arange(n_grid)
    coeffs = np.fft.rfft(qkd._outcome_table(grid, lam, dark),
                         axis=0) / n_grid
    k = np.arange(1, n_grid // 2)
    weights = np.exp(-0.5 * (k * phase_noise_rad) ** 2)
    kept = np.flatnonzero(
        np.abs(coeffs[k]).max(axis=1) * weights > qkd._HARMONIC_CUTOFF)
    n_harmonics = int(kept[-1]) + 1 if kept.size else 0
    k, weights = k[:n_harmonics], weights[:n_harmonics].astype(complex)
    if offset_means is not None:
        weights *= offset_means(n_harmonics)
    shifts = np.exp(1j * np.multiply.outer(delta, k)) * weights
    probs = coeffs[0].real + 2.0 * (shifts @ coeffs[1:n_harmonics + 1]).real
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def fresh_class_probabilities(script, offset_means=None) -> np.ndarray:
    """The 32 outcome-class probabilities of a key window of ``script``
    (choice-major, four click outcomes each) from
    :func:`fresh_outcome_probabilities`, the 8 choices equally likely."""
    lam = qkd._signal_rate(script.source, script.channel, script.detector) \
        * qkd._spectral_gain(script.channel, script.packet)
    return fresh_outcome_probabilities(
        qkd._base_phase(qkd._ALICE_BASIS, qkd._ALICE_BIT, qkd._BOB_BASIS),
        lam, script.detector.dark_count_prob_per_gate,
        script.qkd.phase_noise_rad, offset_means).ravel() / 8.0


def window_breach_probability(class_probabilities, n_pulses: int,
                              threshold: float) -> float:
    """Probability that a key window breaches, ``errors > threshold x
    sifted``; a window without sifted bits is no breach, as in
    :func:`sagnacsim.qkd.qber_threshold_check`.

    A window is one multinomial draw of ``n_pulses`` rounds over the 32
    ``class_probabilities`` (choice-major, four click outcomes each), so
    its sifted count ``s`` is binomial in ``n_pulses`` at the sifted
    classes' share, and given ``s`` its error count is binomial in ``s``
    at the errors' share of those.  The breach probability is the finite
    sum over ``s`` of ``P(s)`` times the chance of at least the least
    breaching error count, which is found by the float division
    ``errors / s > threshold`` the engine's estimate takes; ``s`` whose
    ``P(s)`` underflows to 0 add nothing and are skipped.

    Only a window of ``s`` around the mode is summed, doubled in width
    from 8 standard deviations until ``P(s)`` underflows to 0 at both of
    its ends or they reach 1 and ``n_pulses``: ``P(s)`` falls away from
    the mode on either side, so no ``s`` outside adds anything.  At 1e8
    pulses the window holds some 2e4 counts, not 1e8.
    """
    probs = np.asarray(class_probabilities, dtype=float).reshape(-1, 4)
    matched = np.flatnonzero(qkd._ALICE_BASIS == qkd._BOB_BASIS)
    p_sifted = probs[matched, 1:3].sum()
    p_error = probs[matched, 1 + qkd._ALICE_BIT[matched]].sum()
    mode = math.floor((n_pulses + 1) * p_sifted)
    width = max(8, math.ceil(
        8.0 * math.sqrt(n_pulses * p_sifted * (1.0 - p_sifted))))
    while True:
        lo, hi = max(1, mode - width), min(n_pulses, mode + width)
        ends = stats.binom.pmf([lo, hi], n_pulses, p_sifted)
        if (lo == 1 or ends[0] == 0.0) and (hi == n_pulses or ends[1] == 0.0):
            break
        width *= 2
    s = np.arange(lo, hi + 1)
    p_s = stats.binom.pmf(s, n_pulses, p_sifted)
    s, p_s = s[p_s > 0.0], p_s[p_s > 0.0]
    least = np.floor(threshold * s).astype(np.int64) + 1
    least[(least - 1) / s > threshold] -= 1
    least[~(least / s > threshold)] += 1
    return math.fsum(p_s * stats.binom.sf(least - 1, s, p_error / p_sifted))


@dataclass
class RoundLog:
    """Raw per-round draws kept for replay-style property checks."""

    alice_basis: np.ndarray
    alice_bit: np.ndarray
    bob_basis: np.ndarray
    click_reflected: np.ndarray
    click_transmitted: np.ndarray
    sifted: np.ndarray
    bob_bit: np.ndarray


def _draw_rounds(rng, n_pulses, window_start_s, window_s, lam, dark,
                 phase_noise_rad, gpd_offset_fn) -> RoundLog:
    """Every round of a window: its choices, noise and clicks, each pulse
    seeing the offset at its own time."""
    alice_basis = rng.integers(0, 2, n_pulses, dtype=np.int8)
    alice_bit = rng.integers(0, 2, n_pulses, dtype=np.int8)
    bob_basis = rng.integers(0, 2, n_pulses, dtype=np.int8)

    delta = qkd._base_phase(alice_basis, alice_bit, bob_basis)
    if phase_noise_rad > 0.0:
        delta = delta + phase_noise_rad * rng.standard_normal(n_pulses)
    if gpd_offset_fn is not None:
        t = window_start_s + (np.arange(n_pulses) + 0.5) * (window_s / n_pulses)
        delta = delta + gpd_offset_fn(t)

    p_click_r, p_click_t = qkd._click_model(delta, lam, dark)
    click_r = rng.random(n_pulses) < p_click_r
    click_t = rng.random(n_pulses) < p_click_t
    sifted = (alice_basis == bob_basis) & (click_r ^ click_t)
    return RoundLog(alice_basis, alice_bit, bob_basis, click_r, click_t,
                    sifted, click_t[sifted].astype(np.int8))


def per_round_window(rng, n_pulses, window_start_s, window_s, source,
                     channel, detector, packet, phase_noise_rad=0.0,
                     gpd_offset_fn=None):
    """:func:`sagnacsim.qkd.simulate_window` one round at a time: the
    window's record, totalled from the rounds, and the rounds."""
    lam = qkd._signal_rate(source, channel, detector) \
        * qkd._spectral_gain(channel, packet)
    log = _draw_rounds(rng, n_pulses, window_start_s, window_s, lam,
                       detector.dark_count_prob_per_gate, phase_noise_rad,
                       gpd_offset_fn)
    sifted = int(log.sifted.sum())
    errors = int((log.bob_bit != log.alice_bit[log.sifted]).sum())
    record = qkd.SiftedKeyRecord(
        window_start_s=window_start_s,
        pulses_sent=n_pulses,
        clicks_reflected=int(log.click_reflected.sum()),
        clicks_transmitted=int(log.click_transmitted.sum()),
        sifted_bits=sifted,
        errors=errors,
        qber_estimate=errors / sifted if sifted > 0 else None,
        raw_rate_bps=sifted / n_pulses * detector.repetition_rate_hz,
    )
    return record, log


def sampled_phase_means(events, channel, t0, window_s, n_samples, n,
                        chunk=2**18):
    """Mean of ``exp(1j k loop_phase(t))`` for k = 1 .. n over
    ``n_samples`` equally spaced midpoints of ``[t0, t0 + window_s)``,
    the key engine's rule where no closed form applies, summed over
    chunks of ``chunk`` samples."""
    total = np.zeros(n, dtype=complex)
    for lo in range(0, n_samples, chunk):
        t = t0 + (np.arange(lo, min(lo + chunk, n_samples)) + 0.5) \
            * (window_s / n_samples)
        step = np.exp(1j * perception.loop_phase(t, events, channel))
        power = step.copy()
        for k in range(n):
            total[k] += power.sum()
            power *= step
    return total / n_samples


def sweep_position_bound(event, channel, settings) -> float:
    """Cramér–Rao bound (m) on the position of drive ``event`` from one
    noisy sweep over the scan grid of ``settings``, on its sense channel.

    A sweep point is its noise-free projection ``p`` plus a bivariate
    normal of covariance ``C = sigma**2 [[a, h], [h, b]]``, the moments of
    ``perception._sweep_response``, so it carries ``d^T C^-1 d`` of Fisher
    information about the position, ``d`` the derivative of ``(Re p, Im
    p)``, here a central difference at ``x ± 1 cm``.  The position
    dependence of ``C`` is left out, which makes the bound slightly loose,
    and points with a singular ``C`` are skipped.
    """
    sense = settings.sense_channel(channel)
    grid = settings.scan_grid().tobytes()
    n = perception._sample_count(settings.sweep_duration_s,
                                 settings.sample_rate_hz)

    def response(position_m):
        return perception._sweep_response(
            replace(event, position_m=position_m), sense, grid, n,
            settings.input_power_w)

    step = 0.01
    d = (response(event.position_m + step).projections
         - response(event.position_m - step).projections) / (2.0 * step)
    a, h, b = settings.noise_sigma**2 * response(event.position_m).moments
    det = a * b - h * h
    keep = det > 0.0
    info = (b * d.real**2 - 2.0 * h * d.real * d.imag
            + a * d.imag**2)[keep] / det[keep]
    return 1.0 / math.sqrt(math.fsum(info))
