"""Phase-encoded time-division BB84 over the simulated loop.

One party modulates the clockwise pulse, the other the counterclockwise
pulse; the bit travels in the global phase difference between them: Z
carries bits on {0, pi}, X on {pi/2, 3pi/2}, and the receiver applies its
basis phase, 0 or pi/2.  One click model, :func:`_click_model`, with the
analyzer parked at the bright working point, splits the detected rate
between the two ports after source attenuation, detector efficiency and
dark counts.  :func:`simulate_window` accounts sifted bits and errors at
count level, at a cost independent of ``pulses_per_window``; a
disturbance's phase offset enters as its window means of
``exp(1j k offset)``, one per harmonic of the click model.  The click
model's harmonics and noise weights depend on no offset, so
:func:`_harmonic_plan` computes them once per ``(lam, dark,
phase_noise_rad)`` and a disturbed window takes only its weighted shifts.
A window's pulses stand in for a full second of 100 MHz operation; rates
extrapolate as ``sifted_bits / pulses_sent * repetition_rate``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (Checked, InsufficientDataError, fraction, non_negative,
                     positive, within)
from .optics import LoopChannel, SpectralPacket, spectral_envelope

#: One-pass loss budget (dB) that reproduces the reference 22.4 kbps sifted
#: rate at mu = 0.1, 20 % detector efficiency and 100 MHz repetition.
CALIBRATED_LOSS_DB = 16.5

#: Per-gate dark-count probability of the gated single-photon detectors.
CALIBRATED_DARK_PROB = 1e-6

#: Std dev (rad) of the per-round global-phase misalignment that, together
#: with the dark counts above, reproduces the 4.76 % operating error rate.
CALIBRATED_PHASE_NOISE_RAD = 0.43723

#: Largest phase noise std (rad) a key session may assume.  From about
#: 9.1 rad on every damped harmonic of the click model is below
#: ``_HARMONIC_CUTOFF``, so a larger std gives the same uniform phase; the
#: bound keeps ``(k sigma)**2`` far inside the float range at every
#: harmonic ``k`` of the grid.
MAX_PHASE_NOISE_RAD = 1e6

#: Longest key window (s) a session may take, a million times the default:
#: the phase a drive sweeps over one window stays far inside the float range.
MAX_WINDOW_S = 1e6

#: Damped Fourier harmonics of the outcome probabilities smaller than this
#: are dropped; the outcomes of a round sum to 1, so it is also relative.
_HARMONIC_CUTOFF = 1e-18

#: Upper limit on the phase grid of the harmonic analysis.
_MAX_GRID = 2**17

#: A run's stages, its key windows included, start only while the time is
#: below ``duration_s`` less this slack (s), which absorbs the rounding of
#: decimal durations, not exact in binary.
START_SLACK_S = 1e-9

#: ``offset_means(n)``: a window's means of ``exp(1j k offset)``, k = 1 .. n.
OffsetMeans = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class SourceModel(Checked):
    """Attenuated pulsed source in the weak-coherent regime, pulsed at the
    detector's ``repetition_rate_hz``."""

    mean_photon_number: float = positive(0.1)


@dataclass(frozen=True)
class DetectorModel(Checked):
    """Gated single-photon detector pair at the two output ports."""

    efficiency: float = fraction(0.2)
    dark_count_prob_per_gate: float = non_negative(CALIBRATED_DARK_PROB)
    repetition_rate_hz: float = positive(100e6)


@dataclass(frozen=True)
class QkdSettings(Checked):
    """Key-session windowing, the phase noise and the breach threshold."""

    window_s: float = within(0, MAX_WINDOW_S, 1.0, ends="(]")
    # The window's multinomial draw counts in 64-bit integers.
    pulses_per_window: int = within(1, 2**63, 200_000, ends="[)")
    phase_noise_rad: float = within(0, MAX_PHASE_NOISE_RAD,
                                    CALIBRATED_PHASE_NOISE_RAD)
    qber_threshold: float = within(0, 1, 0.08, ends="()")


@dataclass(frozen=True)
class SiftedKeyRecord:
    """Per-window detection and sifting statistics."""

    window_start_s: float
    pulses_sent: int
    clicks_reflected: int
    clicks_transmitted: int
    sifted_bits: int
    errors: int
    qber_estimate: Optional[float]
    raw_rate_bps: float

    def __post_init__(self):
        if self.errors > self.sifted_bits:
            raise ValueError("errors cannot exceed sifted bits")


def _signal_rate(source: SourceModel, channel: LoopChannel,
                 detector: DetectorModel) -> float:
    """Mean detected photon number per pulse before interference splitting."""
    transmittance = 10.0 ** (-channel.loss_db / 10.0)
    return source.mean_photon_number * transmittance * detector.efficiency


def _click_model(delta, lam: float, dark: float):
    """Click probabilities at the reflected and transmitted ports for global
    phase differences ``delta`` (array or scalar).

    The reflected port takes ``(1 + cos delta)/2`` of the detected rate
    ``lam``; each port clicks with ``1 - exp(-lam * P_port)`` plus the
    dark-count probability.
    """
    p_reflected_port = 0.5 * (1.0 + np.cos(delta))
    return (np.minimum(-np.expm1(-lam * p_reflected_port) + dark, 1.0),
            np.minimum(-np.expm1(-lam * (1.0 - p_reflected_port)) + dark, 1.0))


def _outcome_table(delta, lam: float, dark: float) -> np.ndarray:
    """Probabilities of the four click outcomes of one round at global phase
    differences ``delta``.

    The last axis runs over (no click, transmitted only, reflected only,
    both), i.e. index ``2 * click_reflected + click_transmitted``.
    """
    p_r, p_t = _click_model(delta, lam, dark)
    q_r, q_t = 1.0 - p_r, 1.0 - p_t
    return np.stack([q_r * q_t, q_r * p_t, p_r * q_t, p_r * p_t], axis=-1)


def _grid_size(lam: float) -> int:
    # Each outcome probability is a constant plus multiples of
    # exp(-lam (1 +- cos delta) / 2), whose harmonic k, exp(-lam/2)
    # I_k(lam/2), is below 1e-18 beyond k = 12 + 7 sqrt(lam); a grid of
    # more than twice that many points aliases nothing above it.
    harmonics = 12 + math.ceil(7.0 * math.sqrt(lam))
    return min(_MAX_GRID, 1 << (2 * harmonics + 1).bit_length())


@functools.lru_cache(maxsize=64)
def _harmonic_plan(lam: float, dark: float, phase_noise_rad: float,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half of :func:`_outcome_probabilities` that no offset enters:
    the kept harmonics ``k = 1 .. n``, their noise weights ``exp(-k^2
    sigma^2 / 2)`` and the outcome table's Fourier coefficients of orders
    ``0 .. n``, computed once per ``(lam, dark, phase_noise_rad)`` and
    shared read-only."""
    n_grid = _grid_size(lam)
    grid = (2.0 * math.pi / n_grid) * np.arange(n_grid)
    coeffs = np.fft.rfft(_outcome_table(grid, lam, dark), axis=0) / n_grid
    k = np.arange(1, n_grid // 2)
    weights = np.exp(-0.5 * (k * phase_noise_rad) ** 2)
    kept = np.flatnonzero(
        np.abs(coeffs[k]).max(axis=1) * weights > _HARMONIC_CUTOFF)
    n_harmonics = int(kept[-1]) + 1 if kept.size else 0
    plan = (k[:n_harmonics].copy(), weights[:n_harmonics].astype(complex),
            coeffs[:n_harmonics + 1].copy())
    for array in plan:
        array.flags.writeable = False
    return plan


def _outcome_probabilities(delta, lam: float, dark: float,
                           phase_noise_rad: float = 0.0,
                           offset_means: Optional[OffsetMeans] = None,
                           ) -> np.ndarray:
    """:func:`_outcome_table` at base phases ``delta``, averaged over
    Gaussian phase noise of std ``phase_noise_rad`` and over a time-varying
    offset, whose means of ``exp(1j k offset)`` for k = 1 .. n
    ``offset_means(n)`` returns.

    The table is a smooth 2 pi-periodic function of the total phase, so its
    Fourier harmonic k is multiplied by ``exp(-k^2 sigma^2 / 2)`` under the
    noise and by the offset's mean of ``exp(1j k offset)``; harmonics whose
    damped size falls below ``_HARMONIC_CUTOFF`` are dropped
    (:func:`_harmonic_plan`).  This is exact to that cutoff unless a port's
    click probability is clipped at 1, which takes ``lam`` above about
    ``ln(1 / dark)``, or the grid would exceed ``_MAX_GRID``.  Without
    noise or offset the table is evaluated directly, so an outcome that is
    impossible at a phase keeps probability exactly 0.
    """
    delta = np.asarray(delta, dtype=float)
    if phase_noise_rad == 0.0 and offset_means is None:
        return _outcome_table(delta, lam, dark)
    k, weights, coeffs = _harmonic_plan(lam, dark, phase_noise_rad)
    if offset_means is not None:
        weights = weights * offset_means(k.size)
    shifts = np.exp(1j * np.multiply.outer(delta, k)) * weights
    probs = coeffs[0].real + 2.0 * (shifts @ coeffs[1:]).real
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def _spectral_gain(channel: LoopChannel, packet: SpectralPacket) -> float:
    # Port probabilities at the bright analyzer point sum to (1 + env)/2,
    # which rescales the per-pulse detected rate for broadband packets; a
    # monochromatic packet's gain is exactly 1.
    return 0.5 * (1.0 + spectral_envelope(packet, channel.intrinsic_delay_s))


#: Alice basis, Alice bit and Bob basis of the 8 equally likely choices.
_ALICE_BASIS, _ALICE_BIT, _BOB_BASIS = np.indices((2, 2, 2)).reshape(3, -1)


def _tally_matrix() -> np.ndarray:
    # Row 4 c + o of the 32 classes (choice c, click outcome o) counts
    # towards clicks reflected, clicks transmitted, sifted bits and errors.
    # Sifted rounds are single clicks on matched bases; the transmitted
    # port (outcome 1) reads bit 1 and the reflected port (outcome 2) bit 0.
    outcome = np.arange(4)
    single = (outcome == 1) | (outcome == 2)
    matched = (_ALICE_BASIS == _BOB_BASIS)[:, None]
    tally = np.stack(np.broadcast_arrays(
        outcome >= 2, outcome % 2 == 1, matched & single,
        matched & (outcome == 1 + _ALICE_BIT[:, None])), axis=-1)
    tally = tally.reshape(32, 4).astype(np.int64)
    tally.flags.writeable = False
    return tally


#: The 32 x 4 0/1 matrix taking a window's class counts to its totals.
_TALLY = _tally_matrix()


def _base_phase(alice_basis, alice_bit, bob_basis):
    """Global phase difference of a round before noise and offsets."""
    return (0.5 * math.pi) * alice_basis + math.pi * alice_bit \
        - (0.5 * math.pi) * bob_basis


def _class_probabilities(lam: float, dark: float, phase_noise_rad: float,
                         offset_means: Optional[OffsetMeans]) -> np.ndarray:
    """Probabilities of the 32 outcome classes of a round: the 8 equally
    likely choices times their 4 click outcomes, flattened choice-major."""
    probs = _outcome_probabilities(
        _base_phase(_ALICE_BASIS, _ALICE_BIT, _BOB_BASIS), lam, dark,
        phase_noise_rad, offset_means)
    return probs.ravel() / probs.shape[0]


@functools.lru_cache(maxsize=64)
def _steady_class_probabilities(lam: float, dark: float,
                                phase_noise_rad: float) -> np.ndarray:
    """:func:`_class_probabilities` without a phase offset, computed once
    per ``(lam, dark, phase_noise_rad)`` and shared read-only by every
    window that draws from it."""
    probs = _class_probabilities(lam, dark, phase_noise_rad, None)
    probs.flags.writeable = False
    return probs


def _count_window(rng: np.random.Generator, n_pulses: int, lam: float,
                  dark: float, phase_noise_rad: float,
                  offset_means: Optional[OffsetMeans],
                  ) -> tuple[int, int, int, int]:
    """Window totals from one multinomial draw over the 32 outcome classes,
    summed by ``_TALLY``.

    A time-varying offset enters through its window means
    (``offset_means``), so the class probabilities are those of a round at
    a time drawn uniformly from the window.  The rounds are then not
    identically distributed, and the variance of the one multinomial
    differs from that of the per-round sum by a relative amount of the
    order of the largest per-round click probability (about 5e-4 at the
    defaults).
    """
    if offset_means is None:
        probs = _steady_class_probabilities(lam, dark, phase_noise_rad)
    else:
        probs = _class_probabilities(lam, dark, phase_noise_rad,
                                     offset_means)
    return tuple((rng.multinomial(n_pulses, probs) @ _TALLY).tolist())


def simulate_window(rng: np.random.Generator, n_pulses: int,
                    window_start_s: float, source: SourceModel,
                    channel: LoopChannel, detector: DetectorModel,
                    packet: SpectralPacket,
                    phase_noise_rad: float = 0.0,
                    offset_means: Optional[OffsetMeans] = None,
                    ) -> tuple[SiftedKeyRecord, None]:
    """Simulate one accounting window of BB84 rounds.

    A time-varying global-phase offset (a dynamic disturbance) enters as
    its means over the window, ``offset_means(n)`` for harmonics 1 .. n.
    Double clicks are discarded; a window with zero sifted bits reports
    its error rate as absent rather than zero.  The totals come from one
    multinomial draw (:func:`_count_window`).  Returns ``(record, None)``
    for the callers that unpack a pair.
    """
    lam = _signal_rate(source, channel, detector) * _spectral_gain(channel, packet)
    clicks_r, clicks_t, sifted, errors = _count_window(
        rng, n_pulses, lam, detector.dark_count_prob_per_gate,
        phase_noise_rad, offset_means)
    record = SiftedKeyRecord(
        window_start_s=window_start_s,
        pulses_sent=n_pulses,
        clicks_reflected=clicks_r,
        clicks_transmitted=clicks_t,
        sifted_bits=sifted,
        errors=errors,
        qber_estimate=errors / sifted if sifted > 0 else None,
        raw_rate_bps=sifted / n_pulses * detector.repetition_rate_hz,
    )
    return record, None


def run_session(duration_s: float, seed: int, source: SourceModel,
                channel: LoopChannel, detector: DetectorModel,
                packet: SpectralPacket,
                settings: QkdSettings = QkdSettings(),
                ) -> list[SiftedKeyRecord]:
    """Run a key session on the undisturbed loop and return its per-window
    records, one for each of the :func:`window_count` windows.

    Window ``k`` starts at ``k * window_s``, as in the integrated workflow,
    so a run without breaches stamps the same start times under both.
    Deterministic for a given seed and configuration.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    dt = settings.window_s
    rng = np.random.default_rng(seed)
    return [simulate_window(rng, settings.pulses_per_window, k * dt,
                            source, channel, detector, packet,
                            settings.phase_noise_rad)[0]
            for k in range(window_count(duration_s, dt))]


def window_count(duration_s: float, window_s: float) -> int:
    """Number of key windows of a run without breaches: those that start
    before ``duration_s`` less ``START_SLACK_S``; ``math.inf`` past the
    float range."""
    windows = (duration_s - START_SLACK_S) / window_s
    return max(0, math.ceil(windows)) if math.isfinite(windows) else math.inf


def qber_threshold_check(record: SiftedKeyRecord, threshold: float) -> bool:
    """True iff the window's error estimate strictly exceeds the threshold.

    A window without an estimate (no sifted bits) is neither a breach nor a
    pass; it raises so callers must handle the no-data case explicitly.
    """
    if record.qber_estimate is None:
        raise InsufficientDataError(
            "window has no sifted bits, error rate is undefined")
    return record.qber_estimate > threshold


def session_summary(records: Sequence[SiftedKeyRecord]) -> dict:
    """Pooled statistics over a sequence of window records."""
    pulses = sum(r.pulses_sent for r in records)
    sifted = sum(r.sifted_bits for r in records)
    errors = sum(r.errors for r in records)
    mean_rate = (sum(r.raw_rate_bps for r in records) / len(records)
                 if records else 0.0)
    return {
        "windows": len(records),
        "pulses_sent": pulses,
        "sifted_bits": sifted,
        "errors": errors,
        "qber_pooled": errors / sifted if sifted else None,
        "mean_raw_rate_bps": mean_rate,
    }
