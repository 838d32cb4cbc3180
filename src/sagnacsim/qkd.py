"""Phase-encoded time-division BB84 over the simulated loop.

One party modulates the clockwise pulse, the other the counterclockwise
pulse; the bit travels in the global phase difference between them.  The
session runner draws basis and bit choices, splits the detected rate
between the two ports by interference in that phase difference (one click
model, :func:`_click_model`, with the analyzer parked at the bright working
point), folds in source attenuation, detector efficiency and dark counts,
and accounts sifted bits and errors in fixed windows of simulated time.

Desk-scale accounting: a window simulates ``pulses_per_window`` rounds that
stand in for a full second of 100 MHz operation; rates extrapolate as
``sifted_bits / pulses_sent * repetition_rate``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (Checked, InsufficientDataError, fraction,
                     non_negative, positive)
from .optics import LoopChannel, SpectralPacket

#: One-pass loss budget (dB) that reproduces the reference 22.4 kbps sifted
#: rate at mu = 0.1, 20 % detector efficiency and 100 MHz repetition.
CALIBRATED_LOSS_DB = 16.5

#: Per-gate dark-count probability of the gated single-photon detectors.
CALIBRATED_DARK_PROB = 1e-6

#: Std dev (rad) of the per-round global-phase misalignment that, together
#: with the dark counts above, reproduces the 4.76 % operating error rate.
CALIBRATED_PHASE_NOISE_RAD = 0.43723

_CHUNK = 1_000_000


class Basis(enum.Enum):
    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class BasisBit:
    basis: Basis
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit}")


@dataclass(frozen=True)
class SourceModel(Checked):
    """Attenuated pulsed source in the weak-coherent regime."""

    mean_photon_number: float = positive(0.1)
    pulse_rate_hz: float = positive(100e6)
    pulse_width_s: float = positive(2e-9)


@dataclass(frozen=True)
class DetectorModel(Checked):
    """Gated single-photon detector pair at the two output ports."""

    efficiency: float = fraction(0.2)
    dark_count_prob_per_gate: float = non_negative(CALIBRATED_DARK_PROB)
    gate_width_s: float = positive(2e-9)
    repetition_rate_hz: float = positive(100e6)


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


_PHASES = {
    (Basis.Z, 0): 0.0,
    (Basis.Z, 1): math.pi,
    (Basis.X, 0): 0.5 * math.pi,
    (Basis.X, 1): 1.5 * math.pi,
}


def encode(choice: BasisBit) -> float:
    """Modulator phase for a basis/bit choice.

    Z carries bits on {0, pi}, X on {pi/2, 3pi/2}.  The receiving party
    measures by applying its basis phase (0 or pi/2) to the opposite
    direction, so matched-basis rounds interfere at a global phase
    difference of 0 or pi.
    """
    return _PHASES[(choice.basis, choice.bit)]


def measurement_phase(basis: Basis) -> float:
    """Receiver modulator phase selecting a measurement basis."""
    return encode(BasisBit(basis, 0))


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


def _draw_clicks(rng: np.random.Generator, delta: np.ndarray, lam: float,
                 dark: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-round clicks at both ports, reflected port drawn first."""
    p_click_r, p_click_t = _click_model(delta, lam, dark)
    click_r = rng.random(delta.size) < p_click_r
    return click_r, rng.random(delta.size) < p_click_t


def _spectral_gain(channel: LoopChannel, packet: SpectralPacket | None) -> float:
    # Port probabilities at the bright analyzer point sum to (1 + env)/2,
    # which rescales the per-pulse detected rate for broadband packets.
    if packet is None:
        return 1.0
    tau = channel.total_delay_s
    return 0.5 * (1.0 + math.exp(-((packet.sigma * tau) ** 2)))


def click_probabilities(alice_phase_rad: float, bob_phase_rad: float,
                        source: SourceModel, channel: LoopChannel,
                        detector: DetectorModel,
                        packet: SpectralPacket | None = None,
                        ) -> tuple[float, float]:
    """Per-pulse click probability at the reflected and transmitted ports.

    The polarization analyzer is parked at the bright working point
    (its angle trails the birefringence phase by pi/2) so the port split is
    pure interference in the global phase difference, scaled by the
    spectral gain of the packet.  Each port clicks with
    ``1 - exp(-mu * 10^(-loss/10) * eta_det * P_port)`` plus the dark-count
    probability.
    """
    lam = _signal_rate(source, channel, detector)
    p_r, p_t = _click_model(alice_phase_rad - bob_phase_rad,
                            lam * _spectral_gain(channel, packet),
                            detector.dark_count_prob_per_gate)
    return float(p_r), float(p_t)


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


def simulate_window(rng: np.random.Generator, n_pulses: int,
                    window_start_s: float, window_s: float,
                    source: SourceModel, channel: LoopChannel,
                    detector: DetectorModel,
                    packet: SpectralPacket | None = None,
                    phase_noise_rad: float = 0.0,
                    gpd_offset_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    collect_rounds: bool = False,
                    ) -> tuple[SiftedKeyRecord, Optional[RoundLog]]:
    """Simulate one accounting window of BB84 rounds.

    Rounds are spread uniformly over the window so that a time-varying
    global-phase offset (a dynamic disturbance) is sampled across its
    waveform.  Double clicks are discarded; a window with zero sifted bits
    reports its error rate as absent rather than zero.
    """
    lam = _signal_rate(source, channel, detector) * _spectral_gain(channel, packet)
    dark = detector.dark_count_prob_per_gate

    clicks_r = 0
    clicks_t = 0
    sifted_total = 0
    errors_total = 0
    logs: list[RoundLog] = []

    for lo in range(0, n_pulses, _CHUNK):
        n = min(_CHUNK, n_pulses - lo)
        alice_basis = rng.integers(0, 2, n, dtype=np.int8)
        alice_bit = rng.integers(0, 2, n, dtype=np.int8)
        bob_basis = rng.integers(0, 2, n, dtype=np.int8)

        delta = (0.5 * math.pi) * alice_basis + math.pi * alice_bit \
            - (0.5 * math.pi) * bob_basis
        if phase_noise_rad > 0.0:
            delta = delta + phase_noise_rad * rng.standard_normal(n)
        if gpd_offset_fn is not None:
            t = window_start_s + (lo + np.arange(n) + 0.5) * (window_s / n_pulses)
            delta = delta + gpd_offset_fn(t)

        click_r, click_t = _draw_clicks(rng, delta, lam, dark)

        matched = alice_basis == bob_basis
        single = click_r ^ click_t
        sifted = matched & single
        bob_bit = click_t[sifted].astype(np.int8)
        errs = bob_bit != alice_bit[sifted]

        clicks_r += int(click_r.sum())
        clicks_t += int(click_t.sum())
        sifted_total += int(sifted.sum())
        errors_total += int(errs.sum())
        if collect_rounds:
            logs.append(RoundLog(alice_basis, alice_bit, bob_basis,
                                 click_r, click_t, sifted, bob_bit))

    qber = errors_total / sifted_total if sifted_total > 0 else None
    record = SiftedKeyRecord(
        window_start_s=window_start_s,
        pulses_sent=n_pulses,
        clicks_reflected=clicks_r,
        clicks_transmitted=clicks_t,
        sifted_bits=sifted_total,
        errors=errors_total,
        qber_estimate=qber,
        raw_rate_bps=sifted_total / n_pulses * detector.repetition_rate_hz,
    )
    round_log = None
    if collect_rounds:
        round_log = RoundLog(*[np.concatenate([getattr(l, f) for l in logs])
                               for f in ("alice_basis", "alice_bit", "bob_basis",
                                         "click_reflected", "click_transmitted",
                                         "sifted", "bob_bit")])
    return record, round_log


def run_session(duration_s: float, seed: int, source: SourceModel,
                channel: LoopChannel, detector: DetectorModel,
                packet: SpectralPacket | None = None, *,
                window_s: float = 1.0, pulses_per_window: int = 200_000,
                phase_noise_rad: float = 0.0,
                gpd_offset_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                collect_rounds: bool = False):
    """Run a key session and return its per-window records.

    Deterministic for a given seed and configuration.  With
    ``collect_rounds=True`` also returns the per-round logs for auditing.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n_windows = max(1, int(round(duration_s / window_s)))
    rng = np.random.default_rng(seed)
    records = []
    logs = []
    for i in range(n_windows):
        record, log = simulate_window(
            rng, pulses_per_window, i * window_s, window_s, source, channel,
            detector, packet, phase_noise_rad, gpd_offset_fn, collect_rounds)
        records.append(record)
        if collect_rounds:
            logs.append(log)
    if collect_rounds:
        return records, logs
    return records


def fixed_phase_error_rate(delta_rad: float, n_pulses: int, seed: int,
                           source: SourceModel, channel: LoopChannel,
                           detector: DetectorModel,
                           phase_noise_rad: float = 0.0,
                           ) -> tuple[Optional[float], int, int]:
    """Error rate with the global phase difference pinned for every round.

    The reflected port is the nominal outcome, so any transmitted-only click
    counts as an error.  Returns ``(error_rate, errors, counted_rounds)``
    with the rate absent when no single-click rounds occurred.
    """
    rng = np.random.default_rng(seed)
    lam = _signal_rate(source, channel, detector)
    dark = detector.dark_count_prob_per_gate
    errors = 0
    counted = 0
    for lo in range(0, n_pulses, _CHUNK):
        n = min(_CHUNK, n_pulses - lo)
        delta = np.full(n, delta_rad)
        if phase_noise_rad > 0.0:
            delta = delta + phase_noise_rad * rng.standard_normal(n)
        click_r, click_t = _draw_clicks(rng, delta, lam, dark)
        single = click_r ^ click_t
        errors += int((click_t & single).sum())
        counted += int(single.sum())
    if counted == 0:
        return None, 0, 0
    return errors / counted, errors, counted


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
