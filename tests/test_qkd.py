import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from sagnacsim.errors import InsufficientDataError
from sagnacsim.optics import (LoopChannel, PostSelection, SpectralPacket,
                             omega_from_wavelength,
                             post_selection_probabilities, relative_phase)
from sagnacsim.qkd import (Basis, BasisBit, DetectorModel, SiftedKeyRecord,
                           SourceModel, click_probabilities, encode,
                           fixed_phase_error_rate, measurement_phase,
                           qber_threshold_check, run_session,
                           session_summary, simulate_window)

SOURCE = SourceModel()


def detector(dark=0.0):
    return DetectorModel(dark_count_prob_per_gate=dark)


def channel(loss_db=16.5):
    return LoopChannel(length_m=30000.0, intrinsic_delay_s=3e-13,
                       loss_db=loss_db)


class TestEncode:
    @pytest.mark.parametrize("basis,bit,phase", [
        (Basis.Z, 0, 0.0),
        (Basis.Z, 1, math.pi),
        (Basis.X, 0, 0.5 * math.pi),
        (Basis.X, 1, 1.5 * math.pi),
    ])
    def test_phase_map(self, basis, bit, phase):
        assert encode(BasisBit(basis, bit)) == phase

    def test_matched_bases_interfere_on_axis(self):
        for basis in Basis:
            for bit in (0, 1):
                delta = encode(BasisBit(basis, bit)) - measurement_phase(basis)
                assert math.cos(delta) == pytest.approx(1.0 - 2.0 * bit,
                                                        abs=1e-15)

    def test_mismatched_bases_are_balanced(self):
        for basis, other in ((Basis.Z, Basis.X), (Basis.X, Basis.Z)):
            for bit in (0, 1):
                delta = encode(BasisBit(basis, bit)) - measurement_phase(other)
                assert math.cos(delta) == pytest.approx(0.0, abs=1e-15)


class TestClickProbabilities:
    def test_ideal_dark_port(self):
        src = SourceModel(mean_photon_number=0.1)
        p_r, p_t = click_probabilities(0.0, 0.0, src, channel(loss_db=0.0),
                                       DetectorModel(efficiency=1.0,
                                                     dark_count_prob_per_gate=0.0))
        assert p_t == 0.0
        assert p_r == pytest.approx(-math.expm1(-0.1), rel=1e-12)

    def test_calibrated_operating_point(self):
        # Back-solve oracle: mu * 10^(-16.5/10) * eta at the bright port.
        exponent = 0.1 * 10 ** (-1.65) * 0.2
        p_r, p_t = click_probabilities(0.0, 0.0, SOURCE, channel(16.5),
                                       detector(dark=0.0))
        assert p_r == pytest.approx(-math.expm1(-exponent), rel=1e-12)
        assert p_r == pytest.approx(4.479e-4, rel=2e-3)
        assert p_t == 0.0
        # sifted rate implied by the calibration
        assert 100e6 * p_r * 0.5 == pytest.approx(22400.0, rel=0.01)

    def test_vacuum_limit(self):
        src = SourceModel(mean_photon_number=1e-12)
        p_r, p_t = click_probabilities(0.3, 0.1, src, channel(),
                                       detector(dark=3e-5))
        assert p_r == pytest.approx(3e-5, rel=1e-3)
        assert p_t == pytest.approx(3e-5, rel=1e-3)

    def test_broadband_packet_matches_port_formula(self):
        # sigma * tau = 0.6: the spectral envelope cuts the bright-point
        # port sum to (1 + exp(-0.36))/2.
        packet = SpectralPacket(omega_from_wavelength(1550e-9), 2e12)
        chan = channel()
        dark = 1e-6
        lam = 0.1 * 10 ** (-1.65) * 0.2
        bright = PostSelection(
            base_angle_rad=relative_phase(chan, packet) - 0.5 * math.pi)
        for alice, bob in ((0.0, 0.0), (0.7, 0.2), (0.5 * math.pi, 0.0),
                           (math.pi, 0.3)):
            ports = post_selection_probabilities(
                replace(chan, bias_phase_rad=alice - bob), packet, bright)
            p_r, p_t = click_probabilities(alice, bob, SOURCE, chan,
                                           detector(dark=dark), packet)
            assert p_r == pytest.approx(
                1.0 - math.exp(-lam * ports.reflected) + dark, rel=1e-9)
            assert p_t == pytest.approx(
                1.0 - math.exp(-lam * ports.transmitted) + dark, rel=1e-9)


class TestRunSession:
    def test_noise_free_error_floor(self):
        records = run_session(5.0, 11, SOURCE, channel(), detector(dark=0.0),
                              pulses_per_window=100_000)
        assert len(records) == 5
        for r in records:
            assert r.errors == 0
            assert r.qber_estimate in (0.0, None)

    def test_determinism(self):
        a = run_session(3.0, 17, SOURCE, channel(), detector(dark=1e-6),
                        pulses_per_window=50_000, phase_noise_rad=0.4)
        b = run_session(3.0, 17, SOURCE, channel(), detector(dark=1e-6),
                        pulses_per_window=50_000, phase_noise_rad=0.4)
        assert json.dumps([asdict(r) for r in a]) == \
            json.dumps([asdict(r) for r in b])

    def test_seed_changes_stream(self):
        a = run_session(2.0, 1, SOURCE, channel(), detector(dark=1e-6),
                        pulses_per_window=200_000)
        b = run_session(2.0, 2, SOURCE, channel(), detector(dark=1e-6),
                        pulses_per_window=200_000)
        assert [r.sifted_bits for r in a] != [r.sifted_bits for r in b]

    def test_sifting_soundness(self):
        records, logs = run_session(
            2.0, 23, SOURCE, channel(loss_db=3.0), detector(dark=1e-5),
            pulses_per_window=100_000, phase_noise_rad=0.3,
            collect_rounds=True)
        for record, log in zip(records, logs):
            # replay: every sifted round had matching bases and exactly one
            # click; recount matches the record
            matched = log.alice_basis == log.bob_basis
            single = log.click_reflected ^ log.click_transmitted
            assert np.array_equal(log.sifted, matched & single)
            assert record.sifted_bits == int(log.sifted.sum())
            bob = log.click_transmitted[log.sifted].astype(np.int8)
            assert record.errors == int(
                (bob != log.alice_bit[log.sifted]).sum())

    def test_empty_window_reports_absent_estimate(self):
        # Absurd loss and no darks: no clicks at all.
        records = run_session(1.0, 3, SOURCE, channel(loss_db=300.0),
                              detector(dark=0.0), pulses_per_window=10_000)
        assert records[0].sifted_bits == 0
        assert records[0].qber_estimate is None

    def test_rate_monotone_in_loss(self):
        rates = []
        for loss in (10.0, 16.5, 25.0):
            records = run_session(1.0, 31, SOURCE, channel(loss_db=loss),
                                  detector(dark=1e-6),
                                  pulses_per_window=1_000_000)
            rates.append(session_summary(records)["mean_raw_rate_bps"])
        assert rates[0] > rates[1] > rates[2]

    def test_rate_monotone_in_mean_photon_number(self):
        rates = []
        for mu in (0.05, 0.1, 0.2):
            src = SourceModel(mean_photon_number=mu)
            records = run_session(1.0, 37, src, channel(), detector(dark=1e-6),
                                  pulses_per_window=1_000_000)
            rates.append(session_summary(records)["mean_raw_rate_bps"])
        assert rates[0] < rates[1] < rates[2]

    def test_dark_count_dominance(self):
        # With the signal extinguished, darks split evenly between ports.
        records = run_session(1.0, 41, SOURCE, channel(loss_db=300.0),
                              DetectorModel(dark_count_prob_per_gate=2e-4),
                              pulses_per_window=2_000_000)
        summary = session_summary(records)
        qber = summary["qber_pooled"]
        n = summary["sifted_bits"]
        assert n > 50
        assert abs(qber - 0.5) < 3.0 * math.sqrt(0.25 / n)


class TestFixedPhase:
    def test_calibrated_noise_reproduces_operating_error_rate(self):
        from sagnacsim.qkd import CALIBRATED_PHASE_NOISE_RAD
        qber, _, n = fixed_phase_error_rate(
            0.0, 4_000_000, 5, SOURCE, channel(16.5), detector(dark=1e-6),
            phase_noise_rad=CALIBRATED_PHASE_NOISE_RAD)
        assert abs(qber - 0.0476) < 3.0 * math.sqrt(0.0476 * 0.9524 / n)

    def test_quarter_turn_is_half_error(self):
        qber, _, n = fixed_phase_error_rate(
            0.5 * math.pi, 500_000, 7, SOURCE, channel(loss_db=0.0),
            detector(dark=0.0))
        assert n > 1000
        assert abs(qber - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_zero_phase_is_error_free(self):
        qber, errors, n = fixed_phase_error_rate(
            0.0, 200_000, 7, SOURCE, channel(loss_db=0.0), detector(dark=0.0))
        assert errors == 0 and qber == 0.0 and n > 0


class TestThresholdCheck:
    def record(self, qber):
        return SiftedKeyRecord(0.0, 1000, 10, 10, 100,
                               int(round(qber * 100)) if qber is not None else 0,
                               qber, 1.0)

    def test_nominal_no_breach(self):
        assert qber_threshold_check(self.record(0.047), 0.08) is False

    def test_breach(self):
        assert qber_threshold_check(self.record(0.30), 0.08) is True

    def test_tie_is_not_a_breach(self):
        assert qber_threshold_check(self.record(0.08), 0.08) is False

    def test_absent_estimate(self):
        rec = SiftedKeyRecord(0.0, 1000, 0, 0, 0, 0, None, 0.0)
        with pytest.raises(InsufficientDataError):
            qber_threshold_check(rec, 0.08)
