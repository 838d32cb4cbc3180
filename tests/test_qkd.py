import functools
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats

from sagnacsim import perception, qkd
from sagnacsim.config import parse_config_dict
from sagnacsim.errors import InsufficientDataError
from sagnacsim.optics import (LoopChannel, SpectralPacket,
                             omega_from_wavelength, port_powers)
from sagnacsim.qkd import (DetectorModel, QkdSettings, SiftedKeyRecord,
                           SourceModel, qber_threshold_check, run_session,
                           session_summary, simulate_window)

from oracles import (fancy_indexed_window_totals, fresh_class_probabilities,
                     fresh_outcome_probabilities, per_round_window,
                     sampled_phase_means, window_breach_probability)

SOURCE = SourceModel()

#: The monochromatic 1550 nm packet, whose spectral gain is exactly 1.
PACKET = SpectralPacket.from_wavelength()


def detector(dark=0.0):
    return DetectorModel(dark_count_prob_per_gate=dark)


def channel(loss_db=16.5):
    return LoopChannel(length_m=30000.0, intrinsic_delay_s=3e-13,
                       loss_db=loss_db)


# Bases are 0 (Z) and 1 (X).
Z, X = 0, 1


class TestEncode:
    """The key engine's encoding, ``qkd._base_phase(alice basis, alice bit,
    bob basis)``: Z carries bits on {0, pi}, X on {pi/2, 3pi/2}."""

    @pytest.mark.parametrize("basis,bit,phase", [
        (Z, 0, 0.0),
        (Z, 1, math.pi),
        (X, 0, 0.5 * math.pi),
        (X, 1, 1.5 * math.pi),
    ])
    def test_phase_map(self, basis, bit, phase):
        assert qkd._base_phase(basis, bit, Z) == phase

    def test_matched_bases_interfere_on_axis(self):
        for basis in (Z, X):
            for bit in (0, 1):
                delta = qkd._base_phase(basis, bit, basis)
                assert math.cos(delta) == pytest.approx(1.0 - 2.0 * bit,
                                                        abs=1e-15)

    def test_mismatched_bases_are_balanced(self):
        for basis, other in ((Z, X), (X, Z)):
            for bit in (0, 1):
                delta = qkd._base_phase(basis, bit, other)
                assert math.cos(delta) == pytest.approx(0.0, abs=1e-15)


def click_probabilities(delta, source, chan, det, packet=PACKET):
    """The engine's per-pulse click probabilities at the two ports for a
    global phase difference ``delta``."""
    lam = (qkd._signal_rate(source, chan, det)
           * qkd._spectral_gain(chan, packet))
    p_r, p_t = qkd._click_model(delta, lam, det.dark_count_prob_per_gate)
    return float(p_r), float(p_t)


class TestClickProbabilities:
    def test_ideal_dark_port(self):
        src = SourceModel(mean_photon_number=0.1)
        p_r, p_t = click_probabilities(0.0, src, channel(loss_db=0.0),
                                       DetectorModel(efficiency=1.0,
                                                     dark_count_prob_per_gate=0.0))
        assert p_t == 0.0
        assert p_r == pytest.approx(-math.expm1(-0.1), rel=1e-12)

    def test_calibrated_operating_point(self):
        # Back-solve oracle: mu * 10^(-16.5/10) * eta at the bright port.
        exponent = 0.1 * 10 ** (-1.65) * 0.2
        p_r, p_t = click_probabilities(0.0, SOURCE, channel(16.5),
                                       detector(dark=0.0))
        assert p_r == pytest.approx(-math.expm1(-exponent), rel=1e-12)
        assert p_r == pytest.approx(4.479e-4, rel=2e-3)
        assert p_t == 0.0
        # sifted rate implied by the calibration
        assert 100e6 * p_r * 0.5 == pytest.approx(22400.0, rel=0.01)

    def test_vacuum_limit(self):
        src = SourceModel(mean_photon_number=1e-12)
        p_r, p_t = click_probabilities(0.3 - 0.1, src, channel(),
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
        tau = chan.intrinsic_delay_s
        bright = packet.omega0 * tau - 0.5 * math.pi
        for alice, bob in ((0.0, 0.0), (0.7, 0.2), (0.5 * math.pi, 0.0),
                           (math.pi, 0.3)):
            reflected, transmitted = port_powers(tau, packet, bright,
                                                 alice - bob, 1.0)
            p_r, p_t = click_probabilities(alice - bob, SOURCE, chan,
                                           detector(dark=dark), packet)
            assert p_r == pytest.approx(
                1.0 - math.exp(-lam * reflected) + dark, rel=1e-9)
            assert p_t == pytest.approx(
                1.0 - math.exp(-lam * transmitted) + dark, rel=1e-9)


class TestRunSession:
    def test_noise_free_error_floor(self):
        records = run_session(5.0, 11, SOURCE, channel(), detector(dark=0.0),
                              PACKET, QkdSettings(pulses_per_window=100_000,
                                                  phase_noise_rad=0.0))
        assert len(records) == 5
        for r in records:
            assert r.errors == 0
            assert r.qber_estimate in (0.0, None)

    def test_determinism(self):
        a = run_session(3.0, 17, SOURCE, channel(), detector(dark=1e-6),
                        PACKET, QkdSettings(pulses_per_window=50_000,
                                            phase_noise_rad=0.4))
        b = run_session(3.0, 17, SOURCE, channel(), detector(dark=1e-6),
                        PACKET, QkdSettings(pulses_per_window=50_000,
                                            phase_noise_rad=0.4))
        assert json.dumps([asdict(r) for r in a]) == \
            json.dumps([asdict(r) for r in b])

    def test_seed_changes_stream(self):
        a = run_session(2.0, 1, SOURCE, channel(), detector(dark=1e-6),
                        PACKET, QkdSettings(pulses_per_window=200_000,
                                            phase_noise_rad=0.0))
        b = run_session(2.0, 2, SOURCE, channel(), detector(dark=1e-6),
                        PACKET, QkdSettings(pulses_per_window=200_000,
                                            phase_noise_rad=0.0))
        assert [r.sifted_bits for r in a] != [r.sifted_bits for r in b]

    def test_sifting_soundness(self):
        rng = np.random.default_rng(23)
        for start in (0.0, 1.0):
            record, log = per_round_window(
                rng, 100_000, start, 1.0, SOURCE, channel(loss_db=3.0),
                detector(dark=1e-5), PACKET, phase_noise_rad=0.3)
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
                              detector(dark=0.0),
                              PACKET, QkdSettings(pulses_per_window=10_000,
                                                  phase_noise_rad=0.0))
        assert records[0].sifted_bits == 0
        assert records[0].qber_estimate is None

    def test_rate_monotone_in_loss(self):
        rates = []
        for loss in (10.0, 16.5, 25.0):
            records = run_session(1.0, 31, SOURCE, channel(loss_db=loss),
                                  detector(dark=1e-6),
                                  PACKET, QkdSettings(
                                      pulses_per_window=1_000_000,
                                      phase_noise_rad=0.0))
            rates.append(session_summary(records)["mean_raw_rate_bps"])
        assert rates[0] > rates[1] > rates[2]

    def test_rate_monotone_in_mean_photon_number(self):
        rates = []
        for mu in (0.05, 0.1, 0.2):
            src = SourceModel(mean_photon_number=mu)
            records = run_session(1.0, 37, src, channel(), detector(dark=1e-6),
                                  PACKET, QkdSettings(
                                      pulses_per_window=1_000_000,
                                      phase_noise_rad=0.0))
            rates.append(session_summary(records)["mean_raw_rate_bps"])
        assert rates[0] < rates[1] < rates[2]

    def test_dark_count_dominance(self):
        # With the signal extinguished, darks split evenly between ports.
        records = run_session(1.0, 41, SOURCE, channel(loss_db=300.0),
                              DetectorModel(dark_count_prob_per_gate=2e-4),
                              PACKET, QkdSettings(
                                  pulses_per_window=2_000_000,
                                  phase_noise_rad=0.0))
        summary = session_summary(records)
        qber = summary["qber_pooled"]
        n = summary["sifted_bits"]
        assert n > 50
        assert abs(qber - 0.5) < 3.0 * math.sqrt(0.25 / n)


class TestWindowCount:
    @pytest.mark.parametrize("duration_s, window_s, windows", [
        (20.0, 1.0, 20), (4.05, 0.5, 9), (0.3, 0.1, 3), (6.0, 1.5, 4),
        (1e-10, 1.0, 0), (1e308, 1e-300, math.inf)])
    def test_windows_start_before_the_end(self, duration_s, window_s,
                                          windows):
        assert qkd.window_count(duration_s, window_s) == windows

    def test_session_runs_every_counted_window(self):
        records = run_session(4.05, 1, SOURCE, channel(), detector(),
                              PACKET, QkdSettings(window_s=0.5,
                                                  pulses_per_window=1000))
        assert [r.window_start_s for r in records] == \
            [0.5 * i for i in range(9)]


class TestSteadyProbabilities:
    def test_shared_read_only(self):
        first = qkd._steady_class_probabilities(0.01, 1e-6, 0.4)
        assert qkd._steady_class_probabilities(0.01, 1e-6, 0.4) is first
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert first.shape == (32,)
        assert first.sum() == pytest.approx(1.0, rel=1e-12)

    def test_quiet_session_computes_them_once(self):
        qkd._steady_class_probabilities.cache_clear()
        run_session(5.0, 3, SOURCE, channel(loss_db=7.25), detector(),
                    PACKET, QkdSettings(pulses_per_window=1000))
        info = qkd._steady_class_probabilities.cache_info()
        assert (info.misses, info.hits) == (1, 4)


class TestTally:
    """The tally matrix against the fancy-indexed sums of
    tests/oracles.py."""

    def test_shared_read_only(self):
        assert qkd._TALLY.shape == (32, 4)
        with pytest.raises(ValueError):
            qkd._TALLY[0, 0] = 1

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("total", [0, 1, 200_000, 2**62, 2**63 - 1])
    def test_matches_fancy_indexed_sums(self, seed, total):
        # Any split of the window's pulses, with some classes empty; the
        # totals of a window stay below 2**63, as its pulse count does.
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, total, 31, endpoint=True))
        counts = np.diff(cuts, prepend=0, append=total)
        counts[rng.random(32) < 0.25] = 0
        assert tuple((counts @ qkd._TALLY).tolist()) == \
            fancy_indexed_window_totals(counts)

    @pytest.mark.parametrize("n_pulses", [1, 200_000, 10**14])
    def test_window_counts_match(self, n_pulses):
        probs = qkd._steady_class_probabilities(0.3, 1e-3, 0.4)
        assert qkd._count_window(np.random.default_rng(5), n_pulses, 0.3,
                                 1e-3, 0.4, None) == \
            fancy_indexed_window_totals(
                np.random.default_rng(5).multinomial(n_pulses, probs))


class TestFixedPhase:
    """A window whose global phase offset is pinned at ``delta`` for every
    round."""

    @staticmethod
    def pinned(delta, n_pulses, seed, chan, det, phase_noise_rad=0.0):
        record, _ = simulate_window(
            np.random.default_rng(seed), n_pulses, 0.0, SOURCE, chan, det,
            PACKET, phase_noise_rad,
            lambda n: np.exp(1j * delta * np.arange(1, n + 1)))
        return record.qber_estimate, record.errors, record.sifted_bits

    def test_calibrated_noise_reproduces_operating_error_rate(self):
        from sagnacsim.qkd import CALIBRATED_PHASE_NOISE_RAD
        qber, _, n = self.pinned(
            0.0, 4_000_000, 5, channel(16.5), detector(dark=1e-6),
            phase_noise_rad=CALIBRATED_PHASE_NOISE_RAD)
        assert abs(qber - 0.0476) < 3.0 * math.sqrt(0.0476 * 0.9524 / n)

    def test_quarter_turn_is_half_error(self):
        qber, _, n = self.pinned(
            0.5 * math.pi, 500_000, 7, channel(loss_db=0.0),
            detector(dark=0.0))
        assert n > 1000
        assert abs(qber - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_zero_phase_is_error_free(self):
        qber, errors, n = self.pinned(
            0.0, 200_000, 7, channel(loss_db=0.0), detector(dark=0.0))
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


# The README PZT event, a 2937.3 Hz drive switched on mid-window and the
# 10 us impact of the CLI tests: (config, window start).
_README_PZT = {"kind": "pzt", "position_m": 5000.0, "start_s": 3.0,
               "drive_amplitude_v": 1.2, "frequency_hz": 3000.0,
               "phase_gain_rad_per_v": 0.5}
_OFFSET_WINDOWS = {
    "readme-pzt": ({"disturbances": [_README_PZT]}, 4.0),
    "mid-window-drive": ({"disturbances": [{
        **_README_PZT, "start_s": 3.3, "frequency_hz": 2937.3}]}, 3.0),
    "impact": ({"disturbances": [{
        "kind": "impact", "position_m": 5000.0, "start_s": 1.0,
        "mass_kg": 0.1, "drop_height_m": 0.1, "width_s": 1e-5,
        "impact_gain": 2.0}]}, 1.0),
}
_ENGINE_WINDOWS = {
    "quiet-defaults": ({}, 0.0),
    "readme-pzt": _OFFSET_WINDOWS["readme-pzt"],
    "high-photon-number": ({"source": {"mean_photon_number": 5.0},
                            "channel": {"loss_db": 0.0}}, 0.0),
}


def _script(raw):
    return parse_config_dict({"duration_s": 20.0, **raw}).scenario


def _means(script, t0, n_pulses):
    """The controller's means of the 1 s key window from ``t0``."""
    return functools.partial(perception.window_phase_means, script.events,
                             script.channel, t0, 1.0, n_pulses)


def _window(raw, t0, rng, n_pulses, per_round=False):
    """One 1 s window from ``t0``: its record, the per-round oracle's log
    of the rounds (``None`` from the engine) and the script."""
    script = _script(raw)
    if per_round:
        # The oracle reads the loop phase at each pulse time.
        phase = functools.partial(perception.loop_phase,
                                  events=script.events,
                                  channel=script.channel)
        record, log = per_round_window(
            rng, n_pulses, t0, 1.0, script.source, script.channel,
            script.detector, script.packet, script.qkd.phase_noise_rad,
            phase if script.events else None)
        return record, log, script
    record, _ = simulate_window(
        rng, n_pulses, t0, script.source, script.channel, script.detector,
        script.packet, script.qkd.phase_noise_rad,
        _means(script, t0, n_pulses) if script.events else None)
    return record, None, script


def _class_probabilities(script, offset_means):
    lam = qkd._signal_rate(script.source, script.channel, script.detector) \
        * qkd._spectral_gain(script.channel, script.packet)
    return qkd._outcome_probabilities(
        qkd._base_phase(qkd._ALICE_BASIS, qkd._ALICE_BIT, qkd._BOB_BASIS),
        lam, script.detector.dark_count_prob_per_gate,
        script.qkd.phase_noise_rad, offset_means).ravel() / 8.0


def _sampled(script, t0, n_samples):
    """The oracle's means of the 1 s window from ``t0`` at ``n_samples``
    midpoints, as ``offset_means``."""
    return functools.partial(sampled_phase_means, script.events,
                             script.channel, t0, 1.0, n_samples)


class TestHarmonicPlan:
    """Offset class probabilities read from the cached harmonic plan
    against those of tests/oracles.py, which takes the plan afresh."""

    @pytest.mark.parametrize("lam, sigma", [
        (None, qkd.CALIBRATED_PHASE_NOISE_RAD),
        (1.0, qkd.CALIBRATED_PHASE_NOISE_RAD),
        (10.0, qkd.CALIBRATED_PHASE_NOISE_RAD), (None, 0.0), (10.0, 0.0)],
        ids=["defaults", "lam-1", "lam-10", "no-noise", "lam-10-no-noise"])
    @pytest.mark.parametrize("window", list(_OFFSET_WINDOWS))
    def test_identical_values(self, lam, sigma, window):
        raw, t0 = _OFFSET_WINDOWS[window]
        script = _script(raw)
        if lam is None:  # the configured rate
            lam = qkd._signal_rate(script.source, script.channel,
                                   script.detector)
        offset_means = _means(script, t0, 200_000)
        delta = qkd._base_phase(qkd._ALICE_BASIS, qkd._ALICE_BIT,
                                qkd._BOB_BASIS)
        want = fresh_outcome_probabilities(delta, lam, 1e-6, sigma,
                                           offset_means).ravel() / 8.0
        for _ in range(2):  # the second call reads the cached plan
            assert np.array_equal(
                qkd._class_probabilities(lam, 1e-6, sigma, offset_means),
                want)

    def test_shared_read_only(self):
        first = qkd._harmonic_plan(1.0, 1e-6, 0.4)
        assert qkd._harmonic_plan(1.0, 1e-6, 0.4) is first
        for array in first:
            with pytest.raises(ValueError):
                array[0] = 0


class TestCountEngine:
    N = 200_000

    @pytest.mark.parametrize("name", list(_ENGINE_WINDOWS))
    def test_agrees_with_per_round_draws(self, name):
        raw, t0 = _ENGINE_WINDOWS[name]
        rng = np.random.default_rng(20261018)
        rounds = [_window(raw, t0, rng, self.N, per_round=True)
                  for _ in range(8)]
        counted = [_window(raw, t0, rng, self.N)[0] for _ in range(50)]
        script = rounds[0][2]

        # Chi-square of the per-round outcome classes against the class
        # probabilities, averaged over every pulse's offset.
        classes = np.zeros(32, dtype=np.int64)
        for _, log, _ in rounds:
            index = 4 * (4 * log.alice_basis.astype(int)
                         + 2 * log.alice_bit + log.bob_basis) \
                + 2 * log.click_reflected + log.click_transmitted
            classes += np.bincount(index, minlength=32)
        expected = classes.sum() * _class_probabilities(
            script, _sampled(script, t0, self.N) if script.events else None)
        # Classes expected fewer than 5 times share the commonest one's bin.
        merged = expected < 5.0
        merged[np.argmax(expected)] = True
        observed = np.append(classes[~merged], classes[merged].sum())
        expected = np.append(expected[~merged], expected[merged].sum())
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(statistic, observed.size - 1) > 1e-3

        # Two-sample test of each window total, as a share of the pulses.
        for field in ("clicks_reflected", "clicks_transmitted",
                      "sifted_bits", "errors"):
            a = sum(getattr(r, field) for r, *_ in rounds)
            b = sum(getattr(r, field) for r in counted)
            n_a, n_b = len(rounds) * self.N, len(counted) * self.N
            pooled = (a + b) / (n_a + n_b)
            sd = math.sqrt(pooled * (1.0 - pooled) * (1 / n_a + 1 / n_b))
            assert abs(a / n_a - b / n_b) <= 4.0 * sd, field

    @pytest.mark.parametrize("name", list(_OFFSET_WINDOWS))
    def test_window_means_match_every_pulse(self, name):
        raw, t0 = _OFFSET_WINDOWS[name]
        script = _script(raw)
        np.testing.assert_allclose(
            _class_probabilities(script, _means(script, t0, self.N)),
            _class_probabilities(script, _sampled(script, t0, self.N)),
            rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("n_pulses", [1000, 2**16, 10**7, 10**14])
    def test_drive_window_never_samples_the_phase(self, n_pulses,
                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(perception, "nonreciprocal_phase",
                            lambda *args: calls.append(args))
        raw, t0 = _OFFSET_WINDOWS["readme-pzt"]
        record, *_ = _window(raw, t0, np.random.default_rng(2), n_pulses)
        assert record.pulses_sent == n_pulses
        assert calls == []

    @pytest.mark.parametrize("n_pulses", [1000, 2**16, 10**7, 10**14])
    def test_impact_window_samples_at_most_2_16_times(self, n_pulses,
                                                      monkeypatch):
        calls = []
        phase = perception.nonreciprocal_phase

        def recording(t, *args):
            calls.append(np.array(t))
            return phase(t, *args)

        monkeypatch.setattr(perception, "nonreciprocal_phase", recording)
        raw, t0 = _OFFSET_WINDOWS["impact"]
        record, *_ = _window(raw, t0, np.random.default_rng(2), n_pulses)
        assert record.pulses_sent == n_pulses
        assert len(calls) == 1
        assert calls[0].size == min(n_pulses, 2**16)
        if n_pulses <= 2**16:
            # One sample per pulse, at the pulse times.
            np.testing.assert_array_equal(
                calls[0], t0 + (np.arange(n_pulses) + 0.5) * (1.0 / n_pulses))

    @pytest.mark.parametrize("frequency_hz", [32768.0, 65536.0 / 3.0])
    def test_fast_drive_is_not_aliased(self, frequency_hz):
        # At 2**16 samples a second a 32768 Hz drive is sampled twice a
        # period, and the sampled means miss by up to 1.25.  The oracle's
        # midpoint rule at 2**22 points is off by at most
        # (2/3) k omega peak / 2**44 (its derivative jumps at the window
        # ends), about 2e-8 for the few harmonics kept at the defaults, and
        # the class probabilities move by less than that relatively.
        raw = {"disturbances": [{**_README_PZT,
                                 "frequency_hz": frequency_hz}]}
        script = _script(raw)
        np.testing.assert_allclose(
            _class_probabilities(script, _means(script, 4.0, self.N)),
            _class_probabilities(script, _sampled(script, 4.0, 2**22)),
            rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("lam, sigma", [
        (4.477e-4, 0.43723), (1.0, 0.43723), (1.0, 0.02), (10.0, 0.3)])
    def test_noise_average_matches_quadrature(self, lam, sigma):
        # Gauss-Hermite quadrature of the noisy outcome table.
        nodes, weights = np.polynomial.hermite_e.hermegauss(160)
        delta = qkd._base_phase(qkd._ALICE_BASIS, qkd._ALICE_BIT,
                                qkd._BOB_BASIS)
        table = qkd._outcome_table(delta[:, None] + sigma * nodes, lam, 1e-6)
        reference = np.einsum("j,ijk->ik", weights / weights.sum(), table)
        np.testing.assert_allclose(
            qkd._outcome_probabilities(delta, lam, 1e-6, sigma), reference,
            rtol=1e-9, atol=1e-15)


class TestBreachProbability:
    """The key engine's breach rate against the exact breach probability
    of tests/oracles.py, fed the class probabilities of
    ``fresh_outcome_probabilities`` at the default configuration."""

    WINDOWS = 4000

    @staticmethod
    def oracle(script, offset_means=None):
        return window_breach_probability(
            fresh_class_probabilities(script, offset_means),
            script.qkd.pulses_per_window, script.qkd.qber_threshold)

    def breach_rate(self, script, t0, offset_means=None):
        rng = np.random.default_rng(41)
        breaches = 0
        for _ in range(self.WINDOWS):
            record, _ = simulate_window(
                rng, script.qkd.pulses_per_window, t0, script.source,
                script.channel, script.detector, script.packet,
                script.qkd.phase_noise_rad, offset_means)
            breaches += (record.qber_estimate is not None and
                         qber_threshold_check(record,
                                              script.qkd.qber_threshold))
        return breaches / self.WINDOWS

    @pytest.mark.parametrize("raw, t0, designed", [
        ({}, 0.0, 0.1530),
        # The README drive at 5 km, in the window from 5 s.
        ({"disturbances": [_README_PZT]}, 5.0, 0.8944)],
        ids=["quiet", "readme-pzt"])
    def test_breach_rate_within_4_se_of_the_oracle(self, raw, t0,
                                                   designed):
        # 4 standard errors of 4000 windows: 0.023 quiet, 0.019 driven.
        # The oracle reads the drive at 2**18 midpoints, the engine in
        # closed form.
        script = _script(raw)
        driven = bool(script.events)
        p = self.oracle(script, _sampled(script, t0, 2**18) if driven
                        else None)
        assert p == pytest.approx(designed, abs=5e-5)
        rate = self.breach_rate(script, t0, _means(
            script, t0, script.qkd.pulses_per_window) if driven else None)
        assert abs(rate - p) <= 4.0 * math.sqrt(p * (1.0 - p)
                                                / self.WINDOWS)

    @staticmethod
    def every_count(class_probabilities, n_pulses, threshold):
        """The oracle's sum taken over every sifted count 1 .. n_pulses."""
        probs = np.asarray(class_probabilities).reshape(-1, 4)
        matched = np.flatnonzero(qkd._ALICE_BASIS == qkd._BOB_BASIS)
        p_sifted = probs[matched, 1:3].sum()
        p_error = probs[matched, 1 + qkd._ALICE_BIT[matched]].sum()
        s = np.arange(1, n_pulses + 1)
        p_s = stats.binom.pmf(s, n_pulses, p_sifted)
        s, p_s = s[p_s > 0.0], p_s[p_s > 0.0]
        least = np.floor(threshold * s).astype(np.int64) + 1
        least[(least - 1) / s > threshold] -= 1
        least[~(least / s > threshold)] += 1
        return math.fsum(p_s * stats.binom.sf(least - 1, s,
                                              p_error / p_sifted))

    @pytest.mark.parametrize("n_pulses", [1, 2, 25, 1000, 200_000])
    @pytest.mark.parametrize("share", [None, 0.5, 1.0])
    def test_window_of_sifted_counts_misses_none(self, n_pulses, share):
        # The sifted counts left out of the window are those whose
        # probability underflows, so the sum is the one over every count,
        # bit for bit: quiet, and with half or all rounds sifted at an
        # error share of 1/25.
        probs = fresh_class_probabilities(_script({})).reshape(8, 4)
        if share is not None:
            matched = np.flatnonzero(qkd._ALICE_BASIS == qkd._BOB_BASIS)
            probs = np.zeros((8, 4))
            probs[:, 0] = (1.0 - share) / 8
            probs[matched, 1 + qkd._ALICE_BIT[matched]] = share / 25 / 4
            probs[matched, 2 - qkd._ALICE_BIT[matched]] = \
                share * 24 / 25 / 4
        probs = probs.ravel()
        assert window_breach_probability(probs, n_pulses, 0.08) == \
            self.every_count(probs, n_pulses, 0.08)

    def test_window_of_1e8_pulses_stays_small(self):
        # All 1e8 sifted counts would take 800 MB an array; the window
        # holds some 2e4.  A quiet window that long breaches with
        # probability 1.01e-96.
        probs = fresh_class_probabilities(_script({}))
        tracemalloc.start()
        try:
            p = window_breach_probability(probs, 10**8, 0.08)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == pytest.approx(1.012e-96, rel=1e-3)
        assert peak < 8 * 2**20

    def test_threshold_ties_are_no_breach(self):
        # 1 error in 25 sifted bits reads 0.04, which the float division
        # puts at the threshold 0.04: no breach.  With every round sifted
        # and an error share of 1/25, the window breaches only from 2
        # errors on.
        probs = np.zeros((8, 4))
        matched = np.flatnonzero(qkd._ALICE_BASIS == qkd._BOB_BASIS)
        probs[matched, 1 + qkd._ALICE_BIT[matched]] = 1.0 / 25 / 4
        probs[matched, 2 - qkd._ALICE_BIT[matched]] = 24.0 / 25 / 4
        p = stats.binom.sf(1, 25, 1.0 / 25)
        assert window_breach_probability(probs.ravel(), 25, 0.04) == \
            pytest.approx(p, rel=1e-12)
