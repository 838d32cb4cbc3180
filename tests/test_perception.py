import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import welch

from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams,
                                   PressureParams, PztParams)
from sagnacsim.errors import (AliasingError, ConfigError,
                              InsufficientDataError, OutOfLoopError,
                              ReciprocalDisturbanceError,
                              UndefinedResolutionError)
from sagnacsim import perception
from sagnacsim.optics import C_VACUUM, LoopChannel
from sagnacsim.perception import (InterferenceTrace,
                                  NullFrequency, PerceptionSettings,
                                  ac_amplitude_theory, acquire,
                                  effective_gpd, find_null_frequencies,
                                  frequency_sweep, locate,
                                  localization_error, localization_report,
                                  localize, measure_tone_amplitude,
                                  nonreciprocal_phase, resolution, sense,
                                  significance, synthesize_trace)

from oracles import (ac_power_at, first_order_span,
                     per_candidate_trace_nulls, point_by_point_sweep,
                     position_from_null, tone_amplitude,
                     two_sided_position_span)

L = 30000.0
N_FIBER = 1.468


def channel(bias=0.5 * math.pi):
    return LoopChannel(length_m=L, refractive_index=N_FIBER,
                       bias_phase_rad=bias)


def pzt_event(position_m, f_hz=500.0, delta_d=0.05):
    return DisturbanceEvent(
        PztParams(drive_amplitude_v=1.0,
                  angular_frequency_rad_s=2 * math.pi * f_hz,
                  phase_gain_rad_per_v=delta_d),
        position_m=position_m)


class TestEffectiveGpd:
    def test_midpoint_self_cancels(self):
        ev = pzt_event(L / 2)
        t = np.linspace(0, 0.01, 500)
        gpd = effective_gpd(t, ev, channel(bias=0.7))
        assert np.allclose(gpd, 0.7, atol=1e-12)

    def test_quasi_static_raises(self):
        ev = DisturbanceEvent(PressureParams(0.1), position_m=100.0)
        with pytest.raises(ReciprocalDisturbanceError):
            effective_gpd(0.0, ev, channel())

    def test_delay_lag_value(self):
        # n (L - 2x) / c for x = 5 km: 97.93 us, checked by direct
        # evaluation against the waveform difference.
        ev = pzt_event(5000.0, f_hz=500.0, delta_d=0.05)
        lag = N_FIBER * (L - 2 * 5000.0) / C_VACUUM
        assert lag == pytest.approx(9.793441835017745e-05, rel=1e-12)
        t = 0.0123
        wave = lambda tt: 0.05 * math.sin(2 * math.pi * 500.0 * tt)
        expected = wave(t) - wave(t - lag)
        assert nonreciprocal_phase(t, ev, channel()) == pytest.approx(
            expected, rel=1e-12)


class TestSynthesizeTrace:
    def test_dark_port_without_disturbance(self):
        trace = synthesize_trace(None, channel(bias=math.pi), 0.01, 100e3,
                                 noise_sigma=0.0, input_power_w=2.0)
        assert np.allclose(trace.samples, 0.0, atol=1e-12)

    def test_bright_port_without_disturbance(self):
        trace = synthesize_trace(None, channel(bias=0.0), 0.01, 100e3,
                                 noise_sigma=0.0, input_power_w=2.0)
        assert np.allclose(trace.samples, 4.0, rtol=1e-12)

    def test_small_signal_amplitude_matches_theory(self):
        # The synthesized response carries twice the normalized single-pass
        # form (the two directions' waveforms subtract), so the linearized
        # amplitude is 2x the closed-form value.
        for delta_d in (0.01, 0.05, 0.1):
            ev = pzt_event(5000.0, f_hz=4000.0, delta_d=delta_d)
            trace = synthesize_trace(ev, channel(), 0.02, 200e3,
                                     noise_sigma=0.0, input_power_w=1.0)
            measured = measure_tone_amplitude(trace, 4000.0)
            theory = ac_amplitude_theory(2 * math.pi * 4000.0, 5000.0,
                                         channel(), delta_d, 1.0)
            assert measured == pytest.approx(2.0 * theory, rel=0.01)

    def test_window_without_a_sample_raises(self):
        # Half a sample period rounds to no sample at all.
        with pytest.raises(InsufficientDataError):
            synthesize_trace(None, channel(), 0.4 / 200e3, 200e3)
        assert synthesize_trace(None, channel(), 0.6 / 200e3,
                                200e3).samples.size == 1

    def test_undersampled_raises(self):
        ev = pzt_event(5000.0, f_hz=60e3)
        with pytest.raises(AliasingError):
            synthesize_trace(ev, channel(), 0.01, 100e3)

    def test_deterministic_per_seed(self):
        ev = pzt_event(7000.0)
        a = synthesize_trace(ev, channel(), 0.01, 200e3, 0.0019, seed=5)
        b = synthesize_trace(ev, channel(), 0.01, 200e3, 0.0019, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_quasi_static_trace_is_flat(self):
        ev = DisturbanceEvent(PressureParams(0.5), position_m=9000.0)
        trace = synthesize_trace(ev, channel(), 0.02, 200e3,
                                 noise_sigma=0.0)
        assert np.allclose(trace.samples, trace.samples[0], rtol=1e-12)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            InterferenceTrace(0.0, np.ones(4), 1.0)
        with pytest.raises(ValueError):
            InterferenceTrace(1e3, np.array([]), 1.0)
        with pytest.raises(ValueError):
            InterferenceTrace(1e3, np.array([1.0, np.inf]), 1.0)


class TestAcAmplitudeTheory:
    def test_first_null_is_zero(self):
        dx = L - 2 * 5000.0
        omega = 2 * math.pi * C_VACUUM / (N_FIBER * dx)
        amp = ac_amplitude_theory(omega, 5000.0, channel(), 0.1, 1.0)
        assert amp == pytest.approx(0.0, abs=1e-12)

    def test_reference_null_frequencies(self):
        # c / (n dx) for the reference geometry
        for x, f_expected in ((5000.0, 10210.914782016349),
                              (0.0, 6807.276521344233),
                              (10000.0, 20421.829564032698)):
            dx = L - 2 * x
            f_null = C_VACUUM / (N_FIBER * dx)
            assert f_null == pytest.approx(f_expected, rel=1e-12)
            amp = ac_amplitude_theory(2 * math.pi * f_null, x, channel(),
                                      0.1, 1.0)
            assert amp == pytest.approx(0.0, abs=1e-9)

    def test_sweep_oracle_confirms_first_zero(self):
        # frequency sweep of the synthesized response dips at the
        # formula-predicted frequency
        ev = pzt_event(5000.0, delta_d=0.05)
        grid = np.arange(9500.0, 11000.0, 50.0)
        sweep = frequency_sweep(ev, channel(), grid, duration_s=0.02,
                                noise_sigma=0.0, seed=1)
        dip = sweep.frequencies_hz[np.argmin(sweep.amplitudes)]
        assert dip == pytest.approx(10210.9, abs=50.0)


class TestFindNulls:
    def make_sweep(self, x, seed=3, step=250.0, noise=0.0019, delta_d=0.05):
        ev = pzt_event(x, delta_d=delta_d)
        grid = np.arange(2000.0, 75000.0 + step, step)
        return frequency_sweep(ev, channel(), grid, duration_s=0.01,
                               noise_sigma=noise, seed=seed)

    def test_reference_position(self):
        nulls = find_null_frequencies(self.make_sweep(5000.0), max_k=3)
        assert nulls[0].harmonic == 1
        assert nulls[0].frequency_hz == pytest.approx(10210.9, abs=500.0)

    def test_midpoint_blindness_empty(self):
        nulls = find_null_frequencies(self.make_sweep(L / 2), max_k=3)
        assert nulls == []

    def test_second_harmonic_at_twice_first(self):
        nulls = find_null_frequencies(self.make_sweep(5000.0), max_k=2)
        assert len(nulls) == 2
        k1, k2 = nulls
        assert k2.harmonic == 2
        assert k2.frequency_hz == pytest.approx(2 * k1.frequency_hz,
                                                abs=500.0)

    def test_ascending_and_consistent(self):
        nulls = find_null_frequencies(self.make_sweep(9000.0), max_k=3)
        freqs = [nf.frequency_hz for nf in nulls]
        assert freqs == sorted(freqs)
        base = freqs[0]
        for nf in nulls:
            assert nf.frequency_hz / nf.harmonic == pytest.approx(base,
                                                                  abs=500.0)

    def test_broadband_impact_mode(self):
        ev = DisturbanceEvent(
            ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=1e-5,
                         impact_gain=2.0),
            position_m=5000.0, start_s=0.0)
        trace = synthesize_trace(ev, channel(), 0.0256, 200e3,
                                 noise_sigma=0.0008, seed=5,
                                 start_s=-0.0128)
        nulls = find_null_frequencies(trace, max_k=2)
        assert nulls and nulls[0].harmonic == 1
        assert nulls[0].frequency_hz == pytest.approx(10210.9, abs=500.0)

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            find_null_frequencies([1.0, 2.0])


class TestLocalize:
    def test_reference_null(self):
        x = localize(NullFrequency(10210.0, 1, 20.0), channel())
        assert x == pytest.approx(4999.104, abs=0.01)
        assert x == pytest.approx(
            position_from_null(10210.0, 1, L, N_FIBER), rel=1e-12)

    def test_limit_is_midpoint(self):
        x = localize(NullFrequency(1e12, 1, 20.0), channel())
        assert x == pytest.approx(L / 2, rel=1e-6)

    def test_harmonic_consistency(self):
        x1 = localize(NullFrequency(10210.0, 1, 20.0), channel())
        x2 = localize(NullFrequency(20420.0, 2, 20.0), channel())
        assert x1 == pytest.approx(x2, rel=1e-12)

    def test_out_of_loop(self):
        floor = C_VACUUM / (N_FIBER * L)
        with pytest.raises(OutOfLoopError):
            localize(NullFrequency(floor * 0.99, 1, 20.0), channel())


class TestResolution:
    def test_reference_value(self):
        # (k c / n) df / (f^2 - df^2), frozen from exact constants
        rs = resolution(NullFrequency(10210.0, 1, 20.0), channel(),
                        delta_f_hz=500.0)
        assert rs == pytest.approx(981.8744315318223, rel=1e-12)

    def test_equals_two_sided_span_exactly(self):
        for f, k in ((8000.0, 1), (10210.0, 1), (30000.0, 2), (60000.0, 3)):
            rs = resolution(NullFrequency(f, k, 20.0), channel(), 500.0)
            span = two_sided_position_span(f, k, L, N_FIBER, 500.0)
            assert rs == pytest.approx(span, rel=1e-9)

    def test_monotone_decreasing(self):
        values = [resolution(NullFrequency(f, 1, 20.0), channel(), 500.0)
                  for f in (2000.0, 5000.0, 10000.0, 50000.0)]
        assert values == sorted(values, reverse=True)

    def test_vanishes_at_high_frequency(self):
        assert resolution(NullFrequency(1e9, 1, 20.0), channel()) < 1e-3

    def test_undefined_below_resolution(self):
        with pytest.raises(UndefinedResolutionError):
            resolution(NullFrequency(400.0, 1, 20.0), channel(), 500.0)

    @given(f=st.floats(min_value=5001.0, max_value=1e6),
           k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_taylor_bound_within_five_percent(self, f, k):
        rs = resolution(NullFrequency(f, k, 20.0), channel(), 500.0)
        taylor = first_order_span(f, k, N_FIBER, 500.0)
        assert rs == pytest.approx(taylor, rel=0.05)


class TestLocalizationError:
    def test_identical_samples(self):
        assert localization_error([9000.0, 9000.0, 9000.0], 1, channel()) == 0.0

    def test_reference_value(self):
        # two samples +-500 Hz around 10.21 kHz: sigma_f = c/(2 n f^2) * sd
        samples = [10210.0 - 500.0, 10210.0 + 500.0]
        sd = np.std(samples, ddof=1)
        slope = C_VACUUM / (2 * N_FIBER * np.mean(samples) ** 2)
        got = localization_error(samples, 1, channel())
        assert got == pytest.approx(slope * sd, rel=1e-12)
        # the anchor case: sigma_f = 500 Hz at 10.21 kHz maps to ~490 m
        anchor = C_VACUUM / (2 * N_FIBER * 10210.0 ** 2) * 500.0
        assert anchor == pytest.approx(489.7598416608877, rel=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            localization_error([10210.0], 1, channel())


class TestReport:
    def test_full_report(self):
        nulls = [NullFrequency(10210.0, 1, 25.0),
                 NullFrequency(20430.0, 2, 20.0)]
        report = localization_report(nulls, channel())
        assert report.position_m == pytest.approx(4999.1, abs=0.5)
        assert report.path_difference_m == pytest.approx(
            L - 2 * report.position_m, rel=1e-12)
        assert report.mirror_position_m == pytest.approx(
            L - report.position_m, rel=1e-12)
        assert report.sigma_position_m is not None
        assert report.position_m <= L / 2

    def test_single_null_has_no_sigma(self):
        report = localization_report([NullFrequency(10210.0, 1, 25.0)],
                                     channel())
        assert report.sigma_position_m is None

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            localization_report([], channel())


# The acceptance-4 grid: 293 points, 2 kHz to 75 kHz in 250 Hz steps.
ACCEPTANCE_GRID = np.arange(2000.0, 75000.0 + 250.0, 250.0)


class TestBlockSweep:
    """The block evaluation equals the point-by-point definition to
    rounding, from the same random stream: every amplitude and the noise
    floor within 1e-11 of the largest amplitude."""

    @staticmethod
    def assert_same(event, grid, **kwargs):
        got = frequency_sweep(event, channel(), grid, **kwargs)
        want = point_by_point_sweep(event, channel(), grid, **kwargs)
        atol = 1e-11 * want.amplitudes.max()
        assert np.array_equal(got.frequencies_hz, want.frequencies_hz)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(got.noise_floor_amplitude,
                                   want.noise_floor_amplitude,
                                   rtol=0, atol=atol)

    @pytest.mark.parametrize("seed", [1, 2024, 77])
    def test_acceptance_grid(self, seed):
        self.assert_same(pzt_event(7000.0, 500.0, 0.08), ACCEPTANCE_GRID,
                         duration_s=0.01, noise_sigma=0.0019, seed=seed)

    @pytest.mark.parametrize("points", [3, 17, 40])
    def test_grid_not_a_multiple_of_the_block(self, points):
        grid = 3000.0 + 410.0 * np.arange(points)
        self.assert_same(pzt_event(4000.0, 500.0, 0.1), grid,
                         duration_s=0.0123, seed=5)

    def test_block_of_one_point(self):
        # 40 000 samples per trace: more than a block holds.
        self.assert_same(pzt_event(5000.0, 500.0, 0.1),
                         [9000.0, 10250.0, 11500.0], duration_s=0.2, seed=3)

    def test_without_noise(self):
        self.assert_same(pzt_event(5000.0, 500.0, 0.05), ACCEPTANCE_GRID,
                         noise_sigma=0.0, seed=4)

    @pytest.mark.parametrize("x", [L / 2, 0.8 * L])
    def test_midpoint_and_far_branch(self, x):
        self.assert_same(pzt_event(x, 500.0, 0.1), ACCEPTANCE_GRID[:50],
                         seed=6)

    def test_three_sample_sweep(self):
        self.assert_same(pzt_event(5000.0, 500.0, 0.1),
                         [2000.0, 2250.0, 2500.0, 2750.0],
                         duration_s=1.5e-5, seed=8)

    def test_aliasing_checked_before_any_trace(self, monkeypatch):
        # The first offending point is named, as point by point.
        grid = np.arange(90e3, 130e3, 2500.0)
        event = pzt_event(5000.0)
        with pytest.raises(AliasingError) as want:
            point_by_point_sweep(event, channel(), grid, seed=1)

        def no_trace(*args, **kwargs):
            raise AssertionError("synthesized a trace")

        monkeypatch.setattr(perception, "synthesize_trace", no_trace)
        with pytest.raises(AliasingError) as got:
            frequency_sweep(event, channel(), grid, seed=1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("grid, message", [
        ([3000.0, 2500.0, 4000.0], "strictly ascending"),
        ([2000.0, 2500.0, 2500.0, 3000.0], "strictly ascending"),
        ([2000.0, 2500.0], ">= 3 points"),
        ([[2000.0, 2500.0, 3000.0]], ">= 3 points"),
    ])
    def test_grid_checked_before_any_block(self, monkeypatch, grid, message):
        def no_block(*args, **kwargs):
            raise AssertionError("evaluated a block")

        monkeypatch.setattr(perception, "_port_intensity", no_block)
        with pytest.raises(ValueError, match=message):
            frequency_sweep(pzt_event(5000.0), channel(), grid, seed=1)


class TestUnitPhasors:
    FS = 200e3

    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 40_000])
    def test_matches_one_exponential_per_sample(self, n):
        # Up to just below Nyquist, where the phase reaches pi n.
        omegas = 2 * math.pi * np.array(
            [0.0, 1.0, 2000.0, 12345.678, 75000.0,
             np.nextafter(self.FS / 2, 0.0)])
        got = perception._unit_phasors(omegas, n, self.FS)
        assert got.shape == (omegas.size, n)
        phase = omegas[:, None] * np.arange(n) / self.FS
        want = np.exp(1j * phase)
        # 1e-12, plus a few ulp of the phase: the float64 phase of the
        # reference is itself only that good, which at 40 000 samples near
        # Nyquist (phase 1.3e5 rad) is about 3e-11.
        slack = 1e-12 + 4 * np.finfo(float).eps * phase
        assert np.all(np.abs(got - want) <= slack)


class TestMeasureToneAmplitude:
    @pytest.mark.parametrize("f_hz", [1234.5, 4000.3, 17777.7, 61003.1])
    @pytest.mark.parametrize("n", [3, 2000, 4097])
    def test_matches_oracle_projection_off_bin(self, f_hz, n):
        samples = np.random.default_rng(n).standard_normal(n) + 5.0
        samples += 0.3 * np.sin(2 * math.pi * f_hz * np.arange(n) / 200e3)
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=samples,
                                  input_power_w=1.0)
        assert measure_tone_amplitude(trace, f_hz) == pytest.approx(
            tone_amplitude(trace, f_hz), rel=1e-11, abs=1e-14)


class TestSpectralDiagnostics:
    def test_quasi_static_indistinguishable_from_noise_floor(self):
        prs = DisturbanceEvent(PressureParams(0.5), position_m=9000.0,
                               start_s=0.0)
        pressed = synthesize_trace(prs, channel(), 0.05, 200e3, 0.0019,
                                   seed=9)
        quiet = synthesize_trace(None, channel(), 0.05, 200e3, 0.0019,
                                 seed=9)
        f = 500.0
        assert ac_power_at(pressed, f) == pytest.approx(
            ac_power_at(quiet, f), rel=1e-9)
        _, ratio = significance(pressed)
        assert ratio < 10.0

    def test_midpoint_ac_power_suppressed(self):
        f_drive = C_VACUUM / (N_FIBER * L)  # peak response for x = L/4
        mid = synthesize_trace(pzt_event(L / 2, f_hz=f_drive, delta_d=0.1),
                               channel(), 0.08, 200e3, 0.0019, seed=13)
        quarter = synthesize_trace(pzt_event(L / 4, f_hz=f_drive, delta_d=0.1),
                                   channel(), 0.08, 200e3, 0.0019, seed=13)
        suppression_db = 10 * math.log10(
            ac_power_at(quarter, f_drive) / ac_power_at(mid, f_drive))
        assert suppression_db >= 40.0

    def test_significance_flags_strong_tone(self):
        trace = synthesize_trace(pzt_event(5000.0, f_hz=3000.0, delta_d=0.2),
                                 channel(), 0.05, 200e3, 0.0019, seed=3)
        candidate, ratio = significance(trace)
        assert ratio > 10.0
        assert candidate == pytest.approx(3000.0, abs=100.0)


def impact_event(start_s=1.0):
    return DisturbanceEvent(
        ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=1e-5,
                     impact_gain=2.0),
        position_m=5000.0, start_s=start_s)


class TestSense:
    SETTINGS = PerceptionSettings(noise_sigma=0.0008,
                                  sense_duration_s=0.0256)

    def expected(self, event, start_s, seed):
        s = self.SETTINGS
        trace = synthesize_trace(event, s.sense_channel(channel(0.0)),
                                 s.sense_duration_s, s.sample_rate_hz,
                                 s.noise_sigma, seed=seed,
                                 input_power_w=s.input_power_w,
                                 start_s=start_s)
        candidate, ratio = significance(trace)
        return trace, {"candidate_frequency_hz": candidate,
                       "peak_to_floor": ratio}

    def test_transient_window_centred_on_onset(self):
        event = impact_event()
        trace, graded = sense(event, channel(0.0), self.SETTINGS, 5, 4.0)
        want, want_graded = self.expected(event, 1.0 - 0.0128, 5)
        np.testing.assert_array_equal(trace.samples, want.samples)
        assert graded == want_graded
        assert graded["peak_to_floor"] > 10.0

    @pytest.mark.parametrize("event", [None, pzt_event(5000.0, 3000.0)])
    def test_other_windows_start_at_the_given_time(self, event):
        trace, graded = sense(event, channel(0.0), self.SETTINGS, 9, 2.5)
        want, want_graded = self.expected(event, 2.5, 9)
        np.testing.assert_array_equal(trace.samples, want.samples)
        assert graded == want_graded


class TestLocate:
    def test_sweep_report_matches_the_steps(self):
        settings = PerceptionSettings()
        sweep = acquire(pzt_event(5000.0, 3000.0, 0.6), channel(), settings,
                        seed=7)
        nulls = find_null_frequencies(sweep, settings.max_harmonics,
                                      depth_threshold_db=10.0)
        assert locate(sweep, channel(), settings) == localization_report(
            nulls, channel(), settings.freq_resolution_hz)

    def test_no_null_gives_none(self):
        quiet = synthesize_trace(None, channel(), 0.05, 200e3, 0.0019, seed=2)
        assert locate(quiet, channel(), PerceptionSettings()) is None


class TestSettingsThatCannotSweep:
    def test_two_point_scan_grid_rejected(self):
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(scan_min_hz=2000.0, scan_max_hz=2100.0)
        assert [p.split(":")[0] for p in err.value.problems] == \
            ["scan_step_hz"]

    def test_two_sample_sweep_rejected(self):
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(sweep_duration_s=1e-5)
        assert [p.split(":")[0] for p in err.value.problems] == \
            ["sweep_duration_s"]

    @given(lo=st.floats(1.0, 1e5), span=st.floats(0.0, 2e4),
           step=st.floats(1.0, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_counted_points_match_the_grid(self, lo, span, step):
        hi = lo + span
        points = np.arange(lo, hi + step, step).size
        # A sample rate far above the grid and 3-sample sweeps keep the
        # Nyquist and work rules out of play.
        scan = dict(scan_min_hz=lo, scan_max_hz=hi, scan_step_hz=step,
                    sample_rate_hz=1e6, sweep_duration_s=3e-6,
                    sense_duration_s=1e-4)
        if lo < hi and points >= 3:
            assert PerceptionSettings(**scan).scan_grid().size == points
        else:
            with pytest.raises(ConfigError):
                PerceptionSettings(**scan)

    @given(lo=st.floats(1.0, 1e5), span=st.floats(1e-3, 2e4),
           step=st.floats(1.0, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_nyquist_rule_reads_the_last_grid_point(self, lo, span, step):
        grid = np.arange(lo, lo + span + step, step)
        assume(grid.size >= 3)

        def settings_at(rate):
            return PerceptionSettings(
                scan_min_hz=lo, scan_max_hz=lo + span, scan_step_hz=step,
                sample_rate_hz=rate, sweep_duration_s=3.0 / rate,
                sense_duration_s=100.0 / rate)

        with pytest.raises(ConfigError) as err:
            settings_at(2.0 * grid[-1])
        assert [p.split(":")[0] for p in err.value.problems] == \
            ["scan_max_hz"]
        settings_at(2.0 * np.nextafter(grid[-1], np.inf))

    def test_sweep_work_bounded(self):
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(scan_step_hz=0.1)
        [problem] = err.value.problems
        assert problem.startswith("scan_step_hz:")
        assert "730001 scan points of 2000 sweep samples" in problem
        # Fifty times the default grid's work still sweeps.
        assert PerceptionSettings(scan_step_hz=5.0).scan_grid().size == 14601

    def test_endless_sweep_names_its_duration(self):
        for duration in (1e308, 100.0):
            with pytest.raises(ConfigError) as err:
                PerceptionSettings(sweep_duration_s=duration)
            [problem] = err.value.problems
            assert problem.startswith("sweep_duration_s:")

    def test_sense_window_holds_a_welch_segment(self):
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(sense_duration_s=63 / 200e3)
        assert [p.split(":")[0] for p in err.value.problems] == \
            ["sense_duration_s"]
        PerceptionSettings(sense_duration_s=64 / 200e3)

    def test_two_sample_trace_has_no_tone_weight(self):
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=[1.0, 2.0],
                                  input_power_w=1.0)
        with pytest.raises(InsufficientDataError):
            measure_tone_amplitude(trace, 1000.0)


class TestWelchPsd:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 64, 65, 127, 1000, 1023,
                                   4097, 5120, 10000, 77777])
    def test_matches_scipy_welch(self, n):
        rng = np.random.default_rng(n)
        samples = 1e-3 * (1.0 + 0.01 * rng.standard_normal(n)
                          + 0.1 * np.sin(0.3 * np.arange(n)))
        trace = InterferenceTrace(sample_rate_hz=2e5, samples=samples,
                                  input_power_w=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            freqs, psd = perception._welch_psd(trace)
        nperseg = min(n, max(64, 2 ** int(math.log2(2 * n / 9))))
        with warnings.catch_warnings():
            # scipy warns of a zero-weight window for the one-sample case.
            warnings.simplefilter("ignore")
            ref_freqs, ref_psd = welch(samples, fs=2e5, window="hann",
                                       nperseg=nperseg,
                                       noverlap=nperseg // 2,
                                       detrend="constant")
        np.testing.assert_array_equal(freqs, ref_freqs)
        np.testing.assert_allclose(psd, ref_psd, rtol=1e-12,
                                   atol=1e-13 * np.abs(ref_psd).max())


def _nulls_or_error(find, trace, max_k, threshold_db):
    """The repr of the nulls found, which pins every float bit, or the type
    and message of the error raised."""
    try:
        return repr(find(trace, max_k, threshold_db))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return f"{type(exc).__name__}: {exc}"


class TestVectorizedNotchScan:
    """The local-minimum rule and the trace notch scan against the
    per-bin loop of tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0])
                           | st.floats(-1e3, 1e3), max_size=40),
           start=st.integers(1, 6), stop_before_end=st.integers(1, 8))
    def test_local_minima_follow_the_loop_rule(self, values, start,
                                               stop_before_end):
        v = np.array(values)
        for lo, hi in ((start, v.size - stop_before_end),
                       (1, v.size - 1), (4, v.size - 2)):
            want = [i for i in range(lo, hi)
                    if v[i] <= v[i - 1] and v[i] < v[i + 1]]
            assert perception._local_minima(v, lo, hi).tolist() == want

    @pytest.mark.parametrize("position_m", [1000.0, 5000.0, 9000.0,
                                            11000.0, 14500.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_impact_traces(self, position_m, seed):
        ev = DisturbanceEvent(
            ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=1e-5,
                         impact_gain=2.0),
            position_m=position_m, start_s=0.0)
        trace = synthesize_trace(ev, channel(), 0.0256, 200e3,
                                 noise_sigma=0.0008, seed=seed,
                                 start_s=-0.0128)
        for max_k, threshold_db in ((3, 10.0), (2, 6.0), (1, 15.0)):
            assert _nulls_or_error(perception._nulls_from_trace, trace,
                                   max_k, threshold_db) == _nulls_or_error(
                per_candidate_trace_nulls, trace, max_k, threshold_db)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([None, 1, 2, 3]),
           max_k=st.integers(1, 4),
           threshold_db=st.sampled_from([0.0, 3.0, 10.0])
           | st.floats(-20.0, 40.0))
    def test_random_traces(self, n, seed, levels, max_k, threshold_db):
        # Few sample levels give tied and zero spectral bins; one level a
        # spectrum of exact zeros.
        rng = np.random.default_rng(seed)
        samples = (rng.standard_normal(n) if levels is None
                   else rng.integers(0, levels, n).astype(float))
        trace = InterferenceTrace(sample_rate_hz=2e5, samples=samples,
                                  input_power_w=1.0)
        assert _nulls_or_error(perception._nulls_from_trace, trace, max_k,
                               threshold_db) == _nulls_or_error(
            per_candidate_trace_nulls, trace, max_k, threshold_db)

    # A subnormal bin overflows the depth ratio in both scans alike.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(psd=st.lists(st.sampled_from([0.0, 1e-3, 1.0, 2.0, 30.0])
                        | st.floats(0.0, 1e3), max_size=200),
           max_k=st.integers(1, 4),
           threshold_db=st.sampled_from([0.0, 3.0, 10.0])
           | st.floats(-20.0, 40.0))
    def test_crafted_spectra(self, psd, max_k, threshold_db):
        # Plateaus, ties and exact zeros at any length, down to spectra so
        # short that every window is cut off by the scan start or the end.
        spectrum = (np.arange(len(psd)) * 500.0, np.array(psd))
        trace = InterferenceTrace(sample_rate_hz=2e5, samples=[1.0],
                                  input_power_w=1.0)
        with mock.patch.object(perception, "_welch_psd",
                               lambda _: spectrum):
            assert _nulls_or_error(perception._nulls_from_trace, trace,
                                   max_k, threshold_db) == _nulls_or_error(
                per_candidate_trace_nulls, trace, max_k, threshold_db)
