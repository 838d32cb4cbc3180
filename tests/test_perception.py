import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import welch
from scipy.special import jv
from scipy.stats import ks_2samp

from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams,
                                   PressureParams, PztParams)
from sagnacsim.errors import (AliasingError, ConfigError,
                              InsufficientDataError, OutOfLoopError,
                              UndefinedResolutionError)
from sagnacsim import perception
from sagnacsim.config import parse_config_dict
from sagnacsim.optics import C_VACUUM, LoopChannel
from sagnacsim.perception import (DEFAULT_INPUT_POWER_W, DEFAULT_NOISE_SIGMA,
                                  InterferenceTrace,
                                  NullFrequency, PerceptionSettings, acquire,
                                  find_null_frequencies, frequency_sweep,
                                  locate, localization_report,
                                  loop_phase,
                                  measure_tone_amplitude,
                                  nonreciprocal_phase, resolution, sense,
                                  significance, synthesize_trace,
                                  window_phase_means)

from oracles import (ac_amplitude_theory, ac_power_at, drawn_noise_floors,
                     first_order_span, fresh_welch_psd, masked_significance,
                     per_candidate_notches, per_candidate_trace_nulls,
                     point_by_point_sweep,
                     position_from_null, rayleigh_floor, sampled_phase_means,
                     steady_state_response, tone_amplitude,
                     two_copy_phase, two_sided_position_span)

L = 30000.0
N_FIBER = 1.468


def channel(bias=0.5 * math.pi):
    return LoopChannel(length_m=L, refractive_index=N_FIBER,
                       bias_phase_rad=bias)


def pzt_event(position_m, f_hz=500.0, delta_d=0.05):
    return DisturbanceEvent(
        PztParams(drive_amplitude_v=1.0,
                  frequency_hz=f_hz,
                  phase_gain_rad_per_v=delta_d),
        position_m=position_m)


def _config_problems(entry, fs):
    """The keys a config sampled at ``fs`` finds wrong with disturbance
    ``entry``, under a scan grid and trace lengths that ``fs`` holds."""
    f = fs / 2.0
    try:
        parse_config_dict({"disturbances": [entry], "perception": {
            "sample_rate_hz": fs, "sense_duration_s": 64.0 / f,
            "sweep_duration_s": 4.0 / f, "scan_min_hz": f / 8,
            "scan_max_hz": f / 4, "scan_step_hz": f / 16}})
    except ConfigError as exc:
        return [p.split(":")[0] for p in exc.problems]
    return []


class TestLoopPhase:
    def test_midpoint_self_cancels(self):
        ev = pzt_event(L / 2)
        t = np.linspace(0, 0.01, 500)
        assert np.allclose(loop_phase(t, (ev,), channel(bias=0.7)), 0.0,
                           atol=1e-12)

    def test_zero_without_a_dynamic_event(self):
        pressed = DisturbanceEvent(PressureParams(0.1), position_m=100.0)
        t = np.linspace(0, 0.01, 500)
        for events in ((), (pressed,), (pressed, pressed)):
            assert loop_phase(0.0, events, channel()) == 0.0
            assert np.array_equal(loop_phase(t, events, channel()),
                                  np.zeros_like(t))

    def test_sums_the_events(self):
        events = (pzt_event(4000.0, f_hz=3000.0), pzt_event(9000.0),
                  DisturbanceEvent(PressureParams(0.1), position_m=100.0),
                  DisturbanceEvent(ImpactParams(0.1, 0.1), position_m=7000.0,
                                   start_s=0.004))
        t = np.linspace(0, 0.01, 2001)
        want = (nonreciprocal_phase(t, events[0], channel())
                + nonreciprocal_phase(t, events[1], channel())
                + nonreciprocal_phase(t, events[3], channel()))
        assert np.array_equal(loop_phase(t, events, channel()), want)

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


def drive(position_m=5000.0, start_s=3.0, f_hz=3000.0, peak_rad=0.6):
    """The README drive, 0.6 rad at 3 kHz from 3 s, by default."""
    return DisturbanceEvent(
        PztParams(drive_amplitude_v=1.0,
                  frequency_hz=f_hz,
                  phase_gain_rad_per_v=peak_rad),
        position_m=position_m, start_s=start_s)


def _lag(event):
    return N_FIBER * (L - 2.0 * event.position_m) / C_VACUUM


_SETTLED_DRIVES = {
    "readme-5km": drive(),
    "readme-25km": drive(position_m=25000.0),
    "60-rad": drive(peak_rad=60.0),
    "32768-hz": drive(f_hz=32768.0),
    "from-11.7s-25km": drive(position_m=25000.0, start_s=11.7),
}


class TestSettledDrive:
    """A drive whose two copies both run reads one cosine a sample, held
    to the two-copy difference of tests/oracles.py; elsewhere it is that
    difference.

    Each form rounds the arguments it takes, which reach ``omega t``: the
    times ``t`` and ``t - lag`` round at their own scale, not at that of
    ``t - s``.  The copies weigh an argument's error by ``peak`` each and
    the settled form by ``A <= 2 peak``, so the two differ by at most
    about ``4 peak eps (|omega t| + |omega lag| + 2)``, the last terms for
    the amplitude's own argument and the rounding of the sines."""

    RATE = 200e3

    @staticmethod
    def bound(event, t):
        params = event.params
        omega = params.angular_frequency_rad_s
        return 4.0 * params.peak_phase_rad * np.finfo(float).eps * (
            np.abs(omega * t) + abs(omega * _lag(event)) + 2.0)

    def settled_from(self, event):
        return event.start_s + max(0.0, _lag(event))

    @pytest.mark.parametrize("later_s", [0.0, 1e-3, 7.25])
    @pytest.mark.parametrize("event", _SETTLED_DRIVES.values(),
                             ids=_SETTLED_DRIVES)
    def test_settled_phase_within_rounding(self, monkeypatch, event,
                                           later_s):
        t = self.settled_from(event) + later_s + np.arange(4000) / self.RATE

        def two_copies(*args):
            raise AssertionError("took the two-copy form")

        with monkeypatch.context() as patched:
            patched.setattr(perception, "single_pass_phase", two_copies)
            got = nonreciprocal_phase(t, event, channel())
            scalar = nonreciprocal_phase(float(t[-1]), event, channel())
        want = two_copy_phase(t, event, channel())
        bound = self.bound(event, t)
        assert np.all(np.abs(got - want) <= bound)
        assert type(scalar) is float
        assert abs(scalar - want[-1]) <= bound[-1]

    @pytest.mark.parametrize("later_s", [0.0, 1e-3, 7.25])
    @pytest.mark.parametrize("event", _SETTLED_DRIVES.values(),
                             ids=_SETTLED_DRIVES)
    def test_noise_free_trace_within_rounding(self, event, later_s):
        # The port adds the bias and takes a cosine, each rounding at the
        # scale of the bias plus the phase, which is at most 2 peak.
        start = self.settled_from(event) + later_s
        trace = synthesize_trace((event,), channel(), 0.02, self.RATE, 0.0,
                                 start_s=start)
        t = start + np.arange(trace.samples.size) / self.RATE
        bias = channel().bias_phase_rad
        want = DEFAULT_INPUT_POWER_W * (1.0 + np.cos(
            bias + two_copy_phase(t, event, channel())))
        eps = np.finfo(float).eps
        peak = event.params.peak_phase_rad
        assert np.all(np.abs(trace.samples - want) <= DEFAULT_INPUT_POWER_W
                      * (self.bound(event, t)
                         + 2.0 * eps * (bias + 2.0 * peak + 4.0)))

    @pytest.mark.parametrize("event", _SETTLED_DRIVES.values(),
                             ids=_SETTLED_DRIVES)
    def test_times_from_before_both_copies_take_two(self, event):
        # One time a float before both copies run keeps the whole array
        # on the two-copy form, with the oracle's very bytes; so does a
        # trace that straddles the onset.
        first = np.nextafter(self.settled_from(event), 0.0)
        t = first + np.arange(4000) / self.RATE
        assert nonreciprocal_phase(t, event, channel()).tobytes() == \
            two_copy_phase(t, event, channel()).tobytes()
        start = event.start_s - 0.005
        trace = synthesize_trace((event,), channel(), 0.02, self.RATE, 0.0,
                                 start_s=start)
        t = start + np.arange(trace.samples.size) / self.RATE
        want = DEFAULT_INPUT_POWER_W * (1.0 + np.cos(
            channel().bias_phase_rad + two_copy_phase(t, event, channel())))
        assert trace.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("start_s", [0.0, 3.0])
    def test_midpoint_is_exactly_zero(self, start_s):
        event = drive(position_m=L / 2, start_s=start_s, peak_rad=60.0)
        assert _lag(event) == 0.0
        for t in (start_s + np.arange(4000) / self.RATE,
                  start_s - 0.01 + np.arange(4000) / self.RATE,
                  start_s + 7.25):
            assert np.all(nonreciprocal_phase(t, event, channel()) == 0.0)


class TestWindowPhaseMeans:
    """A drive window's closed-form means of ``exp(i k phase)`` against
    the midpoint average of the sampled loop phase."""

    K = 25
    SAMPLES = 2**22

    @pytest.mark.parametrize("event, t0, window_s", [
        (drive(), 4.0, 1.0),
        (drive(start_s=3.3, f_hz=2937.3), 3.0, 1.0),
        (drive(position_m=25000.0, start_s=3.3, f_hz=2937.3), 3.0, 1.0),
        (drive(start_s=3.99995), 3.0, 1.0),
        (drive(position_m=25000.0, start_s=4.00005), 3.0, 1.0),
        (drive(position_m=15000.0), 4.0, 1.0),
        (drive(start_s=3.03), 3.0, 0.1),
        (drive(start_s=3.3), 3.0, 3.7),
        (drive(start_s=3.3, peak_rad=3.0), 3.0, 1.0),
    ], ids=["after-onset", "onset-5km", "onset-25km", "ends-one-copy-5km",
            "ends-one-copy-25km", "midpoint", "window-0.1s", "window-3.7s",
            "peak-3rad"])
    def test_closed_form_matches_the_sampled_oracle(self, event, t0,
                                                    window_s):
        # The midpoint rule is off by h**2 / 24 times the jumps of the
        # derivative of exp(i k phase) at the window ends and at the two
        # kinks of the onset, at most 6 k omega peak in all, so the oracle
        # mean is within k omega peak T / (4 N**2) of the exact one.
        got = window_phase_means((event,), channel(), t0, window_s,
                                 200_000, self.K)
        want = sampled_phase_means((event,), channel(), t0, window_s,
                                   self.SAMPLES, self.K)
        params = event.params
        bound = 1e-11 + np.arange(1, self.K + 1) \
            * params.angular_frequency_rad_s * params.peak_phase_rad \
            * window_s / (4.0 * self.SAMPLES**2)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("event, reused", [
        (drive(), True), (drive(position_m=25000.0), True),
        (drive(peak_rad=300.0), False)],
        ids=["readme-5km", "readme-25km", "300-rad"])
    def test_cached_means_equal_cold_ones(self, event, reused):
        # The onset window, then steady ones that read its rows; a 300 rad
        # drive takes one row a block, more blocks than the cache holds,
        # so each window computes its rows again.
        windows = [(3.0, 1.0), (4.0, 1.0), (5.0, 1.0), (5.5, 0.25)]
        perception._drive_rows.cache_clear()
        warm = [window_phase_means((event,), channel(), t0, window_s,
                                   200_000, self.K)
                for t0, window_s in windows]
        assert (perception._drive_rows.cache_info().hits > 0) == reused
        for (t0, window_s), got in zip(windows, warm):
            perception._drive_rows.cache_clear()
            cold = window_phase_means((event,), channel(), t0, window_s,
                                      200_000, self.K)
            assert np.array_equal(got, cold)

    def test_midpoint_means_are_exactly_one(self):
        got = window_phase_means((drive(position_m=L / 2),), channel(),
                                 4.0, 1.0, 200_000, self.K)
        np.testing.assert_array_equal(got, np.ones(self.K))

    def test_drive_too_strong_for_the_nodes_is_sampled(self):
        # 25 harmonics of a 3 kRad drive need more than 2**16 nodes.
        event = drive(peak_rad=3000.0)
        got = window_phase_means((event,), channel(), 4.0, 1.0, 200_000,
                                 self.K)
        np.testing.assert_allclose(
            got, sampled_phase_means((event,), channel(), 4.0, 1.0, 2**16,
                                     self.K), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("z, branch", [(24082.0, "_drive_means"),
                                           (24083.0, "_harmonic_means")])
    def test_drive_on_each_side_of_the_order_limit(self, monkeypatch, z,
                                                   branch):
        # 25 harmonics of a piece of amplitude A keep the orders |m| <= M
        # of J_m(25 A): 2M + 1 = 65535 at 25 A = 24082 and 65537 at
        # 24083, past the _PHASE_SAMPLES the closed form may take.
        unit = perception._drive_pieces(drive(peak_rad=1.0), channel(),
                                        4.0, 1.0)[0][1]
        event = drive(peak_rad=z / (self.K * unit))
        [(_, amplitude, _, _)] = perception._drive_pieces(event, channel(),
                                                          4.0, 1.0)
        orders = perception._bessel_orders(self.K * abs(amplitude), 10**6)
        assert orders == {"_drive_means": 32767,
                          "_harmonic_means": 32768}[branch]
        calls = set()
        for name in ("_drive_means", "_harmonic_means"):
            def spy(*args, _kernel=getattr(perception, name), _name=name):
                calls.add(_name)
                return _kernel(*args)
            monkeypatch.setattr(perception, name, spy)
        got = window_phase_means((event,), channel(), 4.0, 1.0, 200_000,
                                 self.K)
        assert calls == {branch}
        if branch == "_drive_means":
            # The window holds 3000 whole drive periods, over which the
            # mean of exp(i k A cos theta) is J_0(k A).
            np.testing.assert_allclose(
                got, jv(0, np.arange(1, self.K + 1) * amplitude), rtol=0.0,
                atol=1e-12)

    @pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 7.3, 60.0, 1000.0])
    def test_jacobi_anger_coefficients_are_bessel_values(self, z):
        # The window means read exp(i z cos t) as cos plus i sin.
        orders = perception._bessel_orders(z, 10**6)
        m = np.arange(-orders, orders + 1)
        cos, sin = perception._drive_series(
            lambda x: (np.cos(x), np.sin(x)), z, orders)
        np.testing.assert_allclose(cos + 1j * sin, 1j ** m * jv(m, z),
                                   rtol=0.0, atol=1e-13)


class TestSynthesizeTrace:
    def test_dark_port_without_disturbance(self):
        trace = synthesize_trace((), channel(bias=math.pi), 0.01, 100e3,
                                 noise_sigma=0.0, input_power_w=2.0)
        assert np.allclose(trace.samples, 0.0, atol=1e-12)

    def test_bright_port_without_disturbance(self):
        trace = synthesize_trace((), channel(bias=0.0), 0.01, 100e3,
                                 noise_sigma=0.0, input_power_w=2.0)
        assert np.allclose(trace.samples, 4.0, rtol=1e-12)

    def test_small_signal_amplitude_matches_theory(self):
        # The synthesized response carries twice the normalized single-pass
        # form (the two directions' waveforms subtract), so the linearized
        # amplitude is 2x the closed-form value.
        for delta_d in (0.01, 0.05, 0.1):
            ev = pzt_event(5000.0, f_hz=4000.0, delta_d=delta_d)
            trace = synthesize_trace((ev,), channel(), 0.02, 200e3,
                                     noise_sigma=0.0, input_power_w=1.0)
            measured = measure_tone_amplitude(trace, 4000.0)
            theory = ac_amplitude_theory(2 * math.pi * 4000.0, 5000.0,
                                         channel(), delta_d, 1.0)
            assert measured == pytest.approx(2.0 * theory, rel=0.01)

    def test_window_without_a_sample_raises(self):
        # Half a sample period rounds to no sample at all.
        with pytest.raises(InsufficientDataError):
            synthesize_trace((), channel(), 0.4 / 200e3, 200e3)
        assert synthesize_trace((), channel(), 0.6 / 200e3,
                                200e3).samples.size == 1

    def test_undersampled_raises(self):
        ev = pzt_event(5000.0, f_hz=60e3)
        with pytest.raises(AliasingError):
            synthesize_trace((ev,), channel(), 0.01, 100e3)

    def test_any_undersampled_event_raises(self):
        slow, fast = pzt_event(5000.0, f_hz=3e3), pzt_event(9000.0, f_hz=60e3)
        for events in ((slow, fast), (fast, slow)):
            with pytest.raises(AliasingError, match="60000.0 Hz"):
                synthesize_trace(events, channel(), 0.01, 100e3)

    @given(f=st.floats(1.0, 1e5))
    @settings(max_examples=200, deadline=None)
    def test_drive_at_half_the_sample_rate_aliases(self, f):
        # A drive at exactly half the sample rate aliases, in every check.
        event, grid = pzt_event(5000.0, f_hz=f), [f / 4, f / 2, f]
        with pytest.raises(AliasingError):
            synthesize_trace((event,), channel(), 4.0 / f, 2.0 * f)
        with pytest.raises(AliasingError):
            frequency_sweep(event, channel(), grid, duration_s=4.0 / f,
                            sample_rate_hz=2.0 * f)
        faster = 2.0 * f * (1.0 + 1e-9)
        synthesize_trace((event,), channel(), 4.0 / f, faster)
        frequency_sweep(event, channel(), grid, duration_s=4.0 / f,
                        sample_rate_hz=faster)
        drive_entry = {"kind": "pzt", "position_m": 5000.0,
                       "drive_amplitude_v": 1.0, "frequency_hz": f,
                       "phase_gain_rad_per_v": 0.05}
        assert _config_problems(drive_entry, 2.0 * f) == [
            "disturbances[0].frequency_hz"]
        assert _config_problems(drive_entry, faster) == []
        # An impact's band, 0.5 / width_s, reaches half the sample rate at
        # a width of one sample period, up to rounding: config validation
        # rejects exactly the widths that synthesis rejects, and a width
        # just inside passes both.
        fs = 2.0 * f
        for width, inside in ((1.0 / fs, False),
                              (1.0 / fs * (1.0 + 1e-9), True)):
            impact = DisturbanceEvent(ImpactParams(0.1, 0.1, width),
                                      position_m=5000.0)
            try:
                synthesize_trace((impact,), channel(), 4.0 / f, fs)
                synthesized = True
            except AliasingError:
                synthesized = False
            problems = _config_problems({"kind": "impact",
                                         "position_m": 5000.0,
                                         "width_s": width}, fs)
            assert problems == ([] if synthesized
                                else ["disturbances[0].width_s"])
            assert synthesized or not inside

    def test_deterministic_per_seed(self):
        ev = pzt_event(7000.0)
        a = synthesize_trace((ev,), channel(), 0.01, 200e3, 0.0019, seed=5)
        b = synthesize_trace((ev,), channel(), 0.01, 200e3, 0.0019, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_quasi_static_trace_is_flat(self):
        ev = DisturbanceEvent(PressureParams(0.5), position_m=9000.0)
        trace = synthesize_trace((ev,), channel(), 0.02, 200e3,
                                 noise_sigma=0.0)
        assert np.allclose(trace.samples, trace.samples[0], rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(bias=st.floats(-20.0, 20.0), seed=st.integers(0, 2**31 - 1),
           quasi_static=st.booleans())
    def test_undisturbed_trace_is_the_port_formula_per_sample(
            self, bias, seed, quasi_static):
        # The port formula is evaluated once for the whole trace; bit for
        # bit it is the formula over n equal phases with the seed's noise.
        events = ((DisturbanceEvent(PressureParams(0.5), position_m=9000.0),)
                  if quasi_static else ())
        trace = synthesize_trace(events, channel(bias=bias), 0.001, 200e3,
                                 0.0019, seed=seed)
        z = np.random.default_rng(seed).standard_normal(200)
        want = (DEFAULT_INPUT_POWER_W * (1.0 + np.cos(np.full(200, bias)))
                * (1.0 + 0.0019 * z))
        assert trace.samples.tobytes() == want.tobytes()

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            InterferenceTrace(0.0, np.ones(4), 1.0)
        with pytest.raises(ValueError):
            InterferenceTrace(1e3, np.array([]), 1.0)
        with pytest.raises(ValueError):
            InterferenceTrace(1e3, np.array([1.0, np.inf]), 1.0)

    @pytest.mark.parametrize("sample", [
        math.nan, math.inf, -math.inf, 1e200,
        np.nextafter(perception.MAX_SAMPLE_W, math.inf),
        -np.nextafter(perception.MAX_SAMPLE_W, math.inf)])
    def test_samples_bounded_in_magnitude(self, sample):
        bound = perception.MAX_SAMPLE_W
        assert bound == 2.0 * perception.MAX_INPUT_POWER_W * (
            1.0 + 100.0 * perception.MAX_NOISE_SIGMA)
        kept = InterferenceTrace(1e3, np.array([bound, -bound]), 1.0)
        assert kept.samples.tolist() == [bound, -bound]
        with pytest.raises(ValueError, match="at most 2.00002e\\+11 W"):
            InterferenceTrace(1e3, np.array([1.0, sample]), 1.0)


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
        trace = synthesize_trace((ev,), channel(), 0.0256, 200e3,
                                 noise_sigma=0.0008, seed=5,
                                 start_s=-0.0128)
        nulls = find_null_frequencies(trace, max_k=2)
        assert nulls and nulls[0].harmonic == 1
        assert nulls[0].frequency_hz == pytest.approx(10210.9, abs=500.0)

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            find_null_frequencies([1.0, 2.0])

    def test_deepest_notch_threshold(self):
        # At the bound a sweep and a trace are searched without overflow;
        # past it the settings are rejected.
        deepest = perception.MAX_NOTCH_DEPTH_DB
        trace = synthesize_trace((), channel(), 0.0256, 200e3, seed=5)
        for data in (self.make_sweep(5000.0), trace):
            assert find_null_frequencies(data, max_k=3,
                                         depth_threshold_db=deepest) == []
        assert PerceptionSettings(notch_depth_db=deepest).notch_depth_db \
            == deepest
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(notch_depth_db=np.nextafter(deepest, 1e4))
        assert [p.split(":")[0] for p in err.value.problems] == \
            ["notch_depth_db"]


class TestLocalize:
    """The position of a one-null report, the paper's null-to-position
    formula."""

    @staticmethod
    def localize(null):
        return localization_report([null], channel()).position_m

    def test_reference_null(self):
        x = self.localize(NullFrequency(10210.0, 1, 20.0))
        assert x == pytest.approx(4999.104, abs=0.01)
        assert x == pytest.approx(
            position_from_null(10210.0, 1, L, N_FIBER), rel=1e-12)

    def test_limit_is_midpoint(self):
        x = self.localize(NullFrequency(1e12, 1, 20.0))
        assert x == pytest.approx(L / 2, rel=1e-6)

    def test_harmonic_consistency(self):
        x1 = self.localize(NullFrequency(10210.0, 1, 20.0))
        x2 = self.localize(NullFrequency(20420.0, 2, 20.0))
        assert x1 == pytest.approx(x2, rel=1e-12)

    def test_out_of_loop(self):
        floor = C_VACUUM / (N_FIBER * L)
        with pytest.raises(OutOfLoopError):
            self.localize(NullFrequency(floor * 0.99, 1, 20.0))


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
    """The propagated uncertainty of a report, from the delays ``k / f``
    of its nulls."""

    @staticmethod
    def sigma(fundamentals_hz):
        nulls = [NullFrequency(f * k, k, 20.0)
                 for k, f in enumerate(fundamentals_hz, start=1)]
        return localization_report(nulls, channel()).sigma_position_m

    def test_identical_samples(self):
        assert self.sigma([9000.0, 9000.0, 9000.0]) == 0.0

    def test_reference_value(self):
        # two samples +-500 Hz around 10.21 kHz: x is linear in the delay
        # 1 / f, so sigma = c/(2 n) * SD(1 / f)
        samples = [10210.0 - 500.0, 10210.0 + 500.0]
        sd = np.std([1.0 / f for f in samples], ddof=1)
        got = self.sigma(samples)
        assert got == pytest.approx(C_VACUUM / (2 * N_FIBER) * sd, rel=1e-12)
        # the anchor case: sigma_f = 500 Hz at 10.21 kHz maps to ~490 m
        anchor = C_VACUUM / (2 * N_FIBER * 10210.0 ** 2) * 500.0
        assert anchor == pytest.approx(489.7598416608877, rel=1e-12)


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

# The README drive: 1.2 V at 0.5 rad/V.
README_PEAK_RAD = 0.6


def alias_points(grid, peak, fs=perception.DEFAULT_SAMPLE_RATE_HZ):
    """Grid points where sampling folds a harmonic of the drive onto its
    tone: the sampled drive repeats every ``q = fs / gcd(f, fs)`` samples,
    so harmonics ``q - 1`` and ``q + 1`` fold onto ``f``, and a point is
    taken where ``|J_(q-1)(2 peak)|``, the largest such harmonic can be,
    exceeds 1e-6 of the intensity."""
    q = np.array([fs / math.gcd(int(f), int(fs)) for f in grid])
    return np.abs(jv(q - 1, 2.0 * peak)) > 1e-6


class TestFrequencySweep:
    """The sweep reads the settled drive behind an ideal anti-alias
    filter.  Without noise it matches the point-by-point tone measurement
    of traces of the settled drive within 1e-5 of its largest amplitude,
    away from the points where sampling folds the drive's harmonics onto
    the tone, and its noise floor to rounding.  With noise, amplitudes at
    fixed grid points have the distribution of that measurement."""

    @staticmethod
    def assert_matches_settled_traces(event, grid, **kwargs):
        got = frequency_sweep(event, channel(), grid, noise_sigma=0.0,
                              **kwargs)
        want = point_by_point_sweep(event, channel(), grid, noise_sigma=0.0,
                                    **kwargs)
        scale = want.amplitudes.max()
        away = ~alias_points(got.frequencies_hz,
                             event.params.peak_phase_rad)
        assert np.array_equal(got.frequencies_hz, want.frequencies_hz)
        np.testing.assert_allclose(got.amplitudes[away],
                                   want.amplitudes[away], rtol=0,
                                   atol=1e-5 * scale)
        np.testing.assert_allclose(got.noise_floor_amplitude,
                                   want.noise_floor_amplitude, rtol=0,
                                   atol=1e-11 * scale)
        return got, away

    @pytest.mark.parametrize("x", [1000.0, 5000.0, 9000.0, 13000.0,
                                   14500.0, 22000.0, 28500.0])
    def test_readme_drive_matches_settled_traces(self, x):
        _, away = self.assert_matches_settled_traces(
            pzt_event(x, 3000.0, README_PEAK_RAD), ACCEPTANCE_GRID)
        # 25, 40, 50 and 75 kHz repeat every 8, 5, 4 and 8 samples.
        assert ACCEPTANCE_GRID[~away].tolist() == [25e3, 40e3, 50e3, 75e3]

    def test_long_trace(self):
        # 40 000 samples a trace.
        self.assert_matches_settled_traces(
            pzt_event(5000.0, 500.0, 0.1), [9000.0, 10250.0, 11500.0],
            duration_s=0.2)

    def test_midpoint_cancels_the_drive(self):
        # Both copies cancel: every amplitude is zero to the rounding of
        # the intensity.
        sweep = frequency_sweep(pzt_event(L / 2, 500.0, 0.1), channel(),
                                ACCEPTANCE_GRID, noise_sigma=0.0)
        assert sweep.amplitudes.max() < 1e-15 * DEFAULT_INPUT_POWER_W

    @pytest.mark.parametrize("bias, n", [(0.5 * math.pi, 2000),
                                         (1.0, 2000), (0.5 * math.pi, 3),
                                         (0.5 * math.pi, 40_000)])
    def test_floor_is_the_rayleigh_median(self, bias, n):
        # The floor is the median amplitude of the drive-off noise, from
        # the np.hanning sums, with no sample drawn and whatever the seed.
        want = rayleigh_floor(channel(bias), n, DEFAULT_NOISE_SIGMA)
        for seed in (11, 12):
            sweep = frequency_sweep(
                pzt_event(5000.0, 3000.0, 0.6), channel(bias),
                ACCEPTANCE_GRID, duration_s=n / 200e3, seed=seed)
            assert sweep.noise_floor_amplitude == pytest.approx(want,
                                                                rel=1e-12)

    def test_floor_is_the_median_of_drawn_floors(self):
        # The floor the 17 probes drew from a drive-off trace is the
        # median of 17 Rayleigh amplitudes, whose median is the closed
        # form.  Over 2000 seeds the drawn floor has an SD of 0.17 of it,
        # so the median of the draws has a standard error of about 1.25 x
        # 0.17 / sqrt(2000) = 0.5 %: the bound is 2 %, four of them.
        sweep = frequency_sweep(pzt_event(5000.0, 3000.0, 0.6), channel(),
                                ACCEPTANCE_GRID, seed=1)
        drawn = drawn_noise_floors(channel(), ACCEPTANCE_GRID,
                                   range(1, 2001))
        ratio = np.median(drawn) / sweep.noise_floor_amplitude
        assert abs(ratio - 1.0) < 0.02, ratio

    # Two-sample Kolmogorov-Smirnov test of the noisy sweep against the
    # point-by-point measurement, each over its own fixed seeds: each
    # amplitude must not be rejected at ALPHA, and the floors agree.
    ALPHA = 1e-3
    RUNS = 1000
    # At 5 km the first null lies at c / (n (L - 2x)), the peak at half of
    # it.
    NULL_HZ = C_VACUUM / (N_FIBER * (L - 2 * 5000.0))

    def test_noise_at_null_and_peak(self):
        event = pzt_event(5000.0, 500.0, 0.6)
        points = [self.NULL_HZ / 2, self.NULL_HZ, 37e3]

        def draws(sweep, seeds):
            runs = [sweep(event, channel(), points, seed=int(seed))
                    for seed in seeds]
            return (np.array([r.amplitudes for r in runs]),
                    {r.noise_floor_amplitude for r in runs})

        got, got_floors = draws(frequency_sweep, range(self.RUNS))
        want, [want_floor] = draws(point_by_point_sweep,
                                   range(self.RUNS, 2 * self.RUNS))
        p_values = [ks_2samp(got[:, i], want[:, i]).pvalue
                    for i in range(got.shape[1])]
        assert min(p_values) > self.ALPHA, p_values
        [floor] = got_floors
        assert floor == pytest.approx(want_floor, rel=1e-12)

    @pytest.mark.parametrize("noise_sigma, generators",
                             [(0.0019, 1), (0.0, 0)])
    def test_at_most_two_generators(self, monkeypatch, noise_sigma,
                                    generators):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        sweep = frequency_sweep(pzt_event(5000.0, 3000.0, 0.6), channel(),
                                ACCEPTANCE_GRID, noise_sigma=noise_sigma,
                                seed=7)
        assert sweep.amplitudes.size == 293
        assert len(built) == generators

    def test_dark_bias_has_no_noise_to_draw(self):
        # At the midpoint the drive cancels, so at a dark bias every sample
        # is exactly 0 and each point's noise covariance vanishes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = frequency_sweep(pzt_event(L / 2, 500.0, 0.6),
                                    channel(bias=math.pi),
                                    ACCEPTANCE_GRID[:20], seed=3)
        assert np.all(sweep.amplitudes == 0.0)
        assert sweep.noise_floor_amplitude == 0.0

    def test_aliasing_checked_before_any_trace(self, monkeypatch):
        # The definition rejects the grid too; the sweep names its top, to
        # which the drives extend.
        grid = np.arange(90e3, 130e3, 2500.0)
        event = pzt_event(5000.0)
        with pytest.raises(AliasingError):
            point_by_point_sweep(event, channel(), grid, seed=1)

        def no_trace(*args, **kwargs):
            raise AssertionError("synthesized a trace")

        monkeypatch.setattr(perception, "synthesize_trace", no_trace)
        with pytest.raises(AliasingError) as got:
            frequency_sweep(event, channel(), grid, seed=1)
        assert str(got.value) == ("sample rate 200000.0 Hz cannot represent "
                                  "a disturbance extending to 127500.0 Hz")

    def test_strong_drive_rejected_before_any_trace(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("synthesized a trace")

        monkeypatch.setattr(perception, "synthesize_trace", no_trace)
        with pytest.raises(ValueError,
                           match="^phase_gain_rad_per_v: 6100.0 gives a "
                                 "6100.0 rad drive, whose sweep needs more "
                                 "than 32768 Fourier orders$"):
            frequency_sweep(pzt_event(5000.0, 500.0, 6100.0), channel(),
                            ACCEPTANCE_GRID, seed=1)

    @pytest.mark.parametrize("grid, message", [
        ([3000.0, 2500.0, 4000.0], "strictly ascending"),
        ([2000.0, 2500.0, 2500.0, 3000.0], "strictly ascending"),
        ([2000.0, 2500.0], ">= 3 points"),
        ([[2000.0, 2500.0, 3000.0]], ">= 3 points"),
    ])
    def test_grid_checked_before_any_series(self, monkeypatch, grid,
                                            message):
        def no_series(*args, **kwargs):
            raise AssertionError("took a drive series")

        monkeypatch.setattr(perception, "_drive_series", no_series)
        with pytest.raises(ValueError, match=message):
            frequency_sweep(pzt_event(5000.0), channel(), grid, seed=1)

    @pytest.mark.parametrize("grid, message", [
        # Grids that pass the order test written as "any diff <= 0".
        ([-3000.0, -2000.0, -1000.0], "positive"),
        ([0.0, 1000.0, 2000.0], "positive"),
        ([1000.0, math.nan, 3000.0], "strictly ascending"),
        ([math.nan, 2000.0, 3000.0], "positive"),
    ])
    def test_non_positive_or_nan_grid_rejected_before_any_trace(
            self, monkeypatch, grid, message):
        def no_trace(*args, **kwargs):
            raise AssertionError("synthesized a trace")

        monkeypatch.setattr(perception, "synthesize_trace", no_trace)
        with pytest.raises(ValueError, match=message):
            frequency_sweep(pzt_event(5000.0), channel(), grid, seed=1)

    @pytest.mark.parametrize("duration_s, samples", [
        (1e308, "inf"), (math.inf, "inf"), (1e290, "2e+295"),
        ((2**22 + 1) / 200e3, str(2**22 + 1))])
    def test_sample_count_bounded_where_it_enters(self, duration_s, samples):
        # A count past the float range or past MAX_TRACE_SAMPLES is refused
        # before any arithmetic on it, so it raises no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                frequency_sweep(pzt_event(5000.0), channel(),
                                ACCEPTANCE_GRID, seed=1,
                                duration_s=duration_s)
        assert str(err.value) == (
            f"duration_s: {duration_s} s holds {samples} samples at "
            f"sample_rate_hz 200000.0, more than {2**22}")

    def test_most_samples_sweep_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = frequency_sweep(pzt_event(5000.0), channel(),
                                    ACCEPTANCE_GRID, seed=1,
                                    duration_s=2**22 / 200e3)
        assert np.all(np.isfinite(sweep.amplitudes))
        assert 0.0 < sweep.noise_floor_amplitude


class TestSweepResponse:
    """The sweep's Fourier series against the settled drive's response
    from Bessel values (:func:`steady_state_response`): every projection
    within 1e-13 of ``I0 sum(w)`` and every second moment of ``c u``
    within 1e-13 of ``I0**2 sum(w**2)``.  Bound: the cosines' arguments,
    up to ``4 peak`` = 240 rad for the 60 rad drive, round by about 240
    eps = 5e-14, and the FFT adds about eps log2(nodes); the worst seen is
    1.6e-14."""

    def response(self, event, n=2000, grid=ACCEPTANCE_GRID,
                 bias=0.5 * math.pi):
        # Computed afresh each call: the process cache is keyed on the
        # inputs alone, so a patched helper would read a stale entry.
        return perception._sweep_response.__wrapped__(
            event, channel(bias), np.asarray(grid, dtype=float).tobytes(), n,
            DEFAULT_INPUT_POWER_W)

    def assert_matches_bessel(self, event, bias=0.5 * math.pi, n=2000):
        got = self.response(event, n, bias=bias)
        projections, moments = steady_state_response(
            event, channel(bias), ACCEPTANCE_GRID, n)
        w = np.hanning(n)
        i0 = DEFAULT_INPUT_POWER_W
        assert np.all(np.abs(got.projections - projections)
                      <= 1e-13 * i0 * w.sum())
        assert np.all(np.abs(got.moments - moments)
                      <= 1e-13 * i0 * i0 * np.sum(w * w))
        return got

    @pytest.mark.parametrize("peak", [README_PEAK_RAD, 60.0],
                             ids=["readme", "60-rad"])
    @pytest.mark.parametrize("x", [1000.0, 1500.0, 5000.0, 9000.0,
                                   13000.0, 13500.0, 14500.0, 14999.0,
                                   15000.0, 22000.0, 28500.0])
    def test_matches_bessel_values(self, x, peak):
        # Beyond the midpoint the lag is negative; at it the drive cancels.
        self.assert_matches_bessel(pzt_event(x, 3000.0, peak))

    @pytest.mark.parametrize("n", [16, 3],
                             ids=["sixteen-samples", "three-samples"])
    def test_short_sweeps(self, n):
        # A 3-sample Hann window is [0, 1, 0]: one sample weighs the tone.
        self.assert_matches_bessel(pzt_event(5000.0, 3000.0, 0.6), n=n)

    @pytest.mark.parametrize("bias", [1.0, math.pi])
    def test_matches_bessel_values_off_quadrature(self, bias):
        # Off quadrature the even orders of c enter c**2.
        self.assert_matches_bessel(pzt_event(5000.0, 3000.0, 0.6), bias)

    @pytest.mark.parametrize("rows", [1, 3, 17, 40])
    def test_points_do_not_depend_on_their_block(self, monkeypatch, rows):
        # The 293 points are not a multiple of 3, 17 or 40 a block.
        event = pzt_event(1500.0, 3000.0, 60.0)
        blocked = self.response(event)
        orders = max(2, (perception._sweep_orders(60.0) + 2) // 2)
        monkeypatch.setattr(perception, "_BLOCK_ELEMENTS",
                            rows * (2 * orders + 1))
        sizes, drive_series = [], perception._drive_series

        def sizing(f, amplitudes, *args):
            sizes.append(amplitudes.size)
            return drive_series(f, amplitudes, *args)

        monkeypatch.setattr(perception, "_drive_series", sizing)
        alone = self.response(event)
        whole, left = divmod(ACCEPTANCE_GRID.size, rows)
        assert sizes == [rows] * whole + [left] * (left > 0)
        assert np.array_equal(alone.projections, blocked.projections)
        assert np.array_equal(alone.moments, blocked.moments)

    def test_response_arrays_are_read_only(self):
        response = self.response(pzt_event(5000.0, 3000.0, 0.6))
        for array in (response.projections, response.moments):
            with pytest.raises(ValueError):
                array.flat[0] = 1.0

    @pytest.mark.parametrize("n", [3, 4, 5, 2000, 2001, 10**6])
    def test_window_sums_are_the_hanning_sums(self, n):
        # Bound: np.hanning rounds each term and numpy sums pairwise, so
        # its sums are good to about eps log2(n); the worst seen is
        # 1.6e-16, at 10**6.
        w = np.hanning(n)
        weight, power = perception._hann_sums(n)
        assert weight == pytest.approx(w.sum(), rel=1e-12, abs=0.0)
        assert power == pytest.approx(np.sum(w * w), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("duration_s", [1e-9, 5e-6, 1e-5],
                             ids=["no-sample", "one-sample", "two-samples"])
    def test_sweep_of_fewer_than_three_samples_has_no_weight(self,
                                                            duration_s):
        with pytest.raises(InsufficientDataError):
            frequency_sweep(pzt_event(5000.0, 3000.0, 0.6), channel(),
                            ACCEPTANCE_GRID, duration_s=duration_s, seed=1)

    def test_dark_bias_gives_exact_zeros(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.response(pzt_event(L / 2, 500.0, 0.6),
                                grid=ACCEPTANCE_GRID[:20], bias=math.pi)
        assert np.all(got.projections == 0.0)
        assert np.all(got.moments == 0.0)

    @pytest.mark.parametrize("z", [0.0, 1e-3, 2.4, 120.0])
    def test_dropped_orders_are_negligible(self, z):
        m = perception._bessel_orders(z, 10**6)
        assert m >= z / 2
        assert np.all(np.abs(jv(np.arange(m + 1, m + 60), z)) < 2.0**-60)
        if z > 0:  # a search capped below m stops one past the cap
            assert perception._bessel_orders(z, m - 2) == m - 1

    @pytest.mark.parametrize("bias", [0.5 * math.pi, math.pi])
    def test_port_intensity_series_are_bessel_values(self, bias):
        # With Y = b + A cos(s + phi), the order m coefficient of c =
        # I0 (1 + cos Y) is I0 (d_m0 + J_m(A) cos(b + m pi / 2)) and that
        # of c**2 = I0**2 (1.5 + 2 cos Y + 0.5 cos 2Y) is I0**2 (1.5 d_m0
        # + 2 J_m(A) cos(b + m pi / 2) + 0.5 J_m(2 A) cos(2 b + m pi / 2)),
        # each times exp(i m phi).  Bound, fixed before the first run:
        # 1e-12 I0**p, with p = 1 for c and 2 for c**2.  The cosines'
        # arguments, up to 2 A = 60 rad, round by about 60 eps, and the
        # FFT adds about eps log2(nodes) max|f|.
        i0 = DEFAULT_INPUT_POWER_W
        amplitudes = np.array([0.0, 0.6, 2.4, 30.0])
        phases = np.array([-0.5 * math.pi, 0.3, -1.1, 2.0])
        orders = perception._bessel_orders(2.0 * amplitudes.max(), 10**6)

        def powers(x):
            c = i0 * (1.0 + np.cos(bias + x))
            return c, c * c

        c, cc = perception._drive_series(powers, amplitudes, orders, phases)
        m = np.arange(-orders, orders + 1)
        a, turn = amplitudes[:, None], np.exp(1j * m * phases[:, None])
        quarter = m * (0.5 * math.pi)
        j1, j2 = jv(m, a), jv(m, 2.0 * a)
        want_c = i0 * ((m == 0) + j1 * np.cos(bias + quarter)) * turn
        want_cc = i0**2 * (1.5 * (m == 0) + 2.0 * j1 * np.cos(bias + quarter)
                           + 0.5 * j2 * np.cos(2.0 * bias + quarter)) * turn
        assert np.max(np.abs(c - want_c)) <= 1e-12 * i0
        assert np.max(np.abs(cc - want_cc)) <= 1e-12 * i0**2

    def test_order_cap(self):
        # The series of c**2 reaches 4 peak: the cap of 2**15 orders falls
        # at about 6020.8 rad, and past it the orders read one more.
        cap = perception._PHASE_SAMPLES // 2
        assert perception._sweep_orders(6020.0) <= cap
        assert perception._sweep_orders(6021.0) == cap + 1

    @pytest.mark.parametrize("peak", [1e-9, 0.6, 60.0])
    def test_read_orders_take_no_fold(self, monkeypatch, peak):
        # Orders 0, -1 and -2 from (M + 2) // 2 orders equal those from
        # all M orders to rounding: nothing folds onto them.
        event = pzt_event(5000.0, 3000.0, peak)
        half = self.response(event)
        m = perception._sweep_orders(peak)
        monkeypatch.setattr(perception, "_sweep_orders",
                            lambda peak: 2 * m + 2)
        full = self.response(event)
        i0, w = DEFAULT_INPUT_POWER_W, np.hanning(2000)
        assert np.all(np.abs(half.projections - full.projections)
                      <= 1e-14 * i0 * w.sum())
        assert np.all(np.abs(half.moments - full.moments)
                      <= 1e-14 * i0 * i0 * np.sum(w * w))


class TestCorrelatedNormals:
    # Unit draws g = (1, 0) and (0, 1) read off the columns of L.
    UNIT = np.array([[1.0, 0.0], [0.0, 1.0]])

    def factor(self, a, h, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = perception._correlated_normals(
                np.full(2, a), np.full(2, h), np.full(2, b), self.UNIT)
        return np.array([[cols[0].real, cols[1].real],
                         [cols[0].imag, cols[1].imag]])

    @pytest.mark.parametrize("a, h, b", [(4.0, 1.0, 3.0), (2.0, -1.5, 5.0),
                                         (1e-30, 3e-31, 2e-30)])
    def test_reproduces_the_covariance(self, a, h, b):
        chol = self.factor(a, h, b)
        assert chol[0, 1] == 0.0
        np.testing.assert_allclose(chol @ chol.T, [[a, h], [h, b]],
                                   rtol=1e-14)

    def test_dark_point_draws_zero(self):
        assert np.all(self.factor(0.0, 0.0, 0.0) == 0.0)

    def test_no_real_part_leaves_the_imaginary_draw(self):
        assert self.factor(0.0, 0.0, 9.0).tolist() == [[0.0, 0.0],
                                                       [0.0, 3.0]]

    def test_rounding_negative_remainder_clamped(self):
        # Fully correlated parts: b - (h / sqrt(a))**2 rounds below 0.
        a, h = 3.0, 0.1
        b = np.nextafter((h / math.sqrt(a)) ** 2, 0.0)
        assert b - (h / math.sqrt(a)) ** 2 < 0.0
        chol = self.factor(a, h, b)
        assert chol[1, 1] == 0.0
        assert np.all(np.isfinite(chol))


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
        pressed = synthesize_trace((prs,), channel(), 0.05, 200e3, 0.0019,
                                   seed=9)
        quiet = synthesize_trace((), channel(), 0.05, 200e3, 0.0019,
                                 seed=9)
        f = 500.0
        assert ac_power_at(pressed, f) == pytest.approx(
            ac_power_at(quiet, f), rel=1e-9)
        _, ratio = significance(pressed)
        assert ratio < 10.0

    def test_midpoint_ac_power_suppressed(self):
        f_drive = C_VACUUM / (N_FIBER * L)  # peak response for x = L/4
        mid = synthesize_trace((pzt_event(L / 2, f_hz=f_drive, delta_d=0.1),),
                               channel(), 0.08, 200e3, 0.0019, seed=13)
        quarter = synthesize_trace(
            (pzt_event(L / 4, f_hz=f_drive, delta_d=0.1),),
            channel(), 0.08, 200e3, 0.0019, seed=13)
        suppression_db = 10 * math.log10(
            ac_power_at(quarter, f_drive) / ac_power_at(mid, f_drive))
        assert suppression_db >= 40.0

    def test_significance_flags_strong_tone(self):
        trace = synthesize_trace(
            (pzt_event(5000.0, f_hz=3000.0, delta_d=0.2),),
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

    def expected(self, events, start_s, seed):
        s = self.SETTINGS
        trace = synthesize_trace(events, s.sense_channel(channel(0.0)),
                                 s.sense_duration_s, s.sample_rate_hz,
                                 s.noise_sigma, seed=seed,
                                 input_power_w=s.input_power_w,
                                 start_s=start_s)
        candidate, ratio = significance(trace)
        return trace, {"candidate_frequency_hz": candidate,
                       "peak_to_floor": ratio}

    @pytest.mark.parametrize("events, at_s", [
        ((), 2.5), ((pzt_event(5000.0, 3000.0),), 2.5),
        ((impact_event(),), 4.0)], ids=["quiet", "drive", "impact"])
    def test_window_starts_at_the_given_time(self, events, at_s):
        trace, graded = sense(events, channel(0.0), self.SETTINGS, 9, at_s)
        want, want_graded = self.expected(events, at_s, 9)
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
        quiet = synthesize_trace((), channel(), 0.05, 200e3, 0.0019, seed=2)
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
        assert problem == ("scan_step_hz: 0.1 asks for 730001 scan points, "
                           "more than 32768")
        # Fifty times the default grid still sweeps.
        assert PerceptionSettings(scan_step_hz=5.0).scan_grid().size == 14601

    def test_sweep_samples_bounded_as_a_trace(self):
        # A sweep reads no samples, so its length is bounded only as a
        # trace is: MAX_TRACE_SAMPLES sweeps without a warning over the
        # default grid, and one sample more names sweep_duration_s.
        most = perception.MAX_TRACE_SAMPLES
        settings = PerceptionSettings(sweep_duration_s=most / 200e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = acquire(pzt_event(5000.0, 3000.0, 0.6), channel(),
                            settings, seed=1)
        assert sweep.amplitudes.size == 293
        assert np.all(np.isfinite(sweep.amplitudes))
        assert 0.0 < sweep.noise_floor_amplitude < np.median(sweep.amplitudes)
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(sweep_duration_s=(most + 1) / 200e3)
        assert err.value.problems == [
            f"sweep_duration_s: holds {most + 1} samples at sample_rate_hz "
            f"200000.0, more than {most}"]

    def test_huge_sample_counts_print_in_12_digits(self):
        # Counts past the float's integers print as it does, not as a
        # 300-digit int.
        with pytest.raises(ConfigError) as err:
            PerceptionSettings(sense_duration_s=1e290)
        assert err.value.problems == [
            "sense_duration_s: holds 2e+295 samples at sample_rate_hz "
            f"200000.0, more than {perception.MAX_TRACE_SAMPLES}"]
        impact = DisturbanceEvent(
            ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=1e290),
            position_m=5000.0)
        assert PerceptionSettings().event_problems(impact) == [
            "width_s: 1e+290 asks for a trace of 6.4e+296 samples at the "
            "perception sample_rate_hz 200000.0, more than "
            f"{perception.MAX_TRACE_SAMPLES}"]

    def test_drive_series_work_bounded(self, monkeypatch):
        # The README drive keeps M = 22 orders, 25 a point: with the bound
        # at 293 x 25 the default grid sweeps and one point more does not.
        # The problem names the drive's gain, in settings and sweeps alike.
        event = pzt_event(5000.0, 3000.0, 0.6)
        assert perception._sweep_orders(0.6) == 22
        monkeypatch.setattr(perception, "_MAX_SWEEP_WORK", 293 * 25)
        short = 1.5e-5
        assert PerceptionSettings(
            sweep_duration_s=short).event_problems(event) == []
        frequency_sweep(event, channel(), ACCEPTANCE_GRID, seed=1,
                        duration_s=short)
        wider = PerceptionSettings(sweep_duration_s=short,
                                   scan_max_hz=75250.0)
        want = ("phase_gain_rad_per_v: 0.6 gives a 0.6 rad drive, whose "
                "sweep needs 25 Fourier orders at each of 294 scan points, "
                "more than 7325 in all")
        assert wider.event_problems(event) == [want]
        with pytest.raises(ValueError, match=f"^{want}$"):
            frequency_sweep(event, channel(), wider.scan_grid(), seed=1,
                            duration_s=short)

    def test_fine_grid_of_short_sweeps_bounds_a_strong_drive(self):
        # 32 446 points, within the scan-point bound, take a weak drive's
        # 9 orders a point; a 200 rad drive's 1127 would not.
        settings = PerceptionSettings(sweep_duration_s=1.5e-5,
                                      scan_step_hz=2.25)
        assert settings.event_problems(pzt_event(5000.0, 3000.0, 1e-3)) == []
        [problem] = settings.event_problems(pzt_event(5000.0, 3000.0, 200.0))
        assert problem.startswith("phase_gain_rad_per_v: 200.0 gives a "
                                  "200.0 rad drive, whose sweep needs 1127 "
                                  "Fourier orders at each of 32446 scan "
                                  "points")

    def test_scan_points_bounded_on_short_sweeps(self):
        # 2**15 points from 2000 Hz sweep and one more does not.
        def settings_at(points):
            return PerceptionSettings(sweep_duration_s=1.5e-5,
                                      scan_max_hz=2000.0 + points - 1,
                                      scan_step_hz=1.0)

        assert settings_at(2**15).scan_grid().size == 2**15
        with pytest.raises(ConfigError) as err:
            settings_at(2**15 + 1)
        [problem] = err.value.problems
        assert problem == ("scan_step_hz: 1.0 asks for 32769 scan points, "
                           "more than 32768")

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


def _value_or_error(function, trace):
    try:
        return function(trace)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return f"{type(exc).__name__}: {exc}"


class TestWelchPlan:
    """The cached Welch plan and the sliced significance band against the
    fresh window and boolean masks of tests/oracles.py."""

    # 47 and 63 samples make one segment each, whose significance bands
    # hold an odd 23 and 31 bins.
    @pytest.mark.parametrize("n", [1, 2, 3, 47, 63, 64, 65, 777, 5120,
                                   10000, 12345])
    @pytest.mark.parametrize("rate", [200e3, 44100.0])
    def test_identical_values(self, n, rate):
        rng = np.random.default_rng(n)
        trace = InterferenceTrace(
            sample_rate_hz=rate, input_power_w=1e-3,
            samples=1e-3 * (1.0 + 0.01 * rng.standard_normal(n)))
        for _ in range(2):  # the second call reads the cached plan
            freqs, psd = perception._welch_psd(trace)
            want_freqs, want_psd = fresh_welch_psd(trace)
            assert np.array_equal(freqs, want_freqs)
            assert np.array_equal(psd, want_psd)
            assert _value_or_error(significance, trace) == \
                _value_or_error(masked_significance, trace)

    @pytest.mark.parametrize("n", [64, 777, 10000])
    def test_strided_samples_read_as_contiguous_ones(self, n):
        # The segments are a view of the trace's samples, which the trace
        # holds contiguous whatever it was given.
        every_third = np.random.default_rng(n).standard_normal(3 * n)[::3]
        trace = InterferenceTrace(sample_rate_hz=200e3, input_power_w=1.0,
                                  samples=every_third)
        assert trace.samples.flags.c_contiguous
        for got, want in zip(perception._welch_psd(trace),
                             fresh_welch_psd(trace)):
            assert np.array_equal(got, want)

    def test_cached_arrays_are_read_only(self):
        trace = InterferenceTrace(sample_rate_hz=200e3, samples=np.ones(777),
                                  input_power_w=1.0)
        freqs, _ = perception._welch_psd(trace)
        window, _, plan_freqs = perception._welch_plan(128, 200e3)
        assert plan_freqs is freqs
        for array in (window, freqs):
            with pytest.raises(ValueError):
                array[0] = 1.0


def _nulls_or_error(find, *args):
    """The repr of the nulls ``find(*args)`` finds, which pins every float
    bit, or the type and message of the error raised."""
    try:
        return repr(find(*args))
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
        trace = synthesize_trace((ev,), channel(), 0.0256, 200e3,
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


# Spectra with ties, zeros, infinities and NaNs, as a PSD's bins are never
# negative.
_SPECTRA = st.lists(st.sampled_from([0.0, 1.0, 2.0, 30.0, math.inf,
                                     math.nan]) | st.floats(0.0, 1e3),
                    min_size=1, max_size=60)


@st.composite
def _median_windows(draw):
    """``_local_medians`` arguments: a spectrum, centres from ``lo`` on,
    ``lo`` and a half window."""
    psd = np.array(draw(_SPECTRA))
    lo = draw(st.integers(0, 6))
    assume(lo < psd.size)
    centres = np.array(draw(st.lists(st.integers(lo, psd.size - 1),
                                     max_size=20)), dtype=np.intp)
    return psd, centres, lo, draw(st.integers(1, 12))


class TestPartitionMedian:
    """``_median``, which grades significance and sweeps, against
    ``np.median``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, math.inf,
                                            math.nan])
                           | st.floats(-1e3, 1e3), min_size=1, max_size=60))
    def test_same_bits_as_np_median(self, values):
        values = np.array(values)
        kept = values.copy()
        got, want = perception._median(values), np.median(values)
        assert type(got) is float
        assert (math.isnan(got) and math.isnan(want)) or \
            np.float64(got).tobytes() == want.tobytes()
        assert values.tobytes() == kept.tobytes()


class TestOneSortLocalMedians:
    """``_local_medians`` against one ``np.median`` per window."""

    @staticmethod
    def per_window(psd, centres, lo, half_window):
        return np.array([np.median(psd[max(lo, i - half_window):
                                       i + half_window + 1])
                         for i in centres.tolist()])

    @settings(max_examples=300, deadline=None)
    @given(args=_median_windows())
    def test_equals_per_window_median(self, args):
        got = perception._local_medians(*args)
        assert got.tobytes() == self.per_window(*args).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(args=_median_windows(), elements=st.integers(1, 60))
    def test_blocks_of_rows_equal_one_block(self, args, elements):
        # At most 60 values a block holds one or a few windows of up to 25.
        one = perception._local_medians(*args)
        with mock.patch.object(perception, "_MEDIAN_ELEMENTS", elements):
            got = perception._local_medians(*args)
        assert got.tobytes() == one.tobytes()

    def test_working_set_bounded_on_a_long_trace(self):
        # 17 495 minima with windows of 2049 bins: one block of all their
        # rows held 287 MB, and the null search peaked at 575 MB.
        rng = np.random.default_rng(1)
        trace = InterferenceTrace(
            sample_rate_hz=200e3, input_power_w=1e-3,
            samples=1e-3 * (1.0 + 0.0019 * rng.standard_normal(2**20)))
        tracemalloc.start()
        try:
            find_null_frequencies(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**27

    def test_cut_windows_of_both_parities(self):
        rng = np.random.default_rng(4)
        psd = rng.exponential(size=40)
        psd[[6, 37]] = np.nan
        lo, half_window = 3, 5
        centres = np.arange(lo, psd.size)
        counts = (np.minimum(centres + half_window + 1, psd.size)
                  - np.maximum(centres - half_window, lo))
        # Windows cut by lo and by the end, of odd and of even length.
        cut = counts < 2 * half_window + 1
        assert {c % 2 for c in counts[cut & (centres < 20)]} == {0, 1}
        assert {c % 2 for c in counts[cut & (centres > 20)]} == {0, 1}
        got = perception._local_medians(psd, centres, lo, half_window)
        assert got.tobytes() == self.per_window(psd, centres, lo,
                                                half_window).tobytes()
        assert np.isnan(got).any() and not np.isnan(got).all()


class TestRatioTestedNotches:
    """``_notches`` against the per-minimum ``math.log10`` loop of
    tests/oracles.py, with bit-equal depths."""

    @staticmethod
    def both(spectrum, references, threshold_db, max_k=3):
        freqs = np.arange(spectrum.size) * 500.0
        minima = perception._local_minima(spectrum, 1, spectrum.size - 1)
        references = (references if np.ndim(references) == 0
                      else np.resize(references, minima.size))
        got = _nulls_or_error(
            perception._notches, freqs, spectrum, spectrum, minima,
            references, max_k, threshold_db, lambda: 1000.0, "none %s")
        want = _nulls_or_error(
            per_candidate_notches, freqs, spectrum, spectrum, minima,
            references, max_k, threshold_db, 1000.0)
        return got, want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(spectrum=_SPECTRA.filter(lambda v: len(v) >= 3),
           references=st.floats(0.0, 1e4) | st.lists(
               st.floats(0.0, 1e4) | st.sampled_from([math.inf, math.nan]),
               min_size=1, max_size=8),
           threshold_db=st.sampled_from([0.0, 3.0, 10.0, 3000.0, 4000.0])
           | st.floats(-20.0, 40.0))
    def test_same_nulls_and_depths(self, spectrum, references,
                                   threshold_db):
        got, want = self.both(np.array(spectrum), references, threshold_db)
        assert got == want

    @pytest.mark.parametrize("spectrum, reference", [
        ([1.0, 1.0, 2.0], 0.0), ([2.0, 2.0, 3.0], 5e-324)])
    def test_zero_ratio_is_no_notch(self, spectrum, reference):
        # 0 / 1 and the underflowing 5e-324 / 2 are -inf dB.
        got, want = self.both(np.array(spectrum), reference, 10.0)
        assert got == want == repr([])

    @pytest.mark.parametrize("threshold_db", [10.0, 20.0, 6.0, 13.7])
    def test_minima_at_and_next_to_the_threshold(self, threshold_db):
        # Ratios whose depth is exactly the threshold and one float either
        # side of it: math.log10 decides each as the loop does.
        ratio = 10.0 ** (threshold_db / 10.0)
        spectrum = np.array([9.0, 1.0, 9.0])
        for r in (np.nextafter(ratio, 0.0), ratio,
                  np.nextafter(ratio, 2.0 * ratio)):
            got, want = self.both(spectrum, r, threshold_db)
            assert got == want
            depth_db = 10.0 * math.log10(r)
            assert got == repr([NullFrequency(
                frequency_hz=500.0, harmonic=1, depth_db=depth_db)]
                if depth_db >= threshold_db else [])
        assert 10.0 * math.log10(10.0) == 10.0
