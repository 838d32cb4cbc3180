import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sagnacsim.config import parse_config_dict
from sagnacsim.disturbance import PressureParams, pressure_delay
from sagnacsim.errors import (ConfigError, NoSignalError, OutOfBranchError,
                              ZeroWorkingPointError)
from sagnacsim.optics import (LoopChannel, SpectralPacket,
                              omega_from_wavelength, port_powers)
from sagnacsim.wm import (WmSettings, branch_top_problem, calibrate,
                          contrast_ratio, disturbed_intensity, infer_delay,
                          mass_from_delay, pressure_staircase, read)

from oracles import (approx_contrast_ratio, exact_contrast_ratio,
                     root_found_null_angle, root_found_shift)

OMEGA = omega_from_wavelength(1550e-9)
DEG30 = math.pi / 6.0
SETTINGS = WmSettings(delta_bias_rad=0.0, input_power_w=1.0)


def make_channel(tau0=3e-13):
    return LoopChannel(length_m=30000.0, intrinsic_delay_s=tau0)


class TestCalibrate:
    def test_monochromatic_null_is_dark(self):
        cal = calibrate(make_channel(), SpectralPacket(OMEGA, 0.0), SETTINGS)
        assert cal.min_intensity_w == pytest.approx(0.0, abs=1e-12)

    def test_decohered_minimum_value(self):
        tau0 = 2e-13
        packet = SpectralPacket(OMEGA, 0.1 / tau0)  # sigma * tau0 = 0.1
        cal = calibrate(make_channel(tau0), packet, SETTINGS)
        expected = 0.5 * (1.0 - math.exp(-0.01))
        assert cal.min_intensity_w == pytest.approx(4.975083125415945e-3,
                                                    rel=1e-9)
        assert cal.min_intensity_w == pytest.approx(expected, rel=1e-9)

    @given(tau0=st.floats(min_value=1e-14, max_value=9e-13))
    @settings(max_examples=60, deadline=None)
    def test_recovers_birefringence_phase(self, tau0):
        packet = SpectralPacket(OMEGA, 5e11)
        cal = calibrate(make_channel(tau0), packet, SETTINGS)
        target = (OMEGA * tau0) % math.pi
        # angle may land on the equivalent branch target +- pi
        delta = min(abs(cal.base_angle_rad - target),
                    abs(abs(cal.base_angle_rad - target) - math.pi))
        assert delta < 1e-9

    def test_converged_gradient(self):
        tau0 = 4e-13
        packet = SpectralPacket(OMEGA, 2e11)
        channel = make_channel(tau0)
        cal = calibrate(channel, packet, SETTINGS)
        h = 1e-7
        grad = (disturbed_intensity(cal, h, 0.0, packet, channel)
                - disturbed_intensity(cal, -h, 0.0, packet, channel)) / (2 * h)
        assert abs(grad) < 1e-12 * cal.input_power_w

    def test_dark_bias_rejected(self):
        with pytest.raises(NoSignalError):
            calibrate(make_channel(), SpectralPacket(OMEGA, 0.0),
                      WmSettings(delta_bias_rad=math.pi, input_power_w=1.0))

    # WM calibrates on the undisturbed loop: a static shift is no channel
    # field and no config key, only a standing weight's pressure event.
    def test_disturbed_channel_rejected(self):
        with pytest.raises(TypeError):
            LoopChannel(length_m=30000.0, intrinsic_delay_s=3e-13,
                        delay_shift_s=1e-17)
        with pytest.raises(ConfigError) as info:
            parse_config_dict({"channel": {"delay_shift_s": 1e-17}})
        assert info.value.problems == ["channel.delay_shift_s: unknown key"]

    @given(tau0=st.one_of(st.just(0.0),
                          st.floats(min_value=1e-16, max_value=1e-10)),
           sigma=st.one_of(st.just(0.0),
                           st.floats(min_value=1e9, max_value=1e16)),
           wavelength=st.floats(min_value=4e-7, max_value=2e-6),
           bias=st.floats(min_value=-3.1, max_value=3.1))
    @settings(max_examples=300, deadline=None)
    def test_bracket_changes_sign_or_hits_zero(self, tau0, sigma, wavelength,
                                               bias):
        # The calibrated angle is a minimum of the reflected intensity over
        # the whole envelope range, from fully coherent to fully decohered
        # (exactly flat intensity), and at any bias that lights the port.
        packet = SpectralPacket.from_wavelength(wavelength, sigma)
        channel = make_channel(tau0)
        cal = calibrate(channel, packet,
                        WmSettings(delta_bias_rad=bias, input_power_w=1.0))
        assert cal.bias_phase_rad == bias
        for step in (1e-3, -1e-3):
            assert cal.min_intensity_w <= disturbed_intensity(
                cal, step, 0.0, packet, channel)

    @given(tau0=st.one_of(st.just(0.0),
                          st.floats(min_value=1e-16, max_value=1e-10)),
           sigma=st.one_of(st.just(0.0),
                           st.floats(min_value=1e9, max_value=1e16)),
           wavelength=st.floats(min_value=4e-7, max_value=2e-6),
           bias=st.floats(min_value=-3.1, max_value=3.1))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_root_finding(self, tau0, sigma, wavelength,
                                              bias):
        packet = SpectralPacket.from_wavelength(wavelength, sigma)
        channel = make_channel(tau0)
        at = WmSettings(delta_bias_rad=bias, input_power_w=1.0)
        cal = calibrate(channel, packet, at)
        angle = root_found_null_angle(channel, packet, at)
        assert cal.min_intensity_w <= port_powers(
            channel.intrinsic_delay_s, packet, angle, bias, 1.0)[0] + 1e-15
        # Where the envelope leaves a dip, the root finder lands on it.
        if math.exp(-(sigma * tau0) ** 2) > 1e-3:
            assert abs(cal.base_angle_rad - angle) < 1e-9


class TestIntensities:
    def setup_method(self):
        self.packet = SpectralPacket(OMEGA, 0.0)
        self.channel = make_channel()
        self.cal = calibrate(self.channel, self.packet, SETTINGS)

    def test_zero_offset_returns_minimum(self):
        i1 = disturbed_intensity(self.cal, 0.0, 0.0, self.packet,
                                 self.channel)
        assert i1 == pytest.approx(self.cal.min_intensity_w, abs=1e-12)

    def test_quarter_turn_offset_is_bright(self):
        i1 = disturbed_intensity(self.cal, 0.5 * math.pi, 0.0, self.packet,
                                 self.channel)
        assert i1 == pytest.approx(1.0, rel=1e-9)

    def test_thirty_degree_offset(self):
        i1 = disturbed_intensity(self.cal, DEG30, 0.0, self.packet,
                                 self.channel)
        assert i1 == pytest.approx(0.25, rel=1e-9)

    def test_undisturbed_equals_offset(self):
        i1 = disturbed_intensity(self.cal, DEG30, 0.0, self.packet,
                                 self.channel)
        i_d = disturbed_intensity(self.cal, DEG30, 0.0, self.packet,
                                  self.channel)
        assert i_d == pytest.approx(i1, rel=1e-12)

    def test_delay_cancelling_offset_returns_minimum(self):
        delta_tau = DEG30 / OMEGA
        i_d = disturbed_intensity(self.cal, DEG30, delta_tau, self.packet,
                                  self.channel)
        assert i_d == pytest.approx(self.cal.min_intensity_w, abs=1e-9)

    def test_reference_disturbed_value(self):
        # 30 degrees offset, 9.81 as delay at 1.2153e15 rad/s: the frozen
        # value comes from direct evaluation of the cosine expression.
        packet = SpectralPacket(1.2153e15, 0.0)
        channel = make_channel()
        cal = calibrate(channel, packet, SETTINGS)
        i_d = disturbed_intensity(cal, DEG30, 9.81e-18, packet, channel)
        direct = 0.5 * (1.0 - math.cos(2 * (DEG30 - 1.2153e15 * 9.81e-18)))
        assert i_d == pytest.approx(direct, rel=1e-9)
        assert i_d == pytest.approx(0.23974720770754576, rel=1e-9)


class TestContrastRatio:
    def test_no_disturbance_is_zero(self):
        assert contrast_ratio(0.25, 0.25, 0.0) == 0.0

    def test_full_swing_is_one(self):
        assert contrast_ratio(0.25, 0.0, 0.0) == 1.0

    def test_reference_values(self):
        # Exact ratio vs its small-angle form for the 100 g anchor case.
        omega0 = 1.2153e15
        dtau = 9.81e-18
        exact = exact_contrast_ratio(dtau, DEG30, omega0)
        assert exact == pytest.approx(0.04101116916981674, rel=1e-9)
        small = approx_contrast_ratio(dtau, DEG30, omega0)
        assert small == pytest.approx(0.04553904079083081, rel=1e-9)
        # the documented approximation gap
        assert abs(small - exact) / exact > 0.05

    def test_zero_working_point(self):
        with pytest.raises(ZeroWorkingPointError):
            contrast_ratio(0.1, 0.05, 0.1)


class TestInferDelay:
    def test_zero_ratio_is_zero_delay(self):
        assert infer_delay(0.0, DEG30, OMEGA) == pytest.approx(0.0, abs=1e-22)

    def test_reference_inversion(self):
        icr = exact_contrast_ratio(9.81e-18, DEG30, OMEGA)
        assert abs(infer_delay(icr, DEG30, OMEGA) - 9.81e-18) < 1e-20

    def test_branch_top_problem(self):
        packet = SpectralPacket(OMEGA, 0.0)
        top = SETTINGS.delta_epsilon_rad / OMEGA
        assert branch_top_problem(top, SETTINGS, packet) is None
        assert branch_top_problem(0.5 * top, SETTINGS, packet) is None
        past = math.nextafter(top, math.inf)
        assert branch_top_problem(past, SETTINGS, packet) == \
            f"{past} s, past the WM branch top {top} s"

    @given(dtau=st.floats(min_value=1e-18, max_value=1e-16),
           eps_deg=st.floats(min_value=5.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exactness(self, dtau, eps_deg):
        eps = math.radians(eps_deg)
        # invertibility requires the phase shift to stay below the offset;
        # past it, two delays share one contrast value
        assume(OMEGA * dtau < eps)
        icr = exact_contrast_ratio(dtau, eps, OMEGA)
        assert abs(infer_delay(icr, eps, OMEGA) - dtau) < 1e-20

    def test_small_angle_regime_agreement(self):
        # within the documented regime the two forms agree to 5 %
        eps = math.radians(8.0)
        dtau = 0.015 * eps / OMEGA  # omega0 dtau / eps = 0.015
        exact = exact_contrast_ratio(dtau, eps, OMEGA)
        small = approx_contrast_ratio(dtau, eps, OMEGA)
        assert small == pytest.approx(exact, rel=0.05)

    def test_amplification_grows_at_smaller_offsets(self):
        dtau = 5e-18
        ratios = [exact_contrast_ratio(dtau, math.radians(d), OMEGA)
                  for d in (60.0, 40.0, 20.0, 10.0, 5.0)]
        assert ratios == sorted(ratios)

    @given(eps=st.floats(min_value=1e-3, max_value=0.5 * math.pi,
                         exclude_max=True),
           place=st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(min_value=0.0, max_value=1.0),
                           st.floats(min_value=1e-16, max_value=1e-3)),
           upper=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_root_finding(self, eps, place, upper):
        # The contrast ratio at ``place`` of the way along the branch from
        # one end, icr_lo = -cot^2 eps or 1.  Below eps = 1e-3 the oracle's
        # ratio, over 1 - cos 2 eps, keeps fewer than 10 digits.
        cot = math.cos(eps) / math.sin(eps)
        icr = 1.0 - place * (1.0 + cot * cot) if upper \
            else -cot * cot + place * (1.0 + cot * cot)
        try:
            oracle = root_found_shift(icr, eps)
            shift = infer_delay(icr, eps, 1.0)
        except OutOfBranchError:
            # The two forms round the lower end apart.
            assume(False)
        assert eps - 0.5 * math.pi <= shift <= eps
        # The ratio is flat at both branch ends, so a root of its rounded
        # value is good there only to about the square root of the float
        # epsilon, times cot eps at the lower end, where it spans cot^2 eps.
        tolerance = 3.0 * math.sqrt(np.finfo(float).eps) * (1.0 + cot)
        assert abs(shift - oracle) <= tolerance

    def test_full_contrast_is_exactly_the_offset(self):
        for eps in np.linspace(0.01, 1.56, 200):
            assert infer_delay(1.0, eps, 1.0) == eps

    def test_out_of_branch(self):
        with pytest.raises(OutOfBranchError):
            infer_delay(1.5, DEG30, OMEGA)
        with pytest.raises(OutOfBranchError):
            infer_delay(-10.0, DEG30, OMEGA)


class TestMassFromDelay:
    def test_hundred_gram_anchor(self):
        params = PressureParams(mass_kg=0.1)
        delay = pressure_delay(params)
        assert mass_from_delay(delay, params) == pytest.approx(0.1, rel=1e-12)

    def test_zero(self):
        assert mass_from_delay(0.0, PressureParams(mass_kg=0.1)) == 0.0

    def test_linearity(self):
        params = PressureParams(mass_kg=0.1)
        m1 = mass_from_delay(2e-18, params)
        m5 = mass_from_delay(1e-17, params)
        assert m5 == pytest.approx(5 * m1, rel=1e-12)


class TestRead:
    PACKET = SpectralPacket(OMEGA, 2e11)
    DELAY = pressure_delay(PressureParams(mass_kg=0.1))

    def reading(self, samples, seed):
        settings = WmSettings(samples_per_reading=samples)
        cal = calibrate(make_channel(), self.PACKET, settings)
        return read(cal, settings, self.DELAY, self.PACKET, make_channel(),
                    np.random.default_rng(seed))

    def noiseless(self):
        settings = WmSettings(noise_sigma=0.0)
        cal = calibrate(make_channel(), self.PACKET, settings)
        offset = settings.delta_epsilon_rad
        return [disturbed_intensity(cal, offset, d, self.PACKET,
                                    make_channel()) for d in (0.0, self.DELAY)
                ] + [cal.min_intensity_w]

    @pytest.mark.parametrize("samples", [16, 2**20])
    def test_each_average_is_one_draw(self, samples):
        # Offset, disturbed and minimum intensities, in that order, each
        # take one normal scaled by sigma / sqrt(samples).
        sigma = WmSettings().noise_sigma
        g = np.random.default_rng(5).standard_normal(3)
        i1, i_d, imin = [value * (1 + sigma / math.sqrt(samples) * gk)
                         for value, gk in zip(self.noiseless(), g)]
        reading = self.reading(samples, 5)
        assert reading.offset_intensity_w == i1
        assert reading.disturbed_intensity_w == i_d
        assert reading.contrast_ratio == contrast_ratio(i1, i_d, imin)

    @pytest.mark.parametrize("samples", [1, 16, 2**20])
    def test_offset_spread_falls_as_root_samples(self, samples):
        offsets = [self.reading(samples, seed).offset_intensity_w
                   for seed in range(2000)]
        expected = (WmSettings().noise_sigma * self.noiseless()[0]
                    / math.sqrt(samples))
        assert np.std(offsets, ddof=1) == pytest.approx(expected, rel=0.05)


class TestStaircase:
    def test_noiseless_steps(self):
        masses = [0.1, 0.2, 0.3, 0.4, 0.5]
        readings = pressure_staircase(
            masses, WmSettings(delta_epsilon_rad=DEG30, input_power_w=1.0,
                               noise_sigma=0.0,
                               pressure=PressureParams(mass_kg=0.1)),
            make_channel(), SpectralPacket(OMEGA, 0.0))
        delays = [r.inferred_delay_s for r in readings]
        steps = np.diff([0.0] + delays)
        for step in steps:
            assert abs(step - 9.81e-18) < 1e-20
        for m, r in zip(masses, readings):
            assert r.inferred_mass_kg == pytest.approx(m, rel=1e-9)
            assert r.contrast_ratio == pytest.approx(
                exact_contrast_ratio(pressure_delay(
                    PressureParams(mass_kg=m)), DEG30, OMEGA), abs=1e-9)

    def test_noisy_mass_recovery(self):
        masses = [0.1, 0.2, 0.3, 0.4, 0.5]
        readings = pressure_staircase(
            masses, WmSettings(delta_epsilon_rad=DEG30, input_power_w=1.0,
                               noise_sigma=0.0019, samples_per_reading=16,
                               pressure=PressureParams(mass_kg=0.1)),
            make_channel(), SpectralPacket(OMEGA, 0.0), seed=12)
        for m, r in zip(masses, readings):
            assert abs(r.inferred_mass_kg - m) < 0.010

    @pytest.mark.parametrize("mass", [4.5, 6.0, 8.0])
    def test_mass_past_the_branch_top_raises(self, mass):
        # Without this refusal these read, noiseless, as 4.28, 2.78 and
        # 0.78 kg: the contrast ratio folds back onto the branch.
        script = parse_config_dict({"wm": {"noise_sigma": 0.0}}).scenario
        delay = pressure_delay(replace(script.wm.pressure, mass_kg=mass))
        problem = branch_top_problem(delay, script.wm, script.packet)
        assert problem is not None
        with pytest.raises(OutOfBranchError) as err:
            pressure_staircase([0.1, mass], script.wm, script.channel,
                               script.packet, seed=1)
        assert str(err.value) == problem

    def test_calibrates_at_the_wm_bias_not_the_channel_bias(self):
        packet = SpectralPacket(OMEGA, 2e11)
        settings = WmSettings(delta_bias_rad=0.7, noise_sigma=0.0)
        # At a channel bias of pi the reflected port is dark, so a
        # calibration there would raise.
        runs = [pressure_staircase([0.1, 0.3], settings,
                                   replace(make_channel(), bias_phase_rad=b),
                                   packet)
                for b in (0.0, 1.2, math.pi)]
        assert runs[0] == runs[1] == runs[2]

        def offset_at(bias):
            at = replace(settings, delta_bias_rad=bias)
            return disturbed_intensity(calibrate(make_channel(), packet, at),
                                       DEG30, 0.0, packet, make_channel())

        assert [r.offset_intensity_w for r in runs[0]] == [offset_at(0.7)] * 2
        assert offset_at(0.7) != pytest.approx(offset_at(0.0), rel=1e-3)
