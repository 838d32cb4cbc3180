import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import g as g0

from sagnacsim import disturbance, wm
from sagnacsim.errors import ConfigError
from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams,
                                   PressureParams, PztParams, impact_phase,
                                   pressure_delay, pzt_phase,
                                   single_pass_phase)

from oracles import where_impact_phase


class TestPzt:
    def test_zero_at_origin(self):
        p = PztParams(drive_amplitude_v=1.0,
                      frequency_hz=100.0)
        assert pzt_phase(0.0, p) == 0.0

    def test_linearity_in_drive(self):
        base = PztParams(drive_amplitude_v=1.0,
                         frequency_hz=100.0,
                         phase_gain_rad_per_v=0.7)
        double = PztParams(drive_amplitude_v=2.0,
                           frequency_hz=100.0,
                           phase_gain_rad_per_v=0.7)
        t = np.linspace(0, 0.05, 400)
        assert np.allclose(pzt_phase(t, double), 2.0 * pzt_phase(t, base),
                           rtol=1e-14)

    def test_quarter_period_hits_peak(self):
        p = PztParams(drive_amplitude_v=3.0,
                      frequency_hz=100.0,
                      phase_gain_rad_per_v=0.5)
        assert pzt_phase(2.5e-3, p) == pytest.approx(p.peak_phase_rad,
                                                     rel=1e-12)

    @given(f=st.floats(min_value=1.0, max_value=1e4),
           t=st.floats(min_value=0.0, max_value=0.05))
    @settings(max_examples=100, deadline=None)
    def test_periodicity(self, f, t):
        p = PztParams(drive_amplitude_v=1.0,
                      frequency_hz=f)
        period = 2 * math.pi / p.angular_frequency_rad_s
        assert pzt_phase(t + period, p) == pytest.approx(pzt_phase(t, p),
                                                         abs=1e-12)

    def test_pure_function(self):
        p = PztParams(drive_amplitude_v=1.0,
                      frequency_hz=250.0)
        t = np.linspace(0, 1, 1000)
        assert np.array_equal(pzt_phase(t, p), pzt_phase(t, p))


class TestImpact:
    def test_compact_support(self):
        p = ImpactParams(mass_kg=0.2, drop_height_m=0.1, width_s=1e-5)
        assert impact_phase(10 * p.width_s, p) == 0.0
        assert impact_phase(-6.5 * p.width_s, p) == 0.0
        near_edge = impact_phase(5.99 * p.width_s, p)
        assert 0 < near_edge < 1e-7 * p.peak_phase_rad

    def test_reach_bounds_the_support(self):
        p = ImpactParams(mass_kg=0.2, drop_height_m=0.1, width_s=1e-5)
        assert impact_phase(1.0 + p.reach_s, p, center_s=1.0) > 0.0
        beyond = np.nextafter(1.0 + p.reach_s, 2.0)
        assert impact_phase(beyond, p, center_s=1.0) == 0.0

    def test_peak_scales_with_momentum(self):
        one = ImpactParams(mass_kg=0.1, drop_height_m=0.2)
        two = ImpactParams(mass_kg=0.2, drop_height_m=0.2)
        assert two.peak_phase_rad == pytest.approx(2 * one.peak_phase_rad,
                                                   rel=1e-12)

    def test_quadrupled_height_doubles_peak(self):
        lo = ImpactParams(mass_kg=0.1, drop_height_m=0.1, impact_gain=5.0)
        hi = ImpactParams(mass_kg=0.1, drop_height_m=0.4, impact_gain=5.0)
        assert impact_phase(0.0, hi) == pytest.approx(
            2.0 * impact_phase(0.0, lo), rel=1e-12)
        # direct evaluation of the amplitude law
        assert impact_phase(0.0, lo) == pytest.approx(
            5.0 * 0.1 * math.sqrt(2 * g0 * 0.1), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(offsets=st.lists(st.sampled_from([-1.0, 1.0, 0.0, -0.0])
                            | st.floats(-8.0, 8.0), max_size=30),
           center_s=st.sampled_from([0.0, 1.0, -2.5e-3])
           | st.floats(-10.0, 10.0),
           width_s=st.sampled_from([1e-5, 1e-3]) | st.floats(1e-9, 1.0),
           shuffle=st.randoms(use_true_random=False))
    def test_same_bytes_as_the_where_form(self, offsets, center_s, width_s,
                                          shuffle):
        # Offsets in reaches from the centre, unsorted, with points exactly
        # at -reach, 0 and +reach where the centre is 0 and just outside.
        p = ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=width_s)
        reach = p.reach_s
        t = [center_s + x * reach for x in offsets]
        t += [reach, -reach, np.nextafter(reach, 1.0),
              np.nextafter(-reach, -1.0)] if center_s == 0.0 else []
        shuffle.shuffle(t)
        got = impact_phase(np.array(t), p, center_s=center_s)
        want = where_impact_phase(np.array(t), p, center_s=center_s)
        assert got.tobytes() == want.tobytes()
        for one in t[:3]:
            value = impact_phase(one, p, center_s=center_s)
            assert type(value) is float
            assert value.hex() == where_impact_phase(
                one, p, center_s=center_s).hex()

    def test_impact_outside_the_trace_is_all_positive_zeros(self):
        p = ImpactParams(mass_kg=0.1, drop_height_m=0.1)
        t = np.arange(5120) / 200e3
        for center_s in (-1.0, 1.0, -p.reach_s - 1e-9):
            got = impact_phase(t, p, center_s=center_s)
            assert got.tobytes() == where_impact_phase(
                t, p, center_s=center_s).tobytes()
            assert got.tobytes() == np.zeros(t.size).tobytes()
        # A 2-D grid keeps its shape.
        grid = t[:12].reshape(3, 4)
        assert impact_phase(grid, p).tobytes() == where_impact_phase(
            grid, p).tobytes()
        assert impact_phase(grid, p).shape == (3, 4)

    @given(w=st.floats(min_value=1e-6, max_value=1e-3))
    @settings(max_examples=50, deadline=None)
    def test_integral_fixed_by_area_product(self, w):
        # At fixed peak*width the profile integral is width-independent,
        # which is the delta-approximation contract.
        ref_w = 1e-5
        area_target = 1.0  # rad * s per unit (peak * width)
        gain_ref = area_target / (0.1 * math.sqrt(2 * g0 * 0.1) * ref_w)
        gain = area_target / (0.1 * math.sqrt(2 * g0 * 0.1) * w)
        ref = ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=ref_w,
                           impact_gain=gain_ref)
        var = ImpactParams(mass_kg=0.1, drop_height_m=0.1, width_s=w,
                           impact_gain=gain)
        t_ref = np.linspace(-7 * ref_w, 7 * ref_w, 200001)
        t_var = np.linspace(-7 * w, 7 * w, 200001)
        int_ref = np.trapezoid(impact_phase(t_ref, ref), t_ref)
        int_var = np.trapezoid(impact_phase(t_var, var), t_var)
        assert int_var == pytest.approx(int_ref, rel=1e-6)


class TestPressure:
    def test_reference_hundred_grams(self):
        # C (m g / S) l / c with the default geometry; frozen against a
        # direct high-precision evaluation.
        delay = pressure_delay(PressureParams(mass_kg=0.1))
        expected = 3e-12 * (0.1 * g0 / 1e-4) * 0.1 / 299792458.0
        assert delay == pytest.approx(expected, rel=1e-15)
        assert delay == pytest.approx(9.813439002524874e-18, rel=1e-12)
        assert delay == pytest.approx(9.81e-18, abs=1e-20)

    def test_zero_mass(self):
        assert pressure_delay(PressureParams(mass_kg=0.0)) == 0.0

    @pytest.mark.parametrize("fields, key", [
        ({"mass_kg": 1e9}, "mass_kg"),
        ({"stress_optic_per_pa": 1e-3}, "stress_optic_per_pa"),
        ({"pressed_length_m": 1e8}, "pressed_length_m"),
        ({"contact_area_m2": 1e-13}, "contact_area_m2"),
        ({"mass_kg": 1e4, "contact_area_m2": 1e-10}, "contact_area_m2"),
        ({"mass_kg": 1e300, "contact_area_m2": 1e-300}, "mass_kg")])
    def test_delay_shift_past_the_bound_names_the_furthest_factor(
            self, fields, key):
        assert pressure_delay(PressureParams(mass_kg=1e7)) < \
            disturbance.MAX_DELAY_SHIFT_S
        with pytest.raises(ConfigError) as info:
            PressureParams(**fields)
        assert [p.split(":")[0] for p in info.value.problems] == [key]

    @pytest.mark.parametrize("fields, key", [
        ({"pressed_length_m": 5e-324}, "pressed_length_m"),
        ({"stress_optic_per_pa": 1e-320, "pressed_length_m": 1e-5},
         "stress_optic_per_pa"),
        ({"pressed_length_m": 1e-300, "stress_optic_per_pa": 1e-30},
         "pressed_length_m")])
    def test_geometry_that_infers_no_mass_names_the_smaller_factor(
            self, fields, key):
        # mass_from_delay divides by stress_optic_per_pa g pressed_length_m.
        with pytest.raises(ConfigError) as info:
            PressureParams(**fields)
        assert info.value.problems == [
            f"{key}: {fields[key]} leaves no delay shift to infer a mass "
            f"from"]

    def test_half_kilogram(self):
        delay = pressure_delay(PressureParams(mass_kg=0.5))
        assert delay == pytest.approx(
            5.0 * pressure_delay(PressureParams(mass_kg=0.1)), rel=1e-14)
        assert delay == pytest.approx(4.906719501262437e-17, rel=1e-12)

    @given(m=st.floats(min_value=1e-3, max_value=10.0),
           scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_scaling_laws(self, m, scale):
        base = PressureParams(mass_kg=m)
        assert pressure_delay(PressureParams(mass_kg=m * scale)) == \
            pytest.approx(scale * pressure_delay(base), rel=1e-12)
        stiffer = PressureParams(mass_kg=m,
                                 stress_optic_per_pa=3e-12 * scale)
        assert pressure_delay(stiffer) == pytest.approx(
            scale * pressure_delay(base), rel=1e-12)
        wider = PressureParams(mass_kg=m, contact_area_m2=1e-4 * scale)
        assert pressure_delay(wider) == pytest.approx(
            pressure_delay(base) / scale, rel=1e-12)


def test_standard_gravity_is_the_defined_constant():
    assert disturbance.STANDARD_GRAVITY == g0
    assert wm.STANDARD_GRAVITY is disturbance.STANDARD_GRAVITY


class TestEvent:
    def test_kinds(self):
        pzt = DisturbanceEvent(
            PztParams(1.0, 100.0), position_m=100.0)
        imp = DisturbanceEvent(
            ImpactParams(0.1, 0.1), position_m=100.0)
        prs = DisturbanceEvent(PressureParams(0.1), position_m=100.0)
        assert pzt.is_dynamic
        assert imp.is_dynamic
        assert not prs.is_dynamic

    class Subclassed(PressureParams):
        pass

    # The type must be one of the three exactly: a subclass is rejected too.
    @pytest.mark.parametrize("params", [None, 1.0, {"mass_kg": 0.1},
                                        Subclassed(0.1)])
    def test_other_params_types_rejected(self, params):
        with pytest.raises(TypeError):
            DisturbanceEvent(params, position_m=100.0)

    def test_pressure_contributes_no_phase(self):
        prs = DisturbanceEvent(PressureParams(0.3), position_m=100.0)
        t = np.linspace(0, 1, 100)
        assert np.all(single_pass_phase(t, prs) == 0.0)

    def test_pzt_starts_at_start_time(self):
        ev = DisturbanceEvent(PztParams(1.0, 100.0),
                              position_m=100.0, start_s=2.0)
        assert single_pass_phase(1.999, ev) == 0.0
        assert single_pass_phase(2.0025, ev) != 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PztParams(drive_amplitude_v=-1.0,
                      frequency_hz=10.0)
        with pytest.raises(ValueError):
            ImpactParams(mass_kg=0.1, drop_height_m=0.0)
        with pytest.raises(ValueError):
            DisturbanceEvent(PressureParams(0.1), position_m=-5.0)
