"""Metamorphic relations of the swept-sine response: what the physics
implies between two sweeps, with no oracle for either.

A sweep reads the settled drive, so it depends on the loop only through
the lag ``n (L - 2x) / c`` between the drive's two copies, on the drive
only through its strength, and on the source power linearly.  Each
relation is checked on fixed cases and on Hypothesis draws of whole-metre
positions and loop lengths, for which ``L - 2x`` is exact, with and
without noise at a fixed seed.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnacsim.disturbance import DisturbanceEvent, PztParams
from sagnacsim.optics import LoopChannel
from sagnacsim.perception import (DEFAULT_INPUT_POWER_W, PerceptionSettings,
                                  acquire, frequency_sweep, locate)

from oracles import sweep_position_bound

GRID = np.arange(2000.0, 75000.0 + 250.0, 250.0)
SEED = 3
NOISES = (0.0, PerceptionSettings.noise_sigma)
DRAWS = settings(derandomize=True, max_examples=20, deadline=None)


def drive(position_m, start_s=0.0, gain=0.5):
    """The README drive, 1.2 V at ``gain`` rad/V, at ``position_m``."""
    return DisturbanceEvent(
        PztParams(drive_amplitude_v=1.2, frequency_hz=3000.0,
                  phase_gain_rad_per_v=gain),
        position_m=position_m, start_s=start_s)


def loop(length_m=30e3):
    return LoopChannel(length_m=length_m, bias_phase_rad=0.5 * math.pi)


def sweep(event, channel, noise_sigma, **kwargs):
    return frequency_sweep(event, channel, GRID, noise_sigma=noise_sigma,
                           seed=SEED, **kwargs)


def assert_same_sweep(got, want):
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert got.noise_floor_amplitude == want.noise_floor_amplitude


@DRAWS
@given(x=st.integers(0, 30_000), shift=st.floats(0.0, 1e3))
@example(x=5000, shift=7.25)
def test_time_shift_leaves_the_sweep(x, shift):
    # A settled drive has no memory of when it started.
    for noise in NOISES:
        assert_same_sweep(sweep(drive(x, start_s=shift), loop(), noise),
                          sweep(drive(x), loop(), noise))


@DRAWS
@given(length=st.integers(1000, 60_000), share=st.floats(0.0, 1.0),
       d=st.integers(1, 10_000))
@example(length=30_000, share=1 / 6, d=1000)
def test_loop_scaling_leaves_the_sweep(length, share, d):
    # (L, x) and (L + 2d, x + d) share the path difference L - 2x.
    x = round(share * length)
    for noise in NOISES:
        assert_same_sweep(
            sweep(drive(x + d), loop(length + 2 * d), noise),
            sweep(drive(x), loop(length), noise))


def test_loop_scaling_leaves_the_path_difference():
    # 30 km at 5 km and 32 km at 6 km: the same nulls, read on loops 2 km
    # apart, give the same path difference.
    for noise in NOISES:
        config = PerceptionSettings(noise_sigma=noise)
        near, far = (locate(acquire(drive(x), loop(length), config, SEED),
                            loop(length), config)
                     for x, length in ((5000.0, 30e3), (6000.0, 32e3)))
        assert far.position_m == near.position_m + 1000.0
        assert far.path_difference_m == near.path_difference_m


@DRAWS
@given(x=st.integers(0, 30_000), gain=st.floats(0.01, 50.0))
@example(x=5000, gain=0.5)
def test_doubling_the_power_doubles_every_amplitude(x, gain):
    # Exact: the intensity, its series, the noise moments' square roots
    # and the floor's trace all scale by a power of two.
    for noise in NOISES:
        single = sweep(drive(x, gain=gain), loop(), noise)
        double = sweep(drive(x, gain=gain), loop(), noise,
                       input_power_w=2.0 * DEFAULT_INPUT_POWER_W)
        assert np.array_equal(double.amplitudes, 2.0 * single.amplitudes)
        assert double.noise_floor_amplitude == \
            2.0 * single.noise_floor_amplitude


@DRAWS
@given(x=st.integers(0, 30_000), gain=st.floats(0.01, 50.0),
       sigma=st.floats(1e-6, 1.0))
@example(x=5000, gain=0.5, sigma=PerceptionSettings.noise_sigma)
def test_doubling_the_noise_doubles_the_floor(x, gain, sigma):
    # Exact: the floor is the median amplitude of the noise alone, linear
    # in sigma, and doubling a float scales it by a power of two.
    single = sweep(drive(x, gain=gain), loop(), sigma)
    double = sweep(drive(x, gain=gain), loop(), 2.0 * sigma)
    assert double.noise_floor_amplitude == \
        2.0 * single.noise_floor_amplitude


@DRAWS
@given(x=st.integers(0, 15_000), gain=st.floats(0.01, 50.0))
@example(x=1000, gain=0.5)
@example(x=1000, gain=50.0)
def test_mirror_positions_agree_to_rounding(x, gain):
    # x and L - x give lags tau and -tau: the intensity of one is that of
    # the other reflected in time, c(pi - s), so the noise-free tone
    # amplitudes agree but for rounding.  Bound: 1e-13 I0, for cosine
    # arguments of up to 4 peak + omega |tau| / 2 (some 270 rad at 60 rad)
    # rounded by eps each; the worst seen is 24 eps I0.  With noise the
    # two draw their noise on conjugate responses, so the relation holds
    # without noise only.
    near = sweep(drive(x, gain=gain), loop(), 0.0)
    far = sweep(drive(30_000 - x, gain=gain), loop(), 0.0)
    assert np.all(np.abs(near.amplitudes - far.amplitudes)
                  <= 1e-13 * DEFAULT_INPUT_POWER_W)


class TestSweepPositionBound:
    """The sweep's information bound scales with the noise and not with
    the source power: the noise is multiplicative, so the projection
    scales as the power and its covariance as power and noise squared."""

    SETTINGS = PerceptionSettings()

    @pytest.mark.parametrize("x", [1000, 5000, 9000, 13000, 14000])
    def test_doubling_the_noise_doubles_the_bound(self, x):
        single = sweep_position_bound(drive(x), loop(), self.SETTINGS)
        double = sweep_position_bound(drive(x), loop(), replace(
            self.SETTINGS, noise_sigma=2.0 * self.SETTINGS.noise_sigma))
        assert double == pytest.approx(2.0 * single, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x", [1000, 5000, 9000, 13000, 14000])
    def test_doubling_the_power_leaves_the_bound(self, x):
        single = sweep_position_bound(drive(x), loop(), self.SETTINGS)
        double = sweep_position_bound(drive(x), loop(), replace(
            self.SETTINGS, input_power_w=2.0 * self.SETTINGS.input_power_w))
        assert double == pytest.approx(single, rel=1e-12, abs=0.0)

    def test_bound_is_deterministic_and_flat_along_the_loop(self):
        bounds = [sweep_position_bound(drive(x), loop(), self.SETTINGS)
                  for x in (1000, 5000, 9000, 13000, 14000)]
        assert bounds == [sweep_position_bound(drive(x), loop(),
                                               self.SETTINGS)
                          for x in (1000, 5000, 9000, 13000, 14000)]
        # 3.27 mm from 1 to 9 km, 3.30 mm at 13 km, 3.62 mm at 14 km.
        assert all(3.2e-3 < bound < 3.7e-3 for bound in bounds)
