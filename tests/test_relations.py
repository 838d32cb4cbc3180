"""Metamorphic relations of the swept-sine response, the sensing trace
and the key window: what the physics implies between two runs, with no
oracle for either.

A sweep reads the settled drive, so it depends on the loop only through
the lag ``n (L - 2x) / c`` between the drive's two copies, on the drive
only through its strength, and on the source power linearly.  Each
relation is checked on fixed cases and on Hypothesis draws of whole-metre
positions and loop lengths, for which ``L - 2x`` is exact, with and
without noise at a fixed seed.

A trace and a key window read the loop phase at their own times, so an
event and the times that read it, shifted together, give the same values
but for the rounding of those times.

A localization reads the delay ``tau = k / f`` of its nulls and places the
event at ``x = (L - c tau / n) / 2``, so the same nulls relocated on a
loop whose index or length is mis-set move it by the calibration budget:
``(L - 2x) dn / (2 (n + dn))`` and ``dL / 2``.

A WM reading inverts its contrast ratio exactly, so below the branch top
the delay it reads is the load's, linear in the mass: two standing weights
read as the sum of their readings but for rounding.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnacsim import wm
from sagnacsim.disturbance import (DisturbanceEvent, ImpactParams, PztParams,
                                   pressure_delay)
from sagnacsim.optics import C_VACUUM, LoopChannel, SpectralPacket
from sagnacsim.perception import (DEFAULT_INPUT_POWER_W, NullFrequency,
                                  PerceptionSettings, _delay_lag_s, acquire,
                                  frequency_sweep, locate,
                                  localization_report, synthesize_trace,
                                  window_phase_means)

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


def impact(position_m, start_s):
    """The default impact, 0.1 kg from 0.1 m, a 10 us pulse at gain 10."""
    return DisturbanceEvent(ImpactParams(mass_kg=0.1, drop_height_m=0.1),
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

    @pytest.mark.parametrize("x", [1000, 5000, 9000, 13000, 14000])
    @pytest.mark.parametrize("peak", [0.005, 0.01])
    def test_doubling_a_small_drive_halves_the_bound(self, x, peak):
        # Information scales as peak**2 but for the J1 cubic term.  At the
        # bias pi/2 a point's projection is J1(A) times a phasor, A = 2
        # peak |sin(omega lag / 2)| <= 2 peak, and its noise covariance
        # has the eigenvalues 1 + (1 - J0(2A)) / 2 -+ J2(2A) / 2 in units
        # of its drive-off value.  To order A**2 the information is
        # peak**2 K (1 - e) with K free of the drive: the derivative loses
        # at most 3 A**2 / 4 of its square (J1'(A) >= 1/2 - 3 A**2 / 16,
        # J1(A) >= A / 2 - A**3 / 16), and the eigenvalues lie in [1, 1 +
        # 3 A**2 / 4], so 0 <= e <= 3 A**2 / 2 <= 6 peak**2.  The ratio
        # 2 sqrt((1 - e(2 peak)) / (1 - e(peak))) then falls short of 2
        # by at most 24 peak**2 and exceeds it by at most 6 peak**2.  The
        # shortfall is 1.1e-4 and 4.4e-4 at 1-13 km, 18-19 % of that
        # bound, and 26 % at 14 km, the worst case.
        single = sweep_position_bound(drive(x, gain=peak / 1.2), loop(),
                                      self.SETTINGS)
        double = sweep_position_bound(drive(x, gain=2.0 * peak / 1.2),
                                      loop(), self.SETTINGS)
        assert abs(single / double - 2.0) <= 24.0 * peak**2

    def test_bound_is_deterministic_and_flat_along_the_loop(self):
        bounds = [sweep_position_bound(drive(x), loop(), self.SETTINGS)
                  for x in (1000, 5000, 9000, 13000, 14000)]
        assert bounds == [sweep_position_bound(drive(x), loop(),
                                               self.SETTINGS)
                          for x in (1000, 5000, 9000, 13000, 14000)]
        # 3.27 mm from 1 to 9 km, 3.30 mm at 13 km, 3.62 mm at 14 km.
        assert all(3.2e-3 < bound < 3.7e-3 for bound in bounds)


EPS = np.finfo(float).eps
RATE = PerceptionSettings.sample_rate_hz


def time_rounding(latest_s):
    """How far apart two reads of one event-relative time may round when
    every time involved is at most ``latest_s``: the sample or midpoint
    time, the event's start and the late copy's ``t - lag`` each round
    once, as do the differences taken of them, ``eps / 2`` of
    ``latest_s`` each in either run."""
    return 6.0 * EPS * latest_s


def phase_rounding(event, latest_s):
    """Bound on how far the net phase of ``event`` moves when its times
    round apart by :func:`time_rounding`.

    Each copy moves by its largest slope times the time error, and
    rounds its own value: a drive's argument ``omega t`` at ``eps omega
    latest_s``, and the settled and two-copy forms, which either run may
    take, differ by ``4 peak eps (omega latest_s + omega |lag| + 2)``
    (``TestSettledDrive`` in tests/test_perception.py).  A pulse's slope
    is at most ``peak / width``, and a time that rounds across its reach
    steps it by ``peak exp(-18)``.
    """
    params, dt = event.params, time_rounding(latest_s)
    peak = params.peak_phase_rad
    if isinstance(params, PztParams):
        omega = params.angular_frequency_rad_s
        lag = abs(_delay_lag_s(event, loop()))
        return peak * (2.0 * omega * dt
                       + 8.0 * EPS * (omega * latest_s + omega * lag + 2.0))
    return peak * (2.0 * dt / params.width_s + 64.0 * EPS
                   + 2.0 * math.exp(-18.0))


@DRAWS
@given(x=st.integers(0, 30_000), shift=st.floats(0.0, 1e3),
       offset=st.floats(-0.01, 0.01), pulse=st.booleans())
@example(x=5000, shift=7.25, offset=0.0, pulse=True)
@example(x=5000, shift=7.25, offset=-0.005, pulse=False)
def test_time_shift_moves_the_trace(x, shift, offset, pulse):
    # An impact at 1 s or the README drive from 1 s, and a 10 ms trace
    # from 5 ms before its onset plus ``offset``: a drive's trace may
    # start before both copies run, or after.  The noise draw is the
    # seed's in both runs, so a sample moves only with its port
    # intensity, which rounds the bias plus the phase and its cosine.
    event = impact(x, 1.0) if pulse else drive(x, start_s=1.0)
    moved = replace(event, start_s=event.start_s + shift)
    start = event.start_s - 0.005 + offset
    noise = PerceptionSettings.noise_sigma
    base, shifted = (synthesize_trace((ev,), loop(), 0.01, RATE, noise,
                                      seed=SEED, start_s=s0)
                     for ev, s0 in ((event, start), (moved, start + shift)))
    latest = 1.02 + shift
    bias, peak = loop().bias_phase_rad, event.params.peak_phase_rad
    factor = 1.0 + noise * np.abs(
        np.random.default_rng(SEED).standard_normal(base.samples.size))
    bound = DEFAULT_INPUT_POWER_W * factor * (
        phase_rounding(event, latest) + 4.0 * EPS * (bias + 2.0 * peak + 4.0))
    assert np.all(np.abs(shifted.samples - base.samples) <= bound)


@DRAWS
@given(x=st.integers(0, 30_000), shift=st.floats(0.0, 1e3),
       offset=st.floats(-1.0, 1.0), two=st.booleans())
@example(x=5000, shift=7.25, offset=0.25, two=False)
@example(x=5000, shift=7.25, offset=0.25, two=True)
def test_time_shift_keeps_the_window_means(x, shift, offset, two):
    # The README drive from 3 s, alone, takes the closed-form means; with
    # a second drive from 3.4 s at 9 km the window averages 2**12
    # midpoints of the loop phase.  The window [3 + offset, 4 + offset)
    # may start before the drive or after.  A midpoint's phase moves by
    # at most the phase rounding of each drive, harmonic k by k times
    # that.  The closed form is the exact mean over the window, whose two
    # ends move by the time rounding, which moves the mean by at most
    # twice that each over the 1 s window; its piece phases' own rounding
    # is averaged out over the drive's periods by the sinc of each order.
    # The summed terms of either form round at some 2**-40 of their sum.
    # The worst draws seen reach 1 % and 6 % of these bounds.
    events = (drive(x, start_s=3.0),)
    if two:
        events += (drive(9000, start_s=3.4, gain=0.25),)
    moved = tuple(replace(ev, start_s=ev.start_s + shift) for ev in events)
    n, t0 = 25, 3.0 + offset
    base, shifted = (window_phase_means(evs, loop(), s0, 1.0, 2**12, n)
                     for evs, s0 in ((events, t0), (moved, t0 + shift)))
    latest = 5.0 + shift  # no window end or drive start is later
    if two:
        bound = np.arange(1, n + 1) * sum(phase_rounding(ev, latest)
                                          for ev in events)
    else:
        bound = 4.0 * time_rounding(latest)
    assert np.all(np.abs(shifted - base) <= bound + 2.0**-40)


def mis_set(channel, dn=0.0, dl=0.0):
    return replace(channel, refractive_index=channel.refractive_index + dn,
                   length_m=channel.length_m + dl)


def assert_calibration_budget(report, channel, relocate, dn, dl):
    """``relocate(channel)``, the same nulls' report on a channel, moves by
    the budget on the mis-set channels.

    Each position ``(L - c tau / n) / 2`` rounds the path, the difference
    and the loop length at ``eps / 2`` of ``L`` or less each, so two of
    them and the budget's own few roundings stay within ``4 eps L``, as
    does the length's shift with ``L + |dL|``.  ``sigma`` is ``c / (2 n)``
    times the same SD of the delays, so its ratio rounds at some ``6 eps``
    and with the length it does not move at all.
    """
    n, length = channel.refractive_index, channel.length_m
    index = relocate(mis_set(channel, dn=dn))
    shift = report.path_difference_m * dn / (2.0 * (n + dn))
    assert abs(index.position_m - report.position_m - shift) \
        <= 4.0 * EPS * length
    longer = relocate(mis_set(channel, dl=dl))
    assert abs(longer.position_m - report.position_m - 0.5 * dl) \
        <= 4.0 * EPS * (length + abs(dl))
    assert longer.path_difference_m == report.path_difference_m
    assert longer.sigma_position_m == report.sigma_position_m
    if report.sigma_position_m is None:
        assert index.sigma_position_m is None
    else:
        scaled = report.sigma_position_m * n / (n + dn)
        assert abs(index.sigma_position_m - scaled) <= 6.0 * EPS * scaled


@DRAWS
@given(length=st.integers(1000, 60_000), share=st.floats(0.0, 0.5),
       jitters=st.lists(st.floats(-1e-4, 1e-4), min_size=1, max_size=4),
       dn=st.floats(-1e-3, 1e-3), dl=st.floats(-10.0, 10.0))
@example(length=30_000, share=1 / 6, jitters=[0.0, 1e-5, -2e-5], dn=1e-4,
         dl=1.0)
def test_mis_set_calibration_moves_the_report(length, share, jitters, dn,
                                              dl):
    # Harmonic k of a drive at x from 100 m to L/2 - 100 m, off its exact
    # frequency k c / (n (L - 2x)) by up to 1e-4, so that the lowest one
    # stays above the in-loop floor of every mis-set channel drawn.
    channel = loop(length)
    x = 100 + round(share * (length - 400))
    fundamental = C_VACUUM / (channel.refractive_index * (length - 2 * x))
    nulls = [NullFrequency(k * fundamental * (1.0 + jitter), k, 20.0)
             for k, jitter in enumerate(jitters, start=1)]

    def relocate(wrong):
        return localization_report(nulls, wrong)

    assert_calibration_budget(relocate(channel), channel, relocate, dn, dl)


def test_located_nulls_do_not_depend_on_the_channel():
    # The README drive at 5 km, acquired on the true loop with noise and
    # located on mis-set ones: the nulls are the same, so the position
    # moves by the budget, 0.68 m at dn = 1e-4 and 0.5 m at dL = 1 m.
    config = PerceptionSettings()
    data = acquire(drive(5000), loop(), config, SEED)
    report = locate(data, loop(), config)
    assert len(report.nulls) >= 2

    def relocate(wrong):
        located = locate(data, wrong, config)
        assert located.nulls == report.nulls
        return located

    assert_calibration_budget(report, loop(), relocate, 1e-4, 1.0)
    assert relocate(mis_set(loop(), dn=1e-4)).position_m \
        - report.position_m == pytest.approx(0.681, abs=1e-3)


NOISE_FREE_WM = wm.WmSettings(noise_sigma=0.0)
PACKET = SpectralPacket.from_wavelength()
#: The load at the WM branch top ``omega0 dt = de``, 4.39 kg on the
#: default geometry.
TOP_KG = wm.mass_from_delay(NOISE_FREE_WM.delta_epsilon_rad / PACKET.omega0,
                            NOISE_FREE_WM.pressure)


def inversion_rounding(phi0, s):
    """Bound (rad) on how far a noise-free reading's phase ``omega0 dt``
    lies from the phase shift ``s`` of its load, on a loop of
    birefringence phase ``phi0``, with ``u = eps / 2`` and the offset
    ``de``.

    - The analyzer phases ``2 (omega0 tau - angle)`` of the disturbed and
      offset intensities round at ``2 u (5 phi0 + 3 s + pi + 2 de)`` and
      ``2 u (2 phi0 + pi + 2 de)``; the exact inversion moves ``s`` by half
      the first and at most half the second.
    - ``1 - cos`` and the intensities round at ``2 u (1 + S)`` of the
      input power's share ``S``, and the contrast ratio's difference and
      quotient at ``3 u``, so the ratio is off by at most ``10 u / S1 +
      9 u``, with ``S1 = 2 sin^2 de`` the offset's share.  The inversion's
      slope ``sin^2 de / sin 2 (de - s)`` carries that to ``s``.
    - ``sqrt`` of ``1 - icr`` and its product with ``sin de`` round its
      argument at ``3.5 u`` relative, which ``asin`` carries at ``3.5 u
      tan(de - s)``; ``asin`` rounds at ``2 u de``, and ``de - asin`` and
      the division by ``omega0`` at ``u s`` each.
    """
    de, u = NOISE_FREE_WM.delta_epsilon_rad, EPS / 2.0
    return u * (7.0 * phi0 + 5.0 * s + 2.0 * math.pi + 6.0 * de
                + 3.5 * math.tan(de)
                + (5.0 + 9.0 * math.sin(de) ** 2) / math.sin(2.0 * (de - s)))


@DRAWS
@given(tau0=st.floats(0.0, 1e-12), share=st.floats(0.0, 0.99),
       split=st.floats(0.0, 1.0))
# About the 0.1 and 0.2 kg of the default staircase on the default loop.
@example(tau0=3e-13, share=0.3 / TOP_KG, split=1.0 / 3.0)
def test_wm_readings_add_in_mass(tau0, share, split):
    # Masses m1 and m2 whose sum is at most 0.99 of the branch top, where
    # the inversion's slope is some 83 times its value at no load.  Each
    # reading is off by ``inversion_rounding`` at most, and the load's
    # delay ``pressure_delay`` rounds five times, at ``5 u`` of each
    # reading and ``u`` more for the sum ``m1 + m2``; the test's own sum
    # and difference round at ``u`` of the whole each.  The worst draw
    # reaches 8 % of this bound, and 18 % in 20 000 further random draws.
    m1 = share * split * TOP_KG
    m2 = share * TOP_KG - m1
    masses = (m1, m2, m1 + m2)
    channel = LoopChannel(length_m=30e3, intrinsic_delay_s=tau0)
    one, two, both = (reading.inferred_delay_s for reading in
                      wm.pressure_staircase(masses, NOISE_FREE_WM, channel,
                                            PACKET))
    phi0, omega0 = PACKET.omega0 * tau0, PACKET.omega0
    shifts = [omega0 * pressure_delay(replace(NOISE_FREE_WM.pressure,
                                              mass_kg=m)) for m in masses]
    bound = sum(inversion_rounding(phi0, s) for s in shifts) \
        + 13.0 * (EPS / 2.0) * shifts[2]
    assert abs(omega0 * (both - (one + two))) <= bound

