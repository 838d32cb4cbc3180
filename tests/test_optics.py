import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnacsim.errors import NoSignalError
from sagnacsim.optics import (LoopChannel, PortProbabilities,
                              PostSelection, SpectralPacket,
                              omega_from_wavelength,
                              post_selection_probabilities, relative_phase,
                              spectral_envelope, visibility_and_qber)

from oracles import spectral_port_probability

OMEGA_1550 = omega_from_wavelength(1550e-9)


def make_channel(tau0=0.0, dtau=0.0, bias=0.0, length=30000.0):
    return LoopChannel(length_m=length, intrinsic_delay_s=tau0,
                       delay_shift_s=dtau, bias_phase_rad=bias)


class TestRelativePhase:
    def test_zero_delay(self):
        packet = SpectralPacket(omega0=OMEGA_1550)
        assert relative_phase(make_channel(), packet) == 0.0

    def test_attosecond_delay(self):
        # Oracle: arbitrary-precision product, frozen below.
        import mpmath
        mpmath.mp.dps = 40
        expected = float(mpmath.mpf(2) * mpmath.pi * 299792458
                         / mpmath.mpf("1550e-9") * mpmath.mpf("9.81e-18"))
        packet = SpectralPacket(omega0=OMEGA_1550)
        got = relative_phase(make_channel(dtau=9.81e-18), packet)
        assert got == pytest.approx(0.011921691532451515, rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_delay(self):
        packet = SpectralPacket(omega0=OMEGA_1550)
        one = relative_phase(make_channel(tau0=1e-13, dtau=2e-13), packet)
        two = relative_phase(make_channel(tau0=2e-13, dtau=4e-13), packet)
        assert two == pytest.approx(2.0 * one, rel=1e-14)


class TestSpectralEnvelope:
    # The square is taken as a product, which IEEE 754 rounds correctly;
    # libm's pow(x, 2) behind ``x ** 2`` can land one ulp off, as it does
    # at the pinned example (66.70522046321177 for 66.70522046321176).
    @given(sigma=st.floats(0.0, 1e14), tau=st.floats(-1e-12, 1e-12))
    @example(sigma=14482562341596.73, tau=5.639420845309977e-13)
    @settings(max_examples=100, deadline=None)
    def test_gaussian_in_the_float_range(self, sigma, tau):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        spread = sigma * tau
        assert spectral_envelope(packet, tau) == math.exp(-(spread * spread))

    # (sigma tau)**2 once raised OverflowError past sigma |tau| ~ 1.3e154.
    @pytest.mark.parametrize("sigma, tau", [(1e300, 3e-13), (1e15, 1e150),
                                            (1e300, -1e300), (30.0, 1.0)])
    def test_saturates_to_zero(self, sigma, tau):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        assert spectral_envelope(packet, tau) == 0.0

    def test_monochromatic_is_exactly_one(self):
        packet = SpectralPacket(omega0=OMEGA_1550)
        assert spectral_envelope(packet, 1e300) == 1.0


class TestPortProbabilities:
    def test_dark_reflected_port_at_pi_bias(self):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=1e11)
        p = post_selection_probabilities(
            make_channel(tau0=4e-13, bias=math.pi), packet,
            PostSelection(0.3))
        assert p.reflected == 0.0

    def test_monochromatic_bright_point(self):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=0.0)
        channel = make_channel(tau0=3e-13)
        phi = relative_phase(channel, packet)
        p = post_selection_probabilities(
            channel, packet, PostSelection(phi - 0.5 * math.pi))
        assert p.reflected == pytest.approx(1.0, abs=1e-12)
        assert p.transmitted == 0.0

    def test_null_point_with_decoherence(self):
        # At the analyzer null the output is the incoherent residue
        # (1 - exp(-(sigma tau)^2))/2; cross-checked against quadrature.
        tau = 2e-13
        sigma = 1.0 / tau  # sigma * tau = 1
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        channel = make_channel(tau0=tau)
        phi = relative_phase(channel, packet)
        p = post_selection_probabilities(channel, packet, PostSelection(phi))
        expected = 0.5 * (1.0 - math.exp(-1.0))
        assert p.reflected == pytest.approx(0.31606027941427883, rel=1e-12)
        assert p.reflected == pytest.approx(expected, rel=1e-12)
        numeric = spectral_port_probability(0.0, OMEGA_1550, sigma, tau, phi)
        assert p.reflected == pytest.approx(numeric, abs=1e-9)
        assert p.transmitted == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PortProbabilities(reflected=-0.1, transmitted=0.0)
        with pytest.raises(ValueError):
            PortProbabilities(reflected=0.7, transmitted=0.7)
        with pytest.raises(ValueError):
            SpectralPacket(omega0=-1.0)
        with pytest.raises(ValueError):
            LoopChannel(length_m=0.0)


class TestVisibilityAndQber:
    def test_perfect_visibility(self):
        p = post_selection_probabilities(
            make_channel(tau0=3e-13, bias=0.0),
            SpectralPacket(omega0=OMEGA_1550, sigma=1e12),
            PostSelection(0.2))
        eta, qber = visibility_and_qber(p)
        assert eta == pytest.approx(1.0, abs=1e-12)
        assert qber == pytest.approx(0.0, abs=1e-12)

    def test_balanced_ports(self):
        p = post_selection_probabilities(
            make_channel(tau0=3e-13, bias=0.5 * math.pi),
            SpectralPacket(omega0=OMEGA_1550, sigma=1e12),
            PostSelection(0.2))
        eta, qber = visibility_and_qber(p)
        assert eta == pytest.approx(0.0, abs=1e-12)
        assert qber == pytest.approx(0.5, abs=1e-12)

    def test_no_signal(self):
        with pytest.raises(NoSignalError):
            visibility_and_qber(PortProbabilities(0.0, 0.0))


angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=1e-12, allow_nan=False)
widths = st.floats(min_value=0.0, max_value=5e12, allow_nan=False)


class TestInvariants:
    @given(bias=angles, eps=angles, tau0=delays, sigma=widths)
    @settings(max_examples=200, deadline=None)
    def test_normalization(self, bias, eps, tau0, sigma):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        channel = make_channel(tau0=tau0, bias=bias)
        p = post_selection_probabilities(channel, packet, PostSelection(eps))
        tau = channel.total_delay_s
        phi = relative_phase(channel, packet)
        expected = 0.5 * (1.0 - math.exp(-((sigma * tau) ** 2))
                          * math.cos(2.0 * (phi - eps)))
        assert p.reflected + p.transmitted == pytest.approx(expected,
                                                            abs=1e-12)

    @given(bias=angles, eps=angles, tau0=delays, sigma=widths)
    @settings(max_examples=200, deadline=None)
    def test_complementarity(self, bias, eps, tau0, sigma):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        ps = PostSelection(eps)
        p = post_selection_probabilities(make_channel(tau0=tau0, bias=bias),
                                         packet, ps)
        q = post_selection_probabilities(
            make_channel(tau0=tau0, bias=bias + math.pi), packet, ps)
        assert q.reflected == pytest.approx(p.transmitted, abs=1e-15)
        assert q.transmitted == pytest.approx(p.reflected, abs=1e-15)

    @given(bias=st.floats(min_value=-1.4, max_value=1.4), eps=angles,
           dtau_a=delays, dtau_b=delays, sigma=widths)
    @settings(max_examples=200, deadline=None)
    def test_quasi_static_reciprocity(self, bias, eps, dtau_a, dtau_b, sigma):
        # Visibility ignores the delay shift and the analyzer angle.
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        pa = post_selection_probabilities(
            make_channel(tau0=3e-13, dtau=dtau_a, bias=bias), packet,
            PostSelection(eps))
        pb = post_selection_probabilities(
            make_channel(tau0=3e-13, dtau=dtau_b, bias=bias), packet,
            PostSelection(eps + 0.4))
        eta_a, _ = visibility_and_qber(pa)
        eta_b, _ = visibility_and_qber(pb)
        assert eta_a == pytest.approx(eta_b, abs=1e-12)
        assert eta_a == pytest.approx(math.cos(bias), abs=1e-12)

    @given(bias=angles, eps=angles, tau0=delays)
    @settings(max_examples=200, deadline=None)
    def test_monochromatic_bound(self, bias, eps, tau0):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=0.0)
        p = post_selection_probabilities(make_channel(tau0=tau0, bias=bias),
                                         packet, PostSelection(eps))
        assert 0.0 <= p.reflected <= 0.5 * (1.0 + math.cos(bias)) + 1e-12

    def test_quadrature_oracle_equivalence(self):
        import numpy as np
        rng = np.random.default_rng(42)
        for _ in range(20):
            bias = rng.uniform(-math.pi, math.pi)
            eps = rng.uniform(-math.pi, math.pi)
            tau0 = rng.uniform(1e-14, 8e-13)
            sigma = rng.uniform(0.0, 3.0 / tau0)
            packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
            channel = make_channel(tau0=tau0, bias=bias)
            p = post_selection_probabilities(channel, packet,
                                             PostSelection(eps))
            numeric = spectral_port_probability(bias, OMEGA_1550, sigma,
                                                tau0, eps)
            assert p.reflected == pytest.approx(numeric, rel=1e-8, abs=1e-12)
