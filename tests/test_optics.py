import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnacsim.optics import (LoopChannel, SpectralPacket,
                              omega_from_wavelength, port_powers,
                              spectral_envelope)

from oracles import spectral_port_probability

OMEGA_1550 = omega_from_wavelength(1550e-9)


def visibility(p_r, p_t):
    """Normalized port contrast ``(P_R - P_T) / (P_R + P_T)``."""
    return (p_r - p_t) / (p_r + p_t)


def carrier_phase(tau_s, packet):
    """The polarization phase ``phi`` read back from the reflected port:
    at the analyzer angles -pi/4 and pi/4 it outputs ``(1 +- sin 2 phi)/2``
    (bias 0, unit scale), so their difference inverts within |phi| < pi/4
    without the cancellation of ``1 - cos`` near the null."""
    lo, _ = port_powers(tau_s, packet, -0.25 * math.pi, 0.0, 1.0)
    hi, _ = port_powers(tau_s, packet, 0.25 * math.pi, 0.0, 1.0)
    return 0.5 * math.asin(lo - hi)


class TestRelativePhase:
    def test_zero_delay(self):
        packet = SpectralPacket(omega0=OMEGA_1550)
        assert port_powers(0.0, packet, 0.0, 0.0, 1.0) == (0.0, 0.0)
        assert carrier_phase(0.0, packet) == 0.0

    def test_attosecond_delay(self):
        # Oracle: arbitrary-precision product, frozen below.
        import mpmath
        mpmath.mp.dps = 40
        expected = float(mpmath.mpf(2) * mpmath.pi * 299792458
                         / mpmath.mpf("1550e-9") * mpmath.mpf("9.81e-18"))
        packet = SpectralPacket(omega0=OMEGA_1550)
        got = carrier_phase(9.81e-18, packet)
        assert got == pytest.approx(0.011921691532451515, rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_delay(self):
        # Loop delay plus a standing weight's shift, then both doubled.
        packet = SpectralPacket(omega0=OMEGA_1550)
        one = carrier_phase(1e-17 + 2e-17, packet)
        two = carrier_phase(2e-17 + 4e-17, packet)
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


class TestPortPowers:
    def test_dark_reflected_port_at_pi_bias(self):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=1e11)
        p_r, _ = port_powers(4e-13, packet, 0.3, math.pi, 1.0)
        assert p_r == 0.0

    def test_monochromatic_bright_point(self):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=0.0)
        phi = packet.omega0 * 3e-13
        p_r, p_t = port_powers(3e-13, packet, phi - 0.5 * math.pi, 0.0, 1.0)
        assert p_r == pytest.approx(1.0, abs=1e-12)
        assert p_t == 0.0

    def test_null_point_with_decoherence(self):
        # At the analyzer null the output is the incoherent residue
        # (1 - exp(-(sigma tau)^2))/2; cross-checked against quadrature.
        tau = 2e-13
        sigma = 1.0 / tau  # sigma * tau = 1
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        phi = packet.omega0 * tau
        p_r, p_t = port_powers(tau, packet, phi, 0.0, 1.0)
        expected = 0.5 * (1.0 - math.exp(-1.0))
        assert p_r == pytest.approx(0.31606027941427883, rel=1e-12)
        assert p_r == pytest.approx(expected, rel=1e-12)
        numeric = spectral_port_probability(0.0, OMEGA_1550, sigma, tau, phi)
        assert p_r == pytest.approx(numeric, abs=1e-9)
        assert p_t == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralPacket(omega0=-1.0)
        with pytest.raises(ValueError):
            LoopChannel(length_m=0.0)


class TestVisibilityAndQber:
    def test_perfect_visibility(self):
        eta = visibility(*port_powers(
            3e-13, SpectralPacket(omega0=OMEGA_1550, sigma=1e12), 0.2, 0.0,
            1.0))
        qber = 0.5 * (1.0 - eta)
        assert eta == pytest.approx(1.0, abs=1e-12)
        assert qber == pytest.approx(0.0, abs=1e-12)

    def test_balanced_ports(self):
        eta = visibility(*port_powers(
            3e-13, SpectralPacket(omega0=OMEGA_1550, sigma=1e12), 0.2,
            0.5 * math.pi, 1.0))
        qber = 0.5 * (1.0 - eta)
        assert eta == pytest.approx(0.0, abs=1e-12)
        assert qber == pytest.approx(0.5, abs=1e-12)


angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=1e-12, allow_nan=False)
widths = st.floats(min_value=0.0, max_value=5e12, allow_nan=False)


class TestInvariants:
    @given(bias=angles, eps=angles, tau0=delays, sigma=widths)
    @settings(max_examples=200, deadline=None)
    def test_normalization(self, bias, eps, tau0, sigma):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        p_r, p_t = port_powers(tau0, packet, eps, bias, 1.0)
        phi = packet.omega0 * tau0
        expected = 0.5 * (1.0 - math.exp(-((sigma * tau0) ** 2))
                          * math.cos(2.0 * (phi - eps)))
        assert p_r + p_t == pytest.approx(expected, abs=1e-12)

    @given(bias=angles, eps=angles, tau0=delays, sigma=widths)
    @settings(max_examples=200, deadline=None)
    def test_complementarity(self, bias, eps, tau0, sigma):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        p_r, p_t = port_powers(tau0, packet, eps, bias, 1.0)
        q_r, q_t = port_powers(tau0, packet, eps, bias + math.pi, 1.0)
        assert q_r == pytest.approx(p_t, abs=1e-15)
        assert q_t == pytest.approx(p_r, abs=1e-15)

    @given(bias=st.floats(min_value=-1.4, max_value=1.4), eps=angles,
           dtau_a=delays, dtau_b=delays, sigma=widths)
    @settings(max_examples=200, deadline=None)
    def test_quasi_static_reciprocity(self, bias, eps, dtau_a, dtau_b, sigma):
        # Visibility ignores the delay shift and the analyzer angle.
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
        eta_a = visibility(*port_powers(3e-13 + dtau_a, packet, eps, bias,
                                        1.0))
        eta_b = visibility(*port_powers(3e-13 + dtau_b, packet, eps + 0.4,
                                        bias, 1.0))
        assert eta_a == pytest.approx(eta_b, abs=1e-12)
        assert eta_a == pytest.approx(math.cos(bias), abs=1e-12)

    @given(bias=angles, eps=angles, tau0=delays)
    @settings(max_examples=200, deadline=None)
    def test_monochromatic_bound(self, bias, eps, tau0):
        packet = SpectralPacket(omega0=OMEGA_1550, sigma=0.0)
        p_r, _ = port_powers(tau0, packet, eps, bias, 1.0)
        assert 0.0 <= p_r <= 0.5 * (1.0 + math.cos(bias)) + 1e-12

    def test_quadrature_oracle_equivalence(self):
        import numpy as np
        rng = np.random.default_rng(42)
        for _ in range(20):
            bias = rng.uniform(-math.pi, math.pi)
            eps = rng.uniform(-math.pi, math.pi)
            tau0 = rng.uniform(1e-14, 8e-13)
            sigma = rng.uniform(0.0, 3.0 / tau0)
            packet = SpectralPacket(omega0=OMEGA_1550, sigma=sigma)
            p_r, _ = port_powers(tau0, packet, eps, bias, 1.0)
            numeric = spectral_port_probability(bias, OMEGA_1550, sigma,
                                                tau0, eps)
            assert p_r == pytest.approx(numeric, rel=1e-8, abs=1e-12)
