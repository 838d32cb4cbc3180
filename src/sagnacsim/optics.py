"""Closed-form optics of the fiber loop interferometer.

Two counter-propagating pulses pick up a global phase difference (the
communication carrier) while the two orthogonal polarization components of
each pulse accumulate a relative phase from the loop birefringence (the
quasi-static sensing carrier).  A polarization post-selection nearly
orthogonal to the prepared state turns tiny birefringence-delay changes into
large relative intensity changes at the output ports.

Everything here is pure double-precision algebra over immutable inputs.
Phases are kept in radians and never wrapped during accumulation; delays at
the attosecond scale produce phases around 1e-2 rad which must not lose
precision to modular reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Checked, non_negative, positive, within

#: Speed of light in vacuum (m/s), exact by definition.
C_VACUUM = 299792458.0

#: Operating vacuum wavelength of the shared laser source (m).
DEFAULT_WAVELENGTH_M = 1550e-9

#: Shortest vacuum wavelength (m) whose angular frequency
#: :func:`omega_from_wavelength` keeps inside the float range, 2 pi c over
#: the largest float, about 1.05e-299 m; one float below it ``omega0``
#: overflows to infinity.
MIN_WAVELENGTH_M = 2.0 * math.pi * C_VACUUM / math.nextafter(math.inf, 0.0)

#: Longest loop (m) the simulator takes: 10 000 km, some 330 times the
#: paper's 30 km.  There the transit phase ``omega n L / c`` of a 75 kHz
#: sweep point, 2.3e4 rad, has a float spacing of 4e-12 rad; on far
#: longer loops it loses all precision (at 1e20 m the spacing is 32 rad).
MAX_LOOP_LENGTH_M = 1e7

#: Highest refractive index the simulator takes, some three times
#: silicon's 3.48 at 1550 nm: the transit phase then keeps the precision
#: ``MAX_LOOP_LENGTH_M`` gives it to within a factor of 7.
MAX_REFRACTIVE_INDEX = 10.0


def omega_from_wavelength(wavelength_m: float) -> float:
    """Angular optical frequency (rad/s) for a vacuum wavelength."""
    if wavelength_m <= 0:
        raise ValueError(f"wavelength_m must be positive, got {wavelength_m}")
    return 2.0 * math.pi * C_VACUUM / wavelength_m


@dataclass(frozen=True)
class SpectralPacket(Checked):
    """Gaussian spectral probe.

    ``omega0`` is the central angular frequency and ``sigma`` the spectral
    standard deviation, both in rad/s.  ``sigma = 0`` is the exact
    monochromatic limit (the spectral envelope factor becomes exactly 1, no
    epsilon guards anywhere).
    """

    omega0: float = positive()
    sigma: float = non_negative(0.0)

    @classmethod
    def from_wavelength(cls, wavelength_m: float = DEFAULT_WAVELENGTH_M,
                        sigma: float = 0.0) -> "SpectralPacket":
        return cls(omega0=omega_from_wavelength(wavelength_m), sigma=sigma)


@dataclass(frozen=True)
class LoopChannel(Checked):
    """Physical state of the fiber loop.

    ``intrinsic_delay_s`` is the birefringence group delay between the two
    polarization components over one pass; a standing weight's shift is
    added to it where WM reads it (:mod:`sagnacsim.wm`).
    ``bias_phase_rad`` is the global phase difference between the two
    propagation directions set by the modulators.
    """

    length_m: float = within(0, MAX_LOOP_LENGTH_M, ends="(]")
    refractive_index: float = within(1, MAX_REFRACTIVE_INDEX, 1.468)
    intrinsic_delay_s: float = non_negative(0.0)
    bias_phase_rad: float = 0.0
    loss_db: float = non_negative(0.0)


def spectral_envelope(packet: SpectralPacket, tau_s: float) -> float:
    """The packet's spectral envelope ``exp(-(sigma tau)**2)`` at the
    birefringence delay ``tau_s``: exactly 1 for ``sigma = 0``, and exactly
    0 once ``(sigma tau)**2`` leaves the float range, where the true value
    has long since underflowed (from ``sigma |tau|`` of about 27.3 on)."""
    spread = packet.sigma * tau_s
    return math.exp(-(spread * spread))


def port_powers(tau_s: float, packet: SpectralPacket, angle_rad: float,
                bias_phase_rad: float, scale: float) -> tuple[float, float]:
    """Reflected and transmitted port outputs after path and polarization
    post-selection.

    With global phase difference ``d``, birefringence delay ``tau``,
    ``phi = omega0 * tau`` and analyzer angle ``eps``::

        S   = 1 - exp(-(sigma*tau)^2) * cos(2*(phi - eps))
        P_R = scale * (1 + cos d)/4 * S
        P_T = scale * (1 - cos d)/4 * S

    ``scale = 1`` gives per-photon probabilities; an input power gives
    output powers.
    """
    phi = packet.omega0 * tau_s
    spectral = 1.0 - spectral_envelope(packet, tau_s) * math.cos(
        2.0 * (phi - angle_rad))
    cos_d = math.cos(bias_phase_rad)
    return (0.25 * scale * (1.0 + cos_d) * spectral,
            0.25 * scale * (1.0 - cos_d) * spectral)
