"""Free 1-D Gaussian wave-packet kinematics in CGS units.

The packet starts centered on x=0 with width ``sigma0`` and drifts with
group velocity ``u`` while spreading; the rotator occupies 0 <= x <= d.
Everything here is a pure function of (config, t).  Units are CGS
throughout: cm, g, s, erg, gauss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError, as_number, check_type

#: Reduced Planck constant, erg s (CODATA 2018, exact SI definition).
HBAR = 1.054571817e-27

#: Neutron rest mass, g (CODATA 2018).
NEUTRON_MASS = 1.67492749804e-24

#: Neutron magnetic moment magnitude, erg/gauss (CODATA 2018).
NEUTRON_MOMENT = 9.6623651e-24

#: Spin rotation (degrees) produced by the default rotator; the default
#: magnetic moment below is calibrated to hit this angle exactly.
REFERENCE_ROTATION_DEG = 34.94767

# The exit-current kernel sets the density to an exact zero where its
# exponent is below this, so far tails never go denormal; exp(-700) ~ 1e-304
# is the last comfortably normal double.
_EXP_FLOOR = -700.0


def moment_for_rotation(rotation_rad: float, d: float, u: float, B: float,
                        hbar: float = HBAR) -> float:
    """Magnetic moment that makes a (d, u, B) rotator turn spins by ``rotation_rad``.

    Inverts rotation = 2*omega*d/u with omega = mu*B/hbar.
    """
    return hbar * rotation_rad * u / (2.0 * d * B)


#: Default magnetic moment: calibrated so that d=1 cm, u=3e5 cm/s, B=10 gauss
#: rotates the spin azimuth by exactly REFERENCE_ROTATION_DEG.  Close to, but
#: deliberately not equal to, NEUTRON_MOMENT (about 0.14% below it).
CALIBRATED_MOMENT = moment_for_rotation(
    math.radians(REFERENCE_ROTATION_DEG), 1.0, 3.0e5, 10.0)


@dataclass(frozen=True)
class PhysicsConfig:
    """Physical constants plus rotator/packet parameters, one unit system.

    Defaults are the d=1 cm preset: u=3e5 cm/s, B=10 gauss, sigma0=1e-5 cm,
    with the calibrated magnetic moment.  Any real number (``bool`` aside)
    is accepted and stored as a Python float.  Construction raises
    ``ValidationError`` unless:

    - every field is finite and positive;
    - the derived k = m0*u/hbar and omega = mu*B/hbar are finite and
      positive;
    - the spreading scale 2*m0*sigma0^2 does not underflow to 0;
    - the packet fits in the rotator: its width at the exit instant stays
      below d/2.

    A valid config is not yet a distribution.  One whose packet arrives
    only after the spin has turned past 2*pi has no mass on [0, 2*pi),
    and ``pi_of_phi`` refuses it with ``DegenerateDistributionError``.
    The exit current's velocity factor has the constant 4*m0^2*sigma0^4,
    which may underflow to 0 (sigma0 below about 1e-65 cm at the neutron
    mass); at the early times where its denominator is then 0, the
    kernel's density is flushed and it gives exact zeros.
    """

    hbar: float = HBAR
    m0: float = NEUTRON_MASS
    mu: float = CALIBRATED_MOMENT
    sigma0: float = 1.0e-5
    u: float = 3.0e5
    d: float = 1.0
    B: float = 10.0

    def __post_init__(self):
        for name in ("hbar", "m0", "mu", "sigma0", "u", "d", "B"):
            value = as_number(name, getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(f"{name} must be positive")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.k) or self.k <= 0.0:
            raise ValidationError("derived wave number k = m0*u/hbar is not finite and positive")
        if not math.isfinite(self.omega) or self.omega <= 0.0:
            raise ValidationError("derived precession rate omega = mu*B/hbar is not finite and positive")
        # width() divides by this
        if 2.0 * self.m0 * self.sigma0 * self.sigma0 == 0.0:
            raise ValidationError("derived spreading scale 2*m0*sigma0^2 underflows to 0")
        exit_width = width(self, self.transit_time).sigma_t
        if not exit_width < self.d / 2.0:
            raise ValidationError(
                f"packet width at the exit instant ({exit_width:.3e} cm) must stay "
                f"below d/2 = {self.d / 2.0:.3e} cm; shorten d, raise u, or change sigma0")

    @property
    def k(self) -> float:
        """Carrier wave number m0*u/hbar, 1/cm."""
        return self.m0 * self.u / self.hbar

    @property
    def omega(self) -> float:
        """Larmor precession rate mu*B/hbar, rad/s; the azimuth advances at 2*omega."""
        return self.mu * self.B / self.hbar

    @property
    def transit_time(self) -> float:
        """Time d/u for the packet peak to cross the rotator, s."""
        return self.d / self.u

    @property
    def phi_peak(self) -> float:
        """Spin rotation 2*omega*d/u picked up by the packet peak, rad."""
        return 2.0 * self.omega * self.d / self.u


@dataclass(frozen=True)
class PacketWidth:
    """Packet width at one instant: real width sigma_t = |a_t| plus the
    complex width parameter a_t that carries the chirp phase."""

    sigma_t: float
    a_t: complex


def width(cfg: PhysicsConfig, t: float) -> PacketWidth:
    """Packet width at time t >= 0.

    a_t = sigma0*(1 + i*hbar*t/(2*m0*sigma0^2)) and sigma_t = |a_t|, so
    sigma_t^2 = sigma0^2 + (hbar*t/(2*m0*sigma0))^2 exactly.  A ``cfg``
    that is not a ``PhysicsConfig`` raises ``ValidationError``.
    """
    check_type("cfg", cfg, PhysicsConfig)
    if t < 0.0:
        raise DomainError("t must be >= 0")
    # the dimensionless spreading parameter
    s = cfg.hbar * t / (2.0 * cfg.m0 * cfg.sigma0 * cfg.sigma0)
    a_t = cfg.sigma0 * complex(1.0, s)
    return PacketWidth(sigma_t=abs(a_t), a_t=a_t)
