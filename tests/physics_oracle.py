"""Independent route to the packet, the spin and the current for the tests.

Production evaluates one pre-simplified closed form, the exit-point current
over arrays of times (``qclock.exit_current_grid``).  This module keeps the
general route it is checked against: the packet amplitude psi and density
rho at any (x, t), the spin-1/2 state toolkit (precession in the constant
z field, the Bloch-vector map, the analyzer states), and the current at
any point assembled from psi, its gradient and the Bloch vector.

The field only touches the spin: H = mu*sigma.B = hbar*omega*sigma_z with
omega = mu*B/hbar, so evolution is a rigid precession of the spin azimuth
at rate 2*omega.  States carry their global phase exactly as produced by
exp(-iHt/hbar); physical comparisons should go through bloch() or overlap
magnitudes, which are phase-free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from qclock import HBAR, PhysicsConfig, width
from qclock.distribution import TWO_PI
from qclock.errors import DomainError, QClockError, ValidationError
from qclock.wavepacket import _EXP_FLOOR

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_NORM_TOL = 1e-12


class NumericRangeError(QClockError, ArithmeticError):
    """A result would overflow or lose all precision in double arithmetic."""


def rho(cfg: PhysicsConfig, x: float, t: float) -> float:
    """Position probability density at (x, t); total function, tails flush to 0.

    (2*pi*sigma_t^2)^(-1/2) * exp(-(x - u*t)^2 / (2*sigma_t^2)).
    """
    if t < 0.0:
        raise DomainError("t must be >= 0")
    # sigma0*sqrt(1 + s^2), not width()'s |a_t|: psi goes through width()
    s = cfg.hbar * t / (2.0 * cfg.m0 * cfg.sigma0 * cfg.sigma0)
    st = cfg.sigma0 * math.sqrt(1.0 + s * s)
    miss = x - cfg.u * t
    arg = -(miss * miss) / (2.0 * st * st)
    if arg < _EXP_FLOOR:
        return 0.0
    return math.exp(arg) / math.sqrt(2.0 * math.pi * st * st)


def psi(cfg: PhysicsConfig, x: float, t: float) -> complex:
    """Complex packet amplitude at (x, t); |psi|^2 equals rho(x, t).

    (2*pi*a_t^2)^(-1/4) * exp(-(x-u*t)^2/(4*a_t*sigma0) + i*k*(x - u*t/2)).

    Raises NumericRangeError when the amplitude would leave the normal
    double range (far tails); callers that only need densities should use
    rho, which is underflow-safe.
    """
    if t < 0.0:
        raise DomainError("t must be >= 0")
    a_t = width(cfg, t).a_t
    miss = x - cfg.u * t
    exponent = -(miss * miss) / (4.0 * a_t * cfg.sigma0) \
        + 1j * cfg.k * (x - 0.5 * cfg.u * t)
    if exponent.real < _EXP_FLOOR:
        raise NumericRangeError(
            f"|psi| underflows at x={x!r}, t={t!r} (exponent {exponent.real:.1f}); use rho")
    value = (2.0 * math.pi * a_t * a_t) ** -0.25 * cmath.exp(exponent)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NumericRangeError(f"psi overflowed at x={x!r}, t={t!r}")
    return value


@dataclass(frozen=True)
class SpinState:
    """Two-component spinor in the z basis; ``up``/``down`` amplitudes."""

    up: complex
    down: complex

    def norm_sq(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2


@dataclass(frozen=True)
class SpinVector:
    """Spin expectation vector (hbar/2) * <sigma>, components in erg s."""

    sx: float
    sy: float
    sz: float

    def magnitude(self) -> float:
        return math.sqrt(self.sx ** 2 + self.sy ** 2 + self.sz ** 2)


def initial_state() -> SpinState:
    """The +x polarized state (|up> + |down>)/sqrt(2)."""
    return SpinState(up=complex(_SQRT_HALF), down=complex(_SQRT_HALF))


def evolve(omega: float, t: float) -> SpinState:
    """Initial +x state evolved for time t at precession rate omega.

    Returns exp(-i*omega*t)/sqrt(2) * (|up> + exp(2i*omega*t)|down>), the
    global phase kept as is.
    """
    if t < 0.0:
        raise DomainError("t must be >= 0")
    phase = cmath.exp(-1j * omega * t)
    return SpinState(up=phase * _SQRT_HALF,
                     down=phase * cmath.exp(2j * omega * t) * _SQRT_HALF)


def bloch(chi: SpinState, hbar: float = HBAR) -> SpinVector:
    """Spin vector (hbar/2) * chi^dag sigma chi of a normalized state."""
    if abs(chi.norm_sq() - 1.0) > _NORM_TOL:
        raise ValidationError(f"spin state is not normalized: |chi|^2 = {chi.norm_sq()!r}")
    cross = chi.up.conjugate() * chi.down
    half = 0.5 * hbar
    return SpinVector(sx=half * 2.0 * cross.real,
                      sy=half * 2.0 * cross.imag,
                      sz=half * (abs(chi.up) ** 2 - abs(chi.down) ** 2))


def chi_of_phi(phi: float) -> SpinState:
    """The xy-plane state at azimuth phi: (|up> + exp(i*phi)|down>)/sqrt(2).

    Coincides with evolve(omega, phi/(2*omega)) up to the global phase
    exp(-i*phi/2).  phi must lie in [0, 2*pi].
    """
    if not 0.0 <= phi <= 2.0 * math.pi:
        raise DomainError("phi must lie in [0, 2*pi]")
    return SpinState(up=complex(_SQRT_HALF),
                     down=cmath.exp(1j * phi) * _SQRT_HALF)


def overlap(a: SpinState, b: SpinState) -> complex:
    """Inner product <a|b>."""
    return a.up.conjugate() * b.up + a.down.conjugate() * b.down


def prob_plus(w: np.ndarray, theta: float) -> float:
    """Tr(W P_theta): the + channel probability of density matrix w at
    analyzer azimuth theta, from the analyzer state itself."""
    chi = chi_of_phi(theta % TWO_PI)
    vec = np.array([chi.up, chi.down])
    return float((vec.conj() @ w @ vec).real)


# The current splits into a gradient (Schrodinger) part along x and a spin
# part (grad rho x s)/m0.  For this geometry (grad rho along x, spin in the
# xy-plane) the spin part points along z, so the route returns (jx, jz) in
# the production kernel's order.

def _spin_term(cfg: PhysicsConfig, x: float, t: float, chi: SpinState):
    """(jy, jz) of the spin current (grad rho x s)/m0 at (x, t)."""
    s = bloch(chi, cfg.hbar)
    st = width(cfg, t).sigma_t
    grad_rho = -rho(cfg, x, t) * (x - cfg.u * t) / (st * st)
    # x_hat x (sx, sy, sz) = (0, -sz, sy)
    return -grad_rho * s.sz / cfg.m0, grad_rho * s.sy / cfg.m0


def current_general(cfg: PhysicsConfig, x: float, t: float,
                    chi: SpinState) -> tuple[float, float]:
    """Current (jx, jz) at any point from amplitude + gradient + Bloch vector.

    Propagates NumericRangeError from psi in far tails.
    """
    amp = psi(cfg, x, t)
    a_t = width(cfg, t).a_t
    dlog = -(x - cfg.u * t) / (2.0 * a_t * cfg.sigma0) + 1j * cfg.k
    grad = amp * dlog
    jx = (amp.conjugate() * (-1j * cfg.hbar / cfg.m0) * grad).real
    s = bloch(chi, cfg.hbar)
    jy_spin, jz_spin = _spin_term(cfg, x, t, chi)
    if abs(s.sz) <= 1e-12 * (0.5 * cfg.hbar):
        # in-plane spin: the y spin term must vanish with the geometry
        assert abs(jy_spin) <= 1e-14 * max(math.hypot(jx, jz_spin), 1e-300)
    return jx, jz_spin
