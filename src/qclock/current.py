"""Spin-augmented probability current and its exit-point specializations.

The current splits into a gradient (Schrodinger) part along x and a spin
part (grad rho x s)/m0.  For this geometry (grad rho along x, spin in the
xy-plane) the spin part points along z, so a sample stores just (jx, jz).

Two independent code paths exist on purpose: ``current_general`` assembles
the current from the amplitude, its gradient, and the Bloch vector, while
``current_at_exit`` evaluates the pre-simplified closed form at x=d.  They
must agree to roundoff; tests enforce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spin_dynamics import SpinState, bloch
from .wavepacket import PhysicsConfig, psi, rho, width

#: Density exponents below this are flushed to an exact zero.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class CurrentSample:
    """Exit-plane current decomposition: drift part jx, spin part jz."""

    jx_sch: float
    jz_spin: float
    modulus: float

    @classmethod
    def from_components(cls, jx: float, jz: float) -> "CurrentSample":
        return cls(jx_sch=jx, jz_spin=jz, modulus=math.hypot(jx, jz))


def _spin_term(cfg: PhysicsConfig, x: float, t: float, chi: SpinState):
    """(jy, jz) of the spin current (grad rho x s)/m0 at (x, t)."""
    s = bloch(chi, cfg.hbar)
    st = width(cfg, t).sigma_t
    grad_rho = -rho(cfg, x, t) * (x - cfg.u * t) / (st * st)
    # x_hat x (sx, sy, sz) = (0, -sz, sy)
    return -grad_rho * s.sz / cfg.m0, grad_rho * s.sy / cfg.m0


def current_general(cfg: PhysicsConfig, x: float, t: float,
                    chi: SpinState) -> CurrentSample:
    """Current at any point from amplitude + gradient + Bloch vector.

    Validation path, not the hot loop.  Propagates NumericRangeError from
    psi in far tails; use the exit-point forms for production sweeps.
    """
    amp = psi(cfg, x, t)
    a_t = width(cfg, t).a_t
    dlog = -(x - cfg.u * t) / (2.0 * a_t * cfg.sigma0) + 1j * cfg.k
    grad = amp * dlog
    jx = (amp.conjugate() * (-1j * cfg.hbar / cfg.m0) * grad).real
    s = bloch(chi, cfg.hbar)
    jy_spin, jz_spin = _spin_term(cfg, x, t, chi)
    sample = CurrentSample.from_components(jx, jz_spin)
    if abs(s.sz) <= 1e-12 * (0.5 * cfg.hbar):
        # in-plane spin: the y spin term must vanish with the geometry
        assert abs(jy_spin) <= 1e-14 * max(sample.modulus, 1e-300)
    return sample


def current_at_exit(cfg: PhysicsConfig, t: float) -> CurrentSample:
    """Closed-form current at the exit point x=d for the precessing packet."""
    if t < 0.0:
        raise DomainError("t must be >= 0")
    dens = rho(cfg, cfg.d, t)
    st = width(cfg, t).sigma_t
    miss = cfg.d - cfg.u * t
    denom = 4.0 * cfg.m0 * cfg.m0 * cfg.sigma0 ** 4 + cfg.hbar ** 2 * t * t
    jx = dens * (cfg.u + miss * cfg.hbar * cfg.hbar * t / denom)
    jz = dens * (cfg.hbar * -miss / (2.0 * cfg.m0 * st * st)) \
        * math.sin(2.0 * cfg.omega * t)
    return CurrentSample.from_components(jx, jz)


def current_of_phi(cfg: PhysicsConfig, phi: float) -> CurrentSample:
    """Exit-point current as a function of the spin rotation angle.

    Pure substitution t = phi/(2*omega) into the time-domain form; no
    separate phi-domain transcription exists to go out of sync.
    """
    if not 0.0 <= phi <= 2.0 * math.pi:
        raise DomainError("phi must lie in [0, 2*pi]")
    return current_at_exit(cfg, phi / (2.0 * cfg.omega))


def exit_current_grid(cfg: PhysicsConfig, t: np.ndarray):
    """Current components (jx, jz) at the exit point x=d for an array of
    times; the hot loop of every quadrature.

    jx is the spin-independent (gradient/drift) part, jz the spin part; the
    density factor is flushed to exactly 0 once its exponent drops below
    the floor, so far tails cost nothing and never go denormal.
    """
    t = np.asarray(t, dtype=np.float64)
    d, u, sigma0, hbar, m0 = cfg.d, cfg.u, cfg.sigma0, cfg.hbar, cfg.m0
    c_spread = hbar / (2.0 * m0 * sigma0 * sigma0)
    spread = c_spread * t
    sigma_t2 = (sigma0 * sigma0) * (1.0 + spread * spread)
    miss = d - u * t
    arg = -(miss * miss) / (2.0 * sigma_t2)
    dens = np.where(arg < _EXP_FLOOR, 0.0,
                    np.exp(arg) / np.sqrt(2.0 * np.pi * sigma_t2))
    denom = 4.0 * (m0 * m0) * (sigma0 * sigma0 * sigma0 * sigma0) \
        + (hbar * hbar) * (t * t)
    jx = dens * (u + miss * (hbar * hbar) * t / denom)
    jz = dens * (hbar * -miss / (2.0 * m0 * sigma_t2)) \
        * np.sin(2.0 * cfg.omega * t)
    return jx, jz
