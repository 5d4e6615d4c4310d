"""Spin-augmented probability current at the rotator's exit point.

The current splits into a gradient (Schrodinger) part along x and a spin
part (grad rho x s)/m0.  For this geometry (grad rho along x, spin in the
xy-plane) the spin part points along z, so the current is (jx, jz).

``exit_current_grid`` is the one production transcription: the
pre-simplified closed form at x=d, written as plain numpy expressions that
broadcast over times of any shape.  The second, independent route lives in
the tests (``tests/physics_oracle.py``), which assemble the current at any
(x, t) from the amplitude, its gradient and the Bloch vector; the two must
agree to roundoff.
"""

from __future__ import annotations

import numpy as np

from .wavepacket import _EXP_FLOOR, PhysicsConfig


def exit_current_grid(cfg: PhysicsConfig, t: np.ndarray):
    """Current components (jx, jz) at the exit point x=d for times of any
    shape; the hot loop of every quadrature.

    jx is the spin-independent (gradient/drift) part, jz the spin part; the
    density factor is set to exactly 0 once its exponent drops below the
    floor, so far tails never go denormal.  A scalar ``t`` gives numpy
    scalars.
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
