"""Spin-augmented probability current at the rotator's exit point.

The current splits into a gradient (Schrodinger) part along x and a spin
part (grad rho x s)/m0.  For this geometry (grad rho along x, spin in the
xy-plane) the spin part points along z, so the current is (jx, jz).

``exit_current_grid`` is the one production transcription: the
pre-simplified closed form at x=d over arrays of times.  The second,
independent route lives in the tests (``tests/physics_oracle.py``), which
assemble the current at any (x, t) from the amplitude, its gradient and
the Bloch vector; the two must agree to roundoff.
"""

from __future__ import annotations

import numpy as np

from .wavepacket import _EXP_FLOOR, PhysicsConfig


def exit_current_grid(cfg: PhysicsConfig, t: np.ndarray):
    """Current components (jx, jz) at the exit point x=d for an array of
    times; the hot loop of every quadrature.

    jx is the spin-independent (gradient/drift) part, jz the spin part; the
    density factor is flushed to exactly 0 once its exponent drops below
    the floor, so far tails cost nothing and never go denormal.

    The closed form is evaluated into a few reused buffers through ``out=``
    and in-place ufuncs, one operation at a time in the order and
    association of the plain expression (written above each group), so
    every result keeps its bits.  ``t`` itself is never written; a scalar
    ``t`` gives numpy scalars.
    """
    t = np.asarray(t, dtype=np.float64)
    shape = t.shape
    t = t.reshape(-1)
    d, u, sigma0, hbar, m0 = cfg.d, cfg.u, cfg.sigma0, cfg.hbar, cfg.m0
    c_spread = hbar / (2.0 * m0 * sigma0 * sigma0)
    # sigma_t2 = (sigma0 * sigma0) * (1.0 + spread * spread),
    # spread = c_spread * t
    sigma_t2 = np.multiply(c_spread, t)
    np.multiply(sigma_t2, sigma_t2, out=sigma_t2)
    np.add(1.0, sigma_t2, out=sigma_t2)
    np.multiply(sigma0 * sigma0, sigma_t2, out=sigma_t2)
    # miss = d - u * t
    miss = np.multiply(u, t)
    np.subtract(d, miss, out=miss)
    # arg = -(miss * miss) / (2.0 * sigma_t2)
    dens = np.multiply(miss, miss)
    np.negative(dens, out=dens)
    scratch = np.multiply(2.0, sigma_t2)
    np.divide(dens, scratch, out=dens)
    flush = dens < _EXP_FLOOR
    # dens = where(arg < floor, 0.0, exp(arg) / sqrt(2.0 * pi * sigma_t2))
    np.exp(dens, out=dens)
    np.multiply(2.0 * np.pi, sigma_t2, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.divide(dens, scratch, out=dens)
    np.copyto(dens, 0.0, where=flush)
    # denom = 4.0 * (m0 * m0) * (sigma0 * sigma0 * sigma0 * sigma0)
    #         + (hbar * hbar) * (t * t)
    denom = np.multiply(t, t)
    np.multiply(hbar * hbar, denom, out=denom)
    np.add(4.0 * (m0 * m0) * (sigma0 * sigma0 * sigma0 * sigma0), denom,
           out=denom)
    # jx = dens * (u + miss * (hbar * hbar) * t / denom)
    jx = np.multiply(miss, hbar * hbar)
    np.multiply(jx, t, out=jx)
    np.divide(jx, denom, out=jx)
    np.add(u, jx, out=jx)
    np.multiply(dens, jx, out=jx)
    # jz = dens * (hbar * -miss / (2.0 * m0 * sigma_t2)) * sin(2.0 * omega * t)
    jz = np.negative(miss, out=miss)
    np.multiply(hbar, jz, out=jz)
    np.multiply(2.0 * m0, sigma_t2, out=sigma_t2)
    np.divide(jz, sigma_t2, out=jz)
    np.multiply(dens, jz, out=jz)
    np.multiply(2.0 * cfg.omega, t, out=denom)
    np.sin(denom, out=denom)
    np.multiply(jz, denom, out=jz)
    return jx.reshape(shape)[()], jz.reshape(shape)[()]
