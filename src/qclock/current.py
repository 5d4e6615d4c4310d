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

``exit_current_log_slope`` is d/dt ln jx in closed form.  Since
jx = rho(d, t)*sigma0^2*(u + d*c^2*t)/sigma_t^2 with c = hbar/(2*m0*sigma0^2),
jx is positive for every t >= 0 and its log-derivative is rational in t:
the peak of the arrival density is a root found with arithmetic alone.
The spin part of the total current adds one term; it moves the root by
ulps only, but by more than the 4 ulp the tests hold the peak to.
"""

from __future__ import annotations

import math

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


def exit_current_log_slope(cfg: PhysicsConfig, t: float,
                           spin: bool = False) -> float:
    """d/dt ln jx at the exit point x=d, for a scalar time t >= 0, 1/s; with
    ``spin``, d/dt ln |J| for the whole current J = (jx, jz).

    With c = hbar/(2*m0*sigma0^2), q = c*t, w = 1 + q^2 and miss = d - u*t,

        g(t) = miss*u/(sigma0^2*w) + miss^2*c*q/(sigma0^2*w^2)
               + d*c^2/(u + d*c^2*t) - 3*c*q/w

    from the Gaussian exponent, the velocity factor and the spreading
    width, in Python floats with + - * / only: no ``exp``, ``sin`` or
    ``cos``, so its bits do not depend on a SIMD dispatch.  The spin part
    enters through r = jz/jx = -c*miss*sin(2*omega*t)/(u + d*c^2*t), as
    ln|J| = ln jx + ln(1 + r^2)/2; it needs ``math.sin`` and ``math.cos``.
    """
    d, u = cfg.d, cfg.u
    s2 = cfg.sigma0 * cfg.sigma0
    c = cfg.hbar / (2.0 * cfg.m0 * s2)
    q = c * t
    w = 1.0 + q * q
    miss = d - u * t
    dc2 = d * c * c
    drift = u + dc2 * t
    slope = (miss * u / (s2 * w) + miss * miss * c * q / (s2 * (w * w))
             + dc2 / drift - 3.0 * c * q / w)
    if spin:
        two_omega = 2.0 * cfg.omega
        sin, cos = math.sin(two_omega * t), math.cos(two_omega * t)
        r = -c * miss * sin / drift
        dr = c * (u * sin - two_omega * miss * cos
                  + miss * sin * dc2 / drift) / drift
        slope += r * dr / (1.0 + r * r)
    return slope
