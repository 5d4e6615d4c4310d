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

``exit_current_support`` is the closed-form interval of times outside
which the kernel flushes the current to exactly 0, so that a caller can
skip evaluating it there.
"""

from __future__ import annotations

import math

import numpy as np

from .wavepacket import _EXP_FLOOR, PhysicsConfig

#: How far below ``_EXP_FLOOR`` the exponent is at the ends of
#: ``exit_current_support``, beyond the part that scales with d/sigma0.
_SUPPORT_MARGIN = 1.0

#: Exponent margin per unit of d/sigma0.  The kernel rounds d - u*t to a
#: few ulp of d, which moves an exponent near the floor by about
#: 37*eps*d/sigma_t; this covers 120 ulp.
_SUPPORT_MARGIN_PER_WIDTH = 1e-12


def exit_current_support(cfg: PhysicsConfig) -> tuple[float, float]:
    """The interval (t_lo, t_hi), in s, of times t >= 0 outside which the
    kernel's density exponent -(d - u*t)^2/(2*sigma0^2*(1 + c^2*t^2)),
    c = hbar/(2*m0*sigma0^2), is below ``_EXP_FLOOR`` by at least a
    safety margin.

    ``exit_current_grid`` therefore gives jx = 0 and jz = +-0 outside it,
    whatever its rounding.  With K = 2*L*sigma0^2 at the level L (the
    floor's magnitude plus the margin) the ends are the roots of
    (u^2 - K*c^2)*t^2 - 2*d*u*t + d^2 - K, taken as
    t_hi = (d*u + r)/(u^2 - K*c^2) and t_lo = (d^2 - K)/(d*u + r) with
    r^2 = K*(u^2 + c^2*(d^2 - K)), so that neither end cancels.  When
    u^2 <= K*c^2 the packet spreads faster than the exponent can fall and
    t_hi is inf; when d^2 <= K the exponent is above the level already at
    t = 0 and t_lo is 0.  A config whose arithmetic overflows gets
    (0, inf).  The interval always holds the transit time d/u.
    """
    d, u, sigma0 = cfg.d, cfg.u, cfg.sigma0
    c = cfg.hbar / (2.0 * cfg.m0 * sigma0 * sigma0)
    level = (-_EXP_FLOOR + _SUPPORT_MARGIN
             + _SUPPORT_MARGIN_PER_WIDTH * d / sigma0)
    k = 2.0 * level * sigma0 * sigma0
    rest = d * d - k
    disc = k * (u * u + c * c * rest)
    root = d * u + math.sqrt(disc if disc > 0.0 else 0.0)
    if not root > 0.0:  # d*u underflows
        return 0.0, math.inf
    t_lo = max(rest / root, 0.0)
    lead = u * u - k * c * c
    t_hi = root / lead if lead > 0.0 else math.inf
    if not t_lo <= t_hi:  # a NaN from overflow
        return 0.0, math.inf
    return t_lo, t_hi


def exit_current_grid(cfg: PhysicsConfig, t: np.ndarray, sigma0=None):
    """Current components (jx, jz) at the exit point x=d for times of any
    shape; the hot loop of every quadrature.

    ``sigma0`` is None, for ``cfg.sigma0``, or an array of initial widths
    that broadcasts against ``t`` and stands in for ``cfg.sigma0`` point
    by point, so that one call evaluates the cells of a sigma0 ladder
    together.  Each point's value is the one a config with its width
    would give.

    jx is the spin-independent (gradient/drift) part, jz the spin part; the
    density factor is set to exactly 0 once its exponent drops below the
    floor, so far tails never go denormal.  A scalar ``t`` gives numpy
    scalars.

    At times so late that this arithmetic overflows (past 4e141 s on the
    presets, where (hbar*t/(2*m0*sigma0^2))^2 exceeds the largest
    double), the density factor is 0, or NaN where its width overflowed;
    there a component that would be inf or NaN is an exact 0 instead, and
    no warning is emitted.  The density falls as 1/t there, and the drift
    velocity as well.  Every finite value keeps its bits, a NaN time
    still gives NaN, and an overflow where the density is not flushed (a
    spike too tall for a double) still gives inf or NaN.  Whether any time
    can reach that arithmetic is one check on the largest |t|
    (``_fits``; for an array of widths, at its smallest and largest), so
    the common case runs the closed form alone.

    The same holds at early times when the velocity factor's constant
    term 4*m0^2*sigma0^4 underflows to 0 (sigma0 below about 1e-65 cm at
    the neutron mass): where (hbar*t)^2 underflows too, its 0/0 or x/0
    is an exact 0 wherever the density is flushed, with no warning.
    """
    t = np.asarray(t, dtype=np.float64)
    reach = float(_max(np.abs(t), axis=None, initial=0.0))
    if sigma0 is None:
        sigma0 = cfg.sigma0
        fits = _fits(cfg, reach, sigma0)
    else:
        # _fits's bounds are convex in sigma0, so the two extreme widths
        # bound every width between them
        sigma0 = np.asarray(sigma0, dtype=np.float64)
        fits = (_fits(cfg, reach, float(_min(sigma0, axis=None)))
                and _fits(cfg, reach, float(_max(sigma0, axis=None))))
    if fits:
        jx, jz, _dens = _exit_current(cfg, t, sigma0)
        return jx, jz
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jx, jz, dens = _exit_current(cfg, t, sigma0)
    flushed = ~(dens > 0.0) & ~np.isnan(t)
    return (np.where(flushed & ~np.isfinite(jx), 0.0, jx)[()],
            np.where(flushed & ~np.isfinite(jz), 0.0, jz)[()])


#: Ceiling on ``_fits``'s bounds, a factor 1e8 below the largest double, so
#: that the closed form's rounding cannot carry a value under it to overflow.
_FIT_CEILING = 1e300

#: ``ndarray.max`` and ``ndarray.min`` without their Python wrappers.
_max, _min = np.maximum.reduce, np.minimum.reduce


def _fits(cfg: PhysicsConfig, reach: float, sigma0: float) -> bool:
    """Whether, at every |t| <= reach and initial width sigma0 (in place
    of ``cfg.sigma0``), each intermediate of the closed form
    that grows with |t| stays finite: the width sigma_t^2, the miss d - u*t,
    its square and that over sigma0^2, (hbar*t)^2, miss*hbar^2*t, the velocity
    and spin factors (at most |miss|*c, c = hbar/(2*m0*sigma0^2)) and the
    spin angle 2*omega*t.  False for a NaN reach, and whenever the velocity
    factor's constant 4*m0^2*sigma0^4, rounded as ``_exit_current`` rounds
    it, is 0: its denominator is then 0 wherever (hbar*t)^2 underflows."""
    d, u, hbar, m0 = cfg.d, cfg.u, cfg.hbar, cfg.m0
    if 4.0 * (m0 * m0) * (sigma0 * sigma0 * sigma0 * sigma0) == 0.0:
        return False
    c = hbar / (2.0 * m0 * sigma0 * sigma0)
    q = c * reach
    miss = d + u * reach
    scaled = miss / min(sigma0, 1.0)  # bounds miss^2 and miss^2/sigma0^2
    total = (sigma0 * sigma0 * (1.0 + q * q) * 7.0 + scaled * scaled
             + hbar * hbar * (reach * reach) + miss * (hbar * hbar) * reach
             + miss * c + cfg.omega * reach * 2.0)
    return total < _FIT_CEILING


def _exit_current(cfg: PhysicsConfig, t: np.ndarray, sigma0):
    """``exit_current_grid``'s closed form at the initial width(s)
    ``sigma0``, as it rounds and overflows, and its density factor; every
    operation is elementwise, so an array of widths gives each point the
    bits of its own width."""
    d, u, hbar, m0 = cfg.d, cfg.u, cfg.hbar, cfg.m0
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
    return jx, jz, dens


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
