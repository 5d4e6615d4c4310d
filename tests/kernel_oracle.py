"""Frozen plain-expression transcription of the exit-point current.

``qclock.exit_current_grid`` evaluates this closed form into reused
buffers, one in-place operation at a time.  This copy keeps the same
expressions as ordinary numpy arithmetic, one temporary per operation, so
a test can demand that the buffered kernel reproduces every bit of it.
Do not edit the arithmetic: its value is that it does not change.
"""

import numpy as np

_EXP_FLOOR = -700.0


def exit_current_reference(cfg, t):
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
