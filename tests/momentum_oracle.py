"""Independent route to the first trigonometric moment, in momentum space.

For a free Gaussian packet with phi(k) = (2 s0^2/pi)^(1/4) exp(-s0^2 (k-k0)^2)
the time integral of the exit current against exp(i*Omega*t) collapses, by
the energy delta, to one integral over k:

    int J_x(d, t) exp(i Omega t) dt
        = 1/2 int phi(k) phi(k') (k + k')/k' exp(i d q/(k + k')) dk,

with k' = sqrt(k^2 + q), q = 2 m0 Omega/hbar and Omega = 2 omega; k' - k is
written as q/(k + k') so that the plain difference never cancels.  Dividing
by the net flux erfc(-sqrt(2) k0 s0)/2 - erfc(sqrt(2) k0 s0)/2 gives m1.
It integrates over all t and uses J_x alone, so it agrees with the package
wherever the mass outside one turn, the negative current and the spin term
are below the tolerance, as on the preset cells.  It shares no code with
the package: one QUADPACK integral per component.
"""

import math

from scipy.integrate import quad
from scipy.special import erfc


def momentum_m1(cfg) -> complex:
    """m1 = <exp(i*phi)> of the free packet's arrival current at x = d."""
    s0, k0, d = cfg.sigma0, cfg.m0 * cfg.u / cfg.hbar, cfg.d
    q = 2.0 * cfg.m0 * (2.0 * cfg.omega) / cfg.hbar
    amp = 0.5 * math.sqrt(2.0 * s0 * s0 / math.pi)

    def integrand(k):
        kp = math.sqrt(k * k + q)
        s = k + kp
        gauss = math.exp(-s0 * s0 * ((k - k0) ** 2 + (kp - k0) ** 2))
        phase = d * q / s
        return amp * gauss * s / kp * complex(math.cos(phase), math.sin(phase))

    # 12 widths either side: phi(k) is below exp(-144) beyond them
    value, _err = quad(integrand, k0 - 12.0 / s0, k0 + 12.0 / s0,
                       complex_func=True, epsabs=0.0, epsrel=1e-13, limit=200)
    flux = 0.5 * erfc(-math.sqrt(2.0) * k0 * s0) \
        - 0.5 * erfc(math.sqrt(2.0) * k0 * s0)
    return value / flux
