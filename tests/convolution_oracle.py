"""Independent route to the Stern-Gerlach probabilities for the tests.

Production computes P+- from the density's first trigonometric moment; this
helper integrates the cos^2 / sin^2 half-angle convolution directly, one
quadrature per channel, with the distribution's own spec and split hints.
"""

import numpy as np

from qclock import integrate
from qclock.distribution import TWO_PI


def convolution_probs(dist, theta):
    """(P+, P-) at analyzer azimuth theta by direct convolution."""
    def channel(half_angle_weight):
        return integrate(
            lambda phi: dist.density_fn(phi) * half_angle_weight(0.5 * (theta - phi)) ** 2,
            0.0, TWO_PI, dist.quad, dist.split_hints)
    return channel(np.cos), channel(np.sin)
