"""The peak of a ``pi_of_phi`` distribution, bracketed on its plot grid.

``qclock.peak_phi`` brackets the maximum on the normalization pass's
first-level values.  This copy keeps the earlier route: the largest
value of the 4.6k-point tabulation ``grid``/``density``, the same
plateau rule on those values, a refusal when that value is at the last
grid point (2*pi) while mass beyond one turn was cut off, and the root
of the log-slope between the value's grid neighbours.  The two brackets
hold the same root, so the peaks agree to a few ulp and the errors are
of one class.
"""

import numpy as np

from qclock.distribution import _BELOW_TWO_PI, _slope_root
from qclock.errors import AmbiguousPeakError


def grid_peak(dist):
    """The peak of ``dist``, which has a ``log_slope``, bracketed by the
    grid neighbours of the largest tabulated value."""
    grid, density = dist.grid, dist.density
    top = float(density.max())
    if top <= 0.0:
        raise AmbiguousPeakError("density has no positive maximum")
    near = np.flatnonzero(density >= top * (1.0 - 1e-12))
    if near.size > 2 and grid[near[-1]] - grid[near[0]] > 1e-6:
        raise AmbiguousPeakError("density plateaus at its maximum")
    i = int(np.argmax(density))
    if i == density.size - 1 and dist.truncated_tail_mass > 0.0:
        raise AmbiguousPeakError("density is largest at the 2*pi cut")
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])
    root = _slope_root(dist.log_slope, lo, float(grid[i]), hi)
    return min(root, _BELOW_TWO_PI)
