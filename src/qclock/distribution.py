"""Normalized distribution of emergent spin orientations.

A particle leaving the rotator after transit time t carries spin azimuth
phi = 2*omega*t, so an arrival-time density maps directly onto an angular
density on [0, 2*pi].  The density itself is set by the chosen scheme:
the modulus of the full exit-point current, the modulus of its
spin-independent part only, or a semiclassical delta at the packet peak's
rotation angle (never tabulated; measurement consumes it in closed form).
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from .current import exit_current_grid
from .errors import (AmbiguousPeakError, DegenerateDistributionError,
                     UnsupportedSchemeError, ValidationError)
from .quadrature import QuadratureSpec, integrate, integrate_full
from .wavepacket import PhysicsConfig, width

TWO_PI = 2.0 * math.pi

#: Bracket width, rad, below which the peak search stops refining.
_PEAK_XTOL = 1e-12

#: Evenly spaced density evaluations per peak-bracket refinement round.
_PEAK_POINTS = 65

#: Finite horizon (in units of 2*pi) for estimating the discarded mass at
#: rotation angles beyond one full turn.
_TAIL_HORIZON_TURNS = 4.0

_TAIL_WARN_LEVEL = 1e-6

#: Points of the uniform part of the plot grid.
_GRID_POINTS = 4096


class ArrivalScheme(enum.Enum):
    """How the arrival-time density is obtained from the exit-point current."""

    MODULUS_TOTAL_CURRENT = "modulus-total-current"
    MODULUS_SCHRODINGER_CURRENT = "modulus-schrodinger-current"
    SEMICLASSICAL_DELTA = "semiclassical-delta"

    @classmethod
    def from_name(cls, name: str) -> "ArrivalScheme":
        for scheme in cls:
            if scheme.value == name:
                return scheme
        choices = ", ".join(s.value for s in cls)
        raise ValidationError(f"unknown scheme {name!r}; choose one of: {choices}")


@dataclass(frozen=True, eq=False)
class AngularDistribution:
    """Normalized angular density on [0, 2*pi], tabulated on first read.

    ``density_fn`` is the continuous normalized density used by every
    downstream integral; ``norm_constant`` is the unnormalized total that
    was divided out; ``nodes`` holds the accepted abscissas of that
    normalization pass; ``quad`` is the spec it was built with, which
    every observable reuses.

    Three attributes are computed on first read and then kept, so a
    caller that only measures never pays for them: ``grid``/``density``
    hold the plot-ready tabulation (uniform output grid merged with
    ``nodes``, so spikes stay resolved), and ``norm_check`` re-integrates
    the normalized density at a higher panel order as an independent
    self-test.  A ``ConvergenceError`` of that self-test therefore
    surfaces on first read of ``norm_check``, and a density that dips
    below zero, or is not finite, only between the nodes raises
    ``ValidationError`` on first read of ``density``.
    """

    density_fn: Callable[[np.ndarray], np.ndarray]
    norm_constant: float
    nodes: np.ndarray
    quad: QuadratureSpec
    split_hints: tuple
    truncated_tail_mass: float
    meta: Mapping[str, str]

    @classmethod
    def from_density(cls, fn: Callable[[np.ndarray], np.ndarray],
                     quad: QuadratureSpec | None = None,
                     split_hints=(),
                     meta: Optional[Mapping[str, str]] = None
                     ) -> "AngularDistribution":
        """Normalize an arbitrary nonnegative vectorized density on [0, 2*pi].

        Runs the normalization pass only; any negative value it evaluates
        raises ``ValidationError``.  ``split_hints`` must *bracket* any
        feature much narrower than the domain, not merely mark it: panels
        whose nodes all miss a spike evaluate to zero and get accepted as
        converged.  Use a ladder of points on both flanks (see
        ``bracketing_hints``).
        """
        quad = quad or QuadratureSpec()
        hints = tuple(split_hints)

        def nonnegative(phi):
            values = np.asarray(fn(phi))
            _check_nonnegative(values)
            return values

        total = integrate_full(nonnegative, 0.0, TWO_PI, quad, hints,
                               keep_nodes=True)
        if not math.isfinite(total.value) or total.value <= 0.0:
            raise DegenerateDistributionError(
                f"density integrates to {total.value!r}; nothing to normalize")
        norm = total.value

        def density_fn(phi, _fn=fn, _norm=norm):
            return np.asarray(_fn(np.asarray(phi, dtype=np.float64))) / _norm

        return cls(density_fn=density_fn, norm_constant=norm,
                   nodes=total.nodes, quad=quad, split_hints=hints,
                   truncated_tail_mass=0.0, meta=dict(meta) if meta else {})

    @cached_property
    def grid(self) -> np.ndarray:
        return np.union1d(_uniform_grid(), self.nodes)

    @cached_property
    def density(self) -> np.ndarray:
        density = self.density_fn(self.grid)
        if not np.all(np.isfinite(density)):
            raise ValidationError("density is not finite somewhere on the grid")
        _check_nonnegative(density)
        return density

    @cached_property
    def norm_check(self) -> float:
        check_spec = replace(self.quad, panel_order=self.quad.panel_order + 2)
        return integrate(self.density_fn, 0.0, TWO_PI, check_spec,
                         self.split_hints)


def _uniform_grid() -> np.ndarray:
    """The uniform part of the plot grid."""
    return np.linspace(0.0, TWO_PI, _GRID_POINTS)


def _check_nonnegative(values: np.ndarray) -> None:
    if np.any(values < 0.0):
        raise ValidationError("density is negative somewhere on the grid")


#: Flank scales (in units of the spike width) at which bracketing hints are
#: planted around a known spike; 64 widths is already flush-to-zero territory
#: for a Gaussian spike at double precision.
_BRACKET_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def bracketing_hints(center: float, width: float,
                     lo: float = 0.0, hi: float = TWO_PI) -> tuple:
    """Split points that bracket a spike of the given width at both flanks.

    Ensures the panels covering the spike core are about one width wide, so
    quadrature nodes actually land inside the feature instead of straddling
    it at panel edges.
    """
    points = [center]
    for scale in _BRACKET_SCALES:
        points.append(center - scale * width)
        points.append(center + scale * width)
    return tuple(sorted(p for p in points if lo < p < hi))


def _scheme_weight(cfg: PhysicsConfig, scheme: ArrivalScheme):
    """Unnormalized angular weight |J|(phi) as a vectorized callable."""
    two_omega = 2.0 * cfg.omega

    if scheme is ArrivalScheme.MODULUS_TOTAL_CURRENT:
        def weight(phi):
            jx, jz = exit_current_grid(cfg, np.asarray(phi) / two_omega)
            return np.hypot(jx, jz)
    elif scheme is ArrivalScheme.MODULUS_SCHRODINGER_CURRENT:
        def weight(phi):
            jx, _jz = exit_current_grid(cfg, np.asarray(phi) / two_omega)
            return np.abs(jx)
    else:
        raise UnsupportedSchemeError(
            "the semiclassical delta has no finite density; use the "
            "closed-form measurement path instead")
    return weight


def pi_of_phi(cfg: PhysicsConfig, scheme: ArrivalScheme,
              quad: QuadratureSpec | None = None) -> AngularDistribution:
    """Normalized distribution of emergent spin azimuths on [0, 2*pi].

    The quadrature is seeded with the packet peak's rotation angle so the
    first bisections bracket the spike.  Mass at angles beyond one full
    turn is discarded; a finite-horizon estimate of the discarded fraction
    is attached and a warning is emitted when it exceeds 1e-6.
    """
    quad = quad or QuadratureSpec()
    weight = _scheme_weight(cfg, scheme)
    spike_width = 2.0 * cfg.omega * width(cfg, cfg.transit_time).sigma_t / cfg.u
    hints = bracketing_hints(cfg.phi_peak, spike_width)
    meta = {
        "scheme": scheme.value,
        "sigma0_cm": repr(cfg.sigma0), "u_cm_per_s": repr(cfg.u),
        "d_cm": repr(cfg.d), "B_gauss": repr(cfg.B), "mu_erg_per_gauss": repr(cfg.mu),
        "m0_g": repr(cfg.m0), "hbar_erg_s": repr(cfg.hbar),
    }
    dist = AngularDistribution.from_density(
        weight, quad, split_hints=hints, meta=meta)
    tail = integrate(weight, TWO_PI, TWO_PI * _TAIL_HORIZON_TURNS, quad)
    tail_frac = tail / (dist.norm_constant + tail)
    if tail_frac > _TAIL_WARN_LEVEL:
        warnings.warn(
            f"discarded rotation-angle mass beyond one turn is {tail_frac:.3e} "
            f"(finite-horizon estimate); results are biased at that level",
            stacklevel=2)
    return replace(dist, truncated_tail_mass=tail_frac)


def peak_phi(dist: AngularDistribution) -> float:
    """Location of the global maximum, refined between the bracketing grid
    points by rounds of vectorized evaluation.

    Each round evaluates the density at ``_PEAK_POINTS`` evenly spaced
    points of the bracket and narrows it to the two spacings around the
    largest value, until the bracket is narrower than ``_PEAK_XTOL``.
    The bracket's midpoint is returned, so a maximum at 2*pi still gives
    an angle below 2*pi, which ``measure`` accepts.
    """
    density = dist.density
    top = float(density.max())
    if top <= 0.0:
        raise AmbiguousPeakError("density has no positive maximum")
    near = np.flatnonzero(density >= top * (1.0 - 1e-12))
    span = dist.grid[near[-1]] - dist.grid[near[0]]
    if near.size > 2 and span > 1e-6:
        raise AmbiguousPeakError(
            f"density plateaus within 1e-12 of its maximum over {span:.3e} rad")
    i = int(np.argmax(density))
    lo = dist.grid[max(i - 1, 0)]
    hi = dist.grid[min(i + 1, dist.grid.size - 1)]
    while hi - lo > _PEAK_XTOL:
        xs = np.linspace(lo, hi, _PEAK_POINTS)
        j = int(np.argmax(dist.density_fn(xs)))
        lo = xs[max(j - 1, 0)]
        hi = xs[min(j + 1, _PEAK_POINTS - 1)]
    return 0.5 * (lo + hi)


def mean_phi(dist: AngularDistribution) -> float:
    """First moment of the angular density."""
    return integrate(lambda p: p * dist.density_fn(p), 0.0, TWO_PI,
                     dist.quad, dist.split_hints)


def variance_phi(dist: AngularDistribution) -> float:
    """Central second moment of the angular density, rad^2."""
    mean = mean_phi(dist)
    return integrate(lambda p: (p - mean) ** 2 * dist.density_fn(p),
                     0.0, TWO_PI, dist.quad, dist.split_hints)


def write_distribution_csv(dist: AngularDistribution, path) -> None:
    """Two-column CSV (phi_rad, density_per_rad) with a comment header.

    Each row holds ``f"{phi:.17g},{density:.17g}"`` of one grid point, but
    only the values that differ between distributions are formatted
    fresh: the quadrature nodes and every density other than +0.0.  The
    labels of the 4096 uniform grid points are formatted on the first
    write in a process and then reused, and a +0.0 density (the kernel
    flushes most of the grid to it) is written as ``0``; a -0.0 density
    is formatted, so it still reads ``-0``.  The bytes are those of
    formatting every row.
    """
    lines = []
    for key, val in dist.meta.items():
        lines.append(f"# {key} = {val}")
    lines.append(f"# norm_check = {dist.norm_check!r}")
    lines.append(f"# truncated_tail_mass = {dist.truncated_tail_mass!r}")
    lines.append("phi_rad,density_per_rad")
    density = dist.density
    fields = np.empty((density.size, 2), dtype=object)
    fields[:, 0] = _phi_fields(dist.grid)
    fields[:, 1] = "0\n"
    fresh = (density != 0.0) | np.signbit(density)
    fields[fresh, 1] = [f"{x:.17g}\n" for x in density[fresh].tolist()]
    write_text_atomic(path, "\n".join(lines) + "\n"
                      + "".join(fields.ravel().tolist()))


@lru_cache(maxsize=1)
def _uniform_phi_labels() -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid points and their CSV fields ``f"{phi:.17g},"``."""
    uniform = _uniform_grid()
    labels = np.array([f"{x:.17g}," for x in uniform.tolist()], dtype=object)
    # every write shares these arrays
    uniform.flags.writeable = labels.flags.writeable = False
    return uniform, labels


def _phi_fields(grid: np.ndarray) -> np.ndarray:
    """``f"{phi:.17g},"`` for every grid point, reusing the uniform labels.

    A label is reused only where the grid holds exactly that uniform
    point; a -0.0 equals 0.0 but formats as ``-0``, so it is formatted.
    """
    uniform, labels = _uniform_phi_labels()
    at = np.minimum(np.searchsorted(grid, uniform), grid.size - 1)
    hit = (grid[at] == uniform) & ~np.signbit(grid[at])
    fields = np.empty(grid.size, dtype=object)
    fresh = np.ones(grid.size, dtype=bool)
    fields[at[hit]] = labels[hit]
    fresh[at[hit]] = False
    fields[fresh] = [f"{x:.17g}," for x in grid[fresh].tolist()]
    return fields


def write_text_atomic(path, text: str) -> None:
    """Write atomically: a failure never leaves a partial output file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
