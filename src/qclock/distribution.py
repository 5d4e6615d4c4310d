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
    """Tabulated, normalized angular density on [0, 2*pi].

    ``grid``/``density`` hold the plot-ready tabulation (uniform output
    grid merged with the adaptive quadrature's own nodes, so spikes stay
    resolved); ``density_fn`` is the continuous normalized density used by
    every downstream integral; ``norm_constant`` is the unnormalized total
    that was divided out; ``norm_check`` re-integrates the normalized
    density at a higher panel order as an independent self-test; ``quad``
    is the spec it was built with, which every observable reuses.
    """

    grid: np.ndarray
    density: np.ndarray
    norm_check: float
    density_fn: Callable[[np.ndarray], np.ndarray]
    norm_constant: float
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

        ``split_hints`` must *bracket* any feature much narrower than the
        domain, not merely mark it: panels whose nodes all miss a spike
        evaluate to zero and get accepted as converged.  Use a ladder of
        points on both flanks (see ``bracketing_hints``).
        """
        quad = quad or QuadratureSpec()
        hints = tuple(split_hints)
        total = integrate_full(fn, 0.0, TWO_PI, quad, hints, keep_nodes=True)
        if not math.isfinite(total.value) or total.value <= 0.0:
            raise DegenerateDistributionError(
                f"density integrates to {total.value!r}; nothing to normalize")
        norm = total.value

        def density_fn(phi, _fn=fn, _norm=norm):
            return np.asarray(_fn(np.asarray(phi, dtype=np.float64))) / _norm

        grid = np.union1d(np.linspace(0.0, TWO_PI, _GRID_POINTS), total.nodes)
        density = density_fn(grid)
        if np.any(density < 0.0):
            raise ValidationError("density is negative somewhere on the grid")
        check_spec = replace(quad, panel_order=quad.panel_order + 2)
        norm_check = integrate(density_fn, 0.0, TWO_PI, check_spec, hints)
        return cls(grid=grid, density=density, norm_check=norm_check,
                   density_fn=density_fn, norm_constant=norm, quad=quad,
                   split_hints=hints, truncated_tail_mass=0.0,
                   meta=dict(meta) if meta else {})


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
    """Two-column CSV (phi_rad, density_per_rad) with a comment header."""
    lines = []
    for key, val in dist.meta.items():
        lines.append(f"# {key} = {val}")
    lines.append(f"# norm_check = {dist.norm_check!r}")
    lines.append(f"# truncated_tail_mass = {dist.truncated_tail_mass!r}")
    lines.append("phi_rad,density_per_rad")
    for phi, dens in zip(dist.grid, dist.density):
        lines.append(f"{phi:.17g},{dens:.17g}")
    write_text_atomic(path, "\n".join(lines) + "\n")


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
