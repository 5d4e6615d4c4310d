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

from ._g17 import WIDTH, format_g17
from .current import exit_current_grid
from .errors import (AmbiguousPeakError, DegenerateDistributionError,
                     UnsupportedSchemeError, ValidationError)
from .quadrature import QuadratureSpec, hint_tuple, integrate, integrate_full
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
    downstream integral.  Given exactly the nodes of the normalization
    pass's first level, it returns the values that pass computed, kept
    normalized in a read-only array, instead of calling the density
    again; a caller that writes to its result must copy it first.
    ``norm_constant`` is the unnormalized total that was divided out;
    ``nodes`` holds the accepted abscissas of that normalization pass;
    ``quad`` is the spec it was built with, which every observable reuses.

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

        Runs the normalization pass only; any negative or complex value
        it evaluates raises ``ValidationError``.  ``fn`` must be
        elementwise: a point's value may not depend on which other points
        share the call, since the quadrature evaluates many panels' nodes
        in one call.  The pass's first call, on the nodes of its hint
        panels and their first bisection, is kept divided by the norm:
        every later pass over the distribution (``measure``,
        ``density_matrix``, ``mean_phi``, ``variance_phi``) starts from
        those nodes, and ``density_fn`` returns the kept values for them,
        found by identity or else by equal values, so that their first
        level calls ``fn`` no more.  Because ``fn`` is elementwise these
        are the values it would return.  ``split_hints`` must *bracket* any
        feature much narrower than the domain, not merely mark it: panels
        whose nodes all miss a spike evaluate to zero and get accepted as
        converged.  Use a ladder of points on both flanks (see
        ``bracketing_hints``).  They are stored as a tuple of Python
        floats, the key under which every pass over this distribution
        finds its quadrature layout.
        """
        quad = quad or QuadratureSpec()
        hints = hint_tuple(split_hints)
        first_call = []

        def nonnegative(phi):
            values = np.asarray(fn(phi))
            _check_nonnegative(values)
            if not first_call:
                # fn may hand back a buffer that its next call reuses
                first_call.extend((phi, values.copy()))
            return values

        total = integrate_full(nonnegative, 0.0, TWO_PI, quad, hints,
                               keep_nodes=True)
        if not math.isfinite(total.value) or total.value <= 0.0:
            raise DegenerateDistributionError(
                f"density integrates to {total.value!r}; nothing to normalize")
        norm = total.value
        first_nodes, first_values = first_call
        first_values = first_values / norm
        first_values.flags.writeable = False

        def density_fn(phi, _fn=fn, _norm=norm):
            phi = np.asarray(phi, dtype=np.float64)
            # fn is elementwise, so these are the values it would give
            if phi is first_nodes or (phi.shape == first_nodes.shape
                                      and np.array_equal(phi, first_nodes)):
                return first_values
            return np.asarray(_fn(phi)) / _norm

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


def bracketing_hints(center: float, width: float) -> tuple:
    """Split points inside (0, 2*pi) that bracket a spike of the given width
    at both flanks.

    Ensures the panels covering the spike core are about one width wide, so
    quadrature nodes actually land inside the feature instead of straddling
    it at panel edges.
    """
    points = [center]
    for scale in _BRACKET_SCALES:
        points.append(center - scale * width)
        points.append(center + scale * width)
    return tuple(sorted(p for p in points if 0.0 < p < TWO_PI))


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

    Raises ``AmbiguousPeakError`` when the density has no positive
    maximum, plateaus at it, or peaks at the last grid point while mass
    beyond one turn was cut off (``truncated_tail_mass > 0``): that
    maximum is the edge of the cut, not a feature of the density.  A
    density given on [0, 2*pi] (``from_density``) cuts nothing off, so a
    maximum at 2*pi is a peak there.
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
    if i == density.size - 1 and dist.truncated_tail_mass > 0.0:
        raise AmbiguousPeakError(
            "density is largest at the 2*pi cut and "
            f"{dist.truncated_tail_mass:.3e} of its mass lies beyond one "
            "turn; the maximum is an edge of the cut, not a peak")
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

    Each row holds ``f"{phi:.17g},{density:.17g}"`` of one grid point.
    The body is one (rows, 50) byte array: two 24-byte fields from
    ``format_g17``, a comma and a newline, written without its NUL
    filler.  Only the values that differ between distributions are
    formatted: the quadrature nodes and every density other than +0.0.
    The labels of the 4096 uniform grid points are formatted on the
    first write in a process and then reused, and a +0.0 density (the
    kernel flushes most of the grid to it) is written as ``0``; a -0.0
    density is formatted, so it still reads ``-0``.

    ``format_g17`` is exact: its scaled digits carry an error below
    1e-14, and a value within 1e-6 of a rounding tie at the 17th digit is
    formatted by CPython instead.  The bytes are therefore those of
    formatting every row with ``%.17g``.
    """
    lines = []
    for key, val in dist.meta.items():
        lines.append(f"# {key} = {val}")
    lines.append(f"# norm_check = {dist.norm_check!r}")
    lines.append(f"# truncated_tail_mass = {dist.truncated_tail_mass!r}")
    lines.append("phi_rad,density_per_rad")
    header = ("\n".join(lines) + "\n").encode()
    # the array is freed before the NULs go, which keeps a write's peak
    # memory below that of formatting each row
    _write_atomic(path, header, _curve_body(dist).translate(None, b"\0"))


def _curve_body(dist: AngularDistribution) -> bytes:
    """The bytes of the curve body's (rows, 50) array, NUL filler included."""
    grid, density = dist.grid, dist.density
    uniform, labels = _uniform_phi_labels()
    # a label is reused only where the grid holds exactly the uniform
    # point nearest to it; a -0.0 equals 0.0 but formats as ``-0``, so it
    # is formatted
    nearest = np.rint(grid * ((_GRID_POINTS - 1) / TWO_PI)).astype(np.intp)
    fresh_phi = uniform[nearest] != grid
    fresh_phi |= np.signbit(grid)
    fresh = (density != 0.0) | np.signbit(density)
    rows = format_g17(np.concatenate((grid[fresh_phi], density[fresh])))
    split = np.count_nonzero(fresh_phi)
    body = np.zeros((grid.size, 2 * WIDTH + 2), dtype=np.uint8)
    body[:, :WIDTH] = labels.take(nearest, axis=0)
    body[fresh_phi, :WIDTH] = rows[:split]
    body[:, WIDTH] = ord(",")
    body[:, WIDTH + 1] = ord("0")
    body[fresh, WIDTH + 1:-1] = rows[split:]
    body[:, -1] = ord("\n")
    return body.tobytes()


@lru_cache(maxsize=1)
def _uniform_phi_labels() -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid points and their ``format_g17`` rows."""
    uniform = _uniform_grid()
    labels = format_g17(uniform)
    # every write shares these arrays
    uniform.flags.writeable = labels.flags.writeable = False
    return uniform, labels


def write_text_atomic(path, text: str) -> None:
    """Write atomically: a failure never leaves a partial output file."""
    _write_atomic(path, text.encode("utf-8"))


def _write_atomic(path, *chunks: bytes) -> None:
    """Write the chunks, in order, as one file, atomically."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
