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
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from ._g17 import WIDTH, format_g17
from .current import (exit_current_grid, exit_current_log_slope,
                      exit_current_support)
from .errors import (AmbiguousPeakError, DegenerateDistributionError,
                     QClockError, UnsupportedSchemeError, ValidationError,
                     check_type)
from .quadrature import (QuadratureResult, QuadratureSpec, _integrate_batch,
                         checked_spec, hint_tuple, integrate)
from .wavepacket import PhysicsConfig, width

TWO_PI = 2.0 * math.pi

#: Bracket width, rad, below which the peak search of a density without a
#: closed-form log-slope stops refining.
_PEAK_XTOL = 1e-12

#: Evenly spaced density evaluations per peak-bracket refinement round.
_PEAK_POINTS = 65

#: The largest double below 2*pi: a peak is kept below 2*pi, which
#: ``measure`` requires of an analyzer angle.
_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)

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

    Built by ``from_density``, for any density, or by ``pi_of_phi``, for
    the exit current; both construct it in one step, after one shared
    normalization pass, and only ``from_density`` checks the density's
    values for sign and shape.  ``density_fn`` is the continuous
    normalized density used by every downstream integral.  That pass
    keeps one read-only record of its first level, ``_first_level``:
    its layout (``_integrate_batch``'s six arrays, the nodes last) and
    the rows [w, w*cos, w*sin] of the normalized density w at those
    nodes.  Every later pass over [0, 2*pi] at ``quad`` (``first_moment``,
    ``mean_phi``, ``variance_phi``) is given that layout and its
    integrand's values there, computed from the rows, so its first level
    calls the density no more.  ``peak_phi`` brackets the maximum of a
    distribution with a ``log_slope`` on row 0.  No observable is kept:
    each pass runs anew from the record.
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
    ``ValidationError`` on first read of ``density``.  ``grid`` and
    ``density`` are read-only, since the curve file, and ``peak_phi``
    without a ``log_slope``, read them.

    ``support`` is the interval (phi_lo, phi_hi) outside which the
    density is exactly +0.0.  ``density`` calls ``density_fn`` only on
    the grid points inside it and one grid point beyond each end, and
    fills the rest with +0.0, which are the bits ``density_fn`` would
    give there.  ``from_density`` knows no such interval and keeps the
    whole line; ``pi_of_phi`` sets it from ``exit_current_support``, and
    refuses a config whose support starts at or past 2*pi before any
    pass runs.

    ``log_slope`` is None, or a scalar function of phi with the sign of
    the density's slope, in closed form: ``pi_of_phi`` sets it to
    d/dt ln|J| at t = phi/(2*omega).  ``peak_phi`` then finds the
    maximum as its root, with no density call and no tabulation.
    """

    density_fn: Callable[[np.ndarray], np.ndarray]
    norm_constant: float
    nodes: np.ndarray
    quad: QuadratureSpec
    split_hints: tuple
    truncated_tail_mass: float
    meta: Mapping[str, str]
    _first_level: tuple = field(repr=False)
    log_slope: Optional[Callable[[float], float]] = field(default=None,
                                                          repr=False)
    support: tuple = (-math.inf, math.inf)

    @classmethod
    def from_density(cls, fn: Callable[[np.ndarray], np.ndarray],
                     quad: QuadratureSpec | None = None,
                     split_hints=(),
                     meta: Optional[Mapping[str, str]] = None
                     ) -> "AngularDistribution":
        """Normalize an arbitrary nonnegative vectorized density on [0, 2*pi].

        Runs the normalization pass only, with the checks a user's
        density needs: any negative or complex value it evaluates, or an
        output shaped unlike its input, raises ``ValidationError``, and a
        total that is 0 or not finite ``DegenerateDistributionError``.
        ``fn`` must be
        elementwise: a point's value may not depend on which other points
        share the call, since the quadrature evaluates many panels' nodes
        in one call.  The pass's first call, on the nodes of its hint
        panels and their first bisection, is kept divided by the norm,
        with its cos and sin moment rows and the layout of those nodes:
        every later pass over the distribution (``measure``,
        ``density_matrix``, ``mean_phi``, ``variance_phi``) is given
        them, so that its first level calls ``fn`` no more.  Because
        ``fn`` is elementwise these are the values it would return.
        ``split_hints`` must *bracket* any
        feature much narrower than the domain, not merely mark it: panels
        whose nodes all miss a spike evaluate to zero and get accepted as
        converged.  Use a ladder of points on both flanks (see
        ``bracketing_hints``).  They are stored as a tuple of Python
        floats.  ``quad`` is None, for the default
        spec, or a ``QuadratureSpec``; anything else raises
        ``ValidationError``.
        """
        quad = checked_spec(quad, "quad")
        hints = hint_tuple(split_hints)

        def nonnegative(phi):
            values = np.asarray(fn(phi))
            if values.shape != phi.shape:
                raise ValidationError(
                    f"density must return one value per point, shape "
                    f"{phi.shape}; got {values.shape}")
            _check_nonnegative(values)
            # fn may hand back a buffer that its next call reuses
            return values.copy()

        (total,), (layout,), (first,) = _integrate_batch(
            nonnegative, [(0.0, TWO_PI, hints)], quad, keep_nodes=True)
        norm, nodes, first_level, density_fn = _normalized(
            fn, total, layout, first)
        return cls(density_fn=density_fn, norm_constant=norm, nodes=nodes,
                   quad=quad, split_hints=hints, truncated_tail_mass=0.0,
                   meta=dict(meta) if meta else {}, _first_level=first_level)

    @cached_property
    def grid(self) -> np.ndarray:
        # np.union1d's array: the sorted distinct values of both
        grid = np.concatenate((_uniform_grid(), self.nodes))
        grid.sort(kind="stable")  # one merge of two sorted runs
        fresh = grid[1:] != grid[:-1]
        if not fresh.all():
            grid = grid[np.concatenate(([True], fresh))]
        grid.flags.writeable = False
        return grid

    @cached_property
    def density(self) -> np.ndarray:
        grid = self.grid
        lo, hi = self.support
        # one grid point beyond each end of the support, whose value is 0
        start = max(int(np.searchsorted(grid, lo, side="left")) - 1, 0)
        stop = min(int(np.searchsorted(grid, hi, side="right")) + 1,
                   grid.size)
        values = self.density_fn(grid[start:stop])
        if not np.all(np.isfinite(values)):
            raise ValidationError("density is not finite somewhere on the grid")
        _check_nonnegative(values)
        density = np.zeros(grid.size, dtype=values.dtype)
        density[start:stop] = values
        density.flags.writeable = False
        return density

    @cached_property
    def norm_check(self) -> float:
        check_spec = replace(self.quad, panel_order=self.quad.panel_order + 2)
        return integrate(self.density_fn, 0.0, TWO_PI, check_spec,
                         self.split_hints)


@lru_cache(maxsize=1)
def _uniform_grid() -> np.ndarray:
    """The uniform part of the plot grid, read-only: every grid shares it."""
    uniform = np.linspace(0.0, TWO_PI, _GRID_POINTS)
    uniform.flags.writeable = False
    return uniform


def _moment_rows(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The rows [w, w*cos, w*sin] of the first trigonometric moment's
    integrand at ``phi``, filled in place (cos*w is w*cos to the bit)."""
    rows = np.empty((3, phi.size), dtype=np.result_type(w, phi))
    rows[0] = w
    np.multiply(np.cos(phi, out=rows[1]), w, out=rows[1])
    np.multiply(np.sin(phi, out=rows[2]), w, out=rows[2])
    return rows


def _check_nonnegative(values: np.ndarray) -> None:
    if np.any(values < 0.0):
        raise ValidationError("density is negative somewhere on the grid")


def _normalized(fn, total: QuadratureResult, layout, first_values):
    """(norm, nodes, first_level, density_fn) of a density ``fn`` from the
    result ``total`` of its normalization pass over [0, 2*pi]
    (``_integrate_batch``), the layout of the pass's first call and the
    values fn gave at that layout's nodes there.

    ``norm`` is the pass's total, ``nodes`` its accepted abscissas, and
    ``first_level`` the read-only record of its first call: ``layout``
    and the rows [w, w*cos, w*sin] of w = first_values/norm at its nodes.
    ``density_fn`` is fn/norm.  ``first_values`` is node-major, in any
    shape with one value per node.  A total that is 0 or not finite
    raises ``DegenerateDistributionError``.
    """
    norm = total.value
    if not math.isfinite(norm) or norm <= 0.0:
        raise DegenerateDistributionError(_nothing_to_normalize(norm))
    first_nodes = layout[-1]
    first_rows = _moment_rows(
        first_nodes, (first_values / norm).reshape(first_nodes.shape))
    first_rows.setflags(write=False)

    def density_fn(phi, _fn=fn, _norm=norm):
        return np.asarray(_fn(np.asarray(phi, dtype=np.float64))) / _norm

    return norm, total.nodes, (layout, first_rows), density_fn


def _nothing_to_normalize(total: float) -> str:
    return f"density integrates to {total!r}; nothing to normalize"


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


def scheme_weight(cfg: PhysicsConfig, scheme: ArrivalScheme):
    """Unnormalized angular weight |J|(phi) as a vectorized callable.

    ``UnsupportedSchemeError`` for the semiclassical delta, which has no
    density, and ``ValidationError`` for anything not an ``ArrivalScheme``.
    """
    two_omega = 2.0 * cfg.omega

    if scheme is ArrivalScheme.MODULUS_TOTAL_CURRENT:
        def weight(phi):
            jx, jz = exit_current_grid(cfg, np.asarray(phi) / two_omega)
            return np.hypot(jx, jz)
    elif scheme is ArrivalScheme.MODULUS_SCHRODINGER_CURRENT:
        def weight(phi):
            jx, _jz = exit_current_grid(cfg, np.asarray(phi) / two_omega)
            return np.abs(jx)
    elif scheme is ArrivalScheme.SEMICLASSICAL_DELTA:
        raise UnsupportedSchemeError(
            "the semiclassical delta has no finite density; use the "
            "closed-form measurement path instead")
    else:
        raise ValidationError(f"scheme must be of type ArrivalScheme, not "
                              f"{type(scheme).__name__}")
    return weight


def pi_of_phi(cfg: PhysicsConfig, scheme: ArrivalScheme,
              quad: QuadratureSpec | None = None) -> AngularDistribution:
    """Normalized distribution of emergent spin azimuths on [0, 2*pi].

    ``cfg`` must be a ``PhysicsConfig`` and ``quad`` None or a
    ``QuadratureSpec``; anything else raises ``ValidationError``, as a
    scheme that is no ``ArrivalScheme`` does (``scheme_weight``).  The
    current's support (``exit_current_support``, mapped to
    phi = 2*omega*t and kept as the distribution's ``support``) comes
    next: when it starts at or past 2*pi the weight is +0.0 on all of
    [0, 2*pi], and ``DegenerateDistributionError`` ("density integrates
    to 0.0") is raised with no kernel call or quadrature, as the
    normalization pass would raise it.

    Otherwise the normalization pass runs on the scheme's weight
    (``scheme_weight``) as it is: |J| is nonnegative or NaN by
    construction, and the quadrature refuses a NaN, so no sign check runs.
    The quadrature is seeded with the packet peak's rotation angle so the
    first bisections bracket the spike.  Mass at angles beyond one full
    turn is discarded; a finite-horizon estimate of the discarded fraction
    is attached and a warning is emitted when it exceeds 1e-6.  That
    estimate integrates the weight over [2*pi, 8*pi] only when the
    support reaches past 2*pi; otherwise the weight is +0.0 there and
    the estimate is 0.0, as the pass would give.  The
    distribution's ``log_slope`` is phi -> d/dt ln of the scheme's |J| at
    t = phi/(2*omega) (``exit_current_log_slope``, with the spin part for
    the total current); jx > 0 for t >= 0, so |jx| = jx.  The
    distribution is built once, with every field known; its first-level
    record and ``density_fn`` come from the normalization helper that
    ``from_density`` uses too.  It is built as the one cell of a ladder
    (``_ladder_parts``), as ``_distributions`` builds a whole ladder for
    ``run_table``, ``run_curve`` and ``run_compare``.
    """
    check_type("cfg", cfg, PhysicsConfig)
    scheme_weight(cfg, scheme)
    quad = checked_spec(quad, "quad")
    (part,) = _ladder_parts([(cfg, scheme)], quad)
    return _cell_distribution(cfg, scheme, quad, part, 3)


def _distributions(cells, quad: QuadratureSpec, stacklevel: int = 2):
    """The distribution of each (cfg, scheme) of ``cells`` (one or more),
    in order, as ``pi_of_phi`` builds it alone, from one batch of
    normalization passes and one of tail passes (``_ladder_parts``).

    The configs may differ in sigma0 only, as a ladder's cells do; each
    level of a batch is then one kernel call, which evaluates every
    cell's points at the cell's own sigma0 (``_ladder_weight``).  Every
    distribution has the bits that ``pi_of_phi`` gives its cell.

    A generator.  Both batches run before the first cell is yielded; a
    cell's tail warning is emitted, with ``stacklevel`` counted from
    here, when the walk reaches it.  When a batch of several cells raises
    a ``QClockError`` (a refusal or a pass's error), each cell is built
    alone instead, as ``pi_of_phi`` builds it, when the walk reaches it;
    a batch of one is not built twice.  So a ladder emits the same
    warnings and raises the same first error, in the same order, as a
    loop that calls ``pi_of_phi`` per cell and uses each cell before the
    next.  Each distribution keeps its own first-level layout, so the
    passes over a cell that follow build none, however many cells the
    ladder has.
    """
    cells = list(cells)
    try:
        parts = _ladder_parts(cells, quad)
    except QClockError:
        if len(cells) == 1:
            raise
        parts = None  # built below, so no cell error chains the batch's
    for i, (cfg, scheme) in enumerate(cells):
        part = parts[i] if parts else _ladder_parts([(cfg, scheme)], quad)[0]
        yield _cell_distribution(cfg, scheme, quad, part, stacklevel + 1)


def _cell_distribution(cfg: PhysicsConfig, scheme: ArrivalScheme,
                       quad: QuadratureSpec, part: list, stacklevel: int):
    """The distribution of the cell (cfg, scheme) from its ``part`` of
    ``_ladder_parts``; its tail warning is emitted with ``stacklevel``
    counted from here."""
    support, hints, (norm, nodes, first_level, density_fn), tail = part
    tail_frac = tail / (norm + tail)
    if tail_frac > _TAIL_WARN_LEVEL:
        warnings.warn(
            f"discarded rotation-angle mass beyond one turn is "
            f"{tail_frac:.3e} (finite-horizon estimate); results are "
            f"biased at that level", stacklevel=stacklevel)
    meta = {
        "scheme": scheme.value,
        "sigma0_cm": repr(cfg.sigma0), "u_cm_per_s": repr(cfg.u),
        "d_cm": repr(cfg.d), "B_gauss": repr(cfg.B),
        "mu_erg_per_gauss": repr(cfg.mu),
        "m0_g": repr(cfg.m0), "hbar_erg_s": repr(cfg.hbar),
    }
    return AngularDistribution(
        density_fn=density_fn, norm_constant=norm, nodes=nodes, quad=quad,
        split_hints=hints, truncated_tail_mass=tail_frac, meta=meta,
        _first_level=first_level, support=support,
        log_slope=_log_slope(cfg, scheme))


def _ladder_parts(cells, quad: QuadratureSpec) -> list:
    """Per cell of ``cells``, one or more, [support, hints, (norm, nodes,
    first_level, density_fn), tail mass] (``_cell_distribution``); the
    first error of any cell (its refusal, a pass's error or
    ``_normalized``'s) is raised."""
    parts, weights, spans = [], [], []
    for cfg, scheme in cells:
        two_omega = 2.0 * cfg.omega
        t_lo, t_hi = exit_current_support(cfg)
        support = (two_omega * t_lo, two_omega * t_hi)
        if support[0] >= TWO_PI:
            # the whole first turn lies below the support: +0.0 integrates
            # to 0.0
            raise DegenerateDistributionError(_nothing_to_normalize(0.0))
        spike_width = two_omega * width(cfg, cfg.transit_time).sigma_t / cfg.u
        hints = bracketing_hints(cfg.phi_peak, spike_width)
        weights.append(scheme_weight(cfg, scheme))
        spans.append((0.0, TWO_PI, hints))
        parts.append([support, hints, None, 0.0])
    results, layouts, firsts = _integrate_batch(
        _ladder_weight(cells, weights), spans, quad, keep_nodes=True)
    for part, weight, total, layout, first in zip(parts, weights, results,
                                                  layouts, firsts):
        part[2] = _normalized(weight, total, layout, first)
    # the cells whose support reaches past 2*pi; beyond it the weight is
    # +0.0, whose integral is 0.0
    past = [i for i, part in enumerate(parts) if part[0][1] > TWO_PI]
    if past:
        tails, _layouts, _firsts = _integrate_batch(
            _ladder_weight([cells[i] for i in past],
                           [weights[i] for i in past]),
            [(TWO_PI, TWO_PI * _TAIL_HORIZON_TURNS, ())] * len(past), quad)
        for i, tail in zip(past, tails):
            parts[i][3] = tail.value
    return parts


def _log_slope(cfg: PhysicsConfig, scheme: ArrivalScheme):
    """phi -> d/dt ln of the scheme's |J| at t = phi/(2*omega)."""
    two_omega = 2.0 * cfg.omega
    spin = scheme is ArrivalScheme.MODULUS_TOTAL_CURRENT
    return lambda phi: exit_current_log_slope(cfg, phi / two_omega, spin)


def _ladder_weight(cells, weights):
    """The weights of ``cells``, (cfg, scheme) pairs whose configs differ
    in sigma0 only, as one integrand of ``_integrate_batch``; ``weights``
    are their ``scheme_weight``s.

    For one cell it is its weight.  For several it is f(phi, owner), and
    one kernel call gives the points of each panel the current at the
    sigma0 of the cell that ``owner`` names, and |J| or |jx| by that
    cell's scheme; every operation is elementwise, so each value has the
    bits of the cell's own weight.
    """
    if len(cells) == 1:
        return weights[0]
    cfg = cells[0][0]
    two_omega = 2.0 * cfg.omega
    widths = np.array([cell_cfg.sigma0 for cell_cfg, _scheme in cells])
    total = [scheme is ArrivalScheme.MODULUS_TOTAL_CURRENT
             for _cfg, scheme in cells]
    mixed = np.array(total) if any(total) and not all(total) else None

    def weight(phi, owner):
        # node-major: column p of every row is a point of panel p
        t = (phi / two_omega).reshape(-1, owner.size)
        jx, jz = exit_current_grid(cfg, t, sigma0=widths[owner])
        if mixed is not None:  # hypot(jx, +0.0) is |jx| (C99 F.9.4.3)
            values = np.hypot(jx, np.where(mixed[owner], jz, 0.0))
        else:
            values = np.hypot(jx, jz) if total[0] else np.abs(jx)
        return values.ravel()

    return weight


def peak_phi(dist: AngularDistribution) -> float:
    """Location of the global maximum, refined between the points on
    either side of the largest of the density's known values.

    With a ``log_slope`` (every ``pi_of_phi`` distribution), the known
    values are those the normalization pass already computed: row 0 of
    ``_first_level`` at its layout's nodes.  The maximum is the root of
    that closed form between the largest value's neighbouring nodes (0 or
    2*pi beyond the first or last node), found to adjacent doubles in
    Python floats with no density call (``_slope_root``); a slope of one
    sign throughout gives the end it points to.  Neither ``grid`` nor
    ``density`` is built, and the peak's bits do not follow those of the
    density kernel's ``exp``.  Without one (``from_density``), the known
    values are the plot tabulation ``grid``/``density``, and each round
    evaluates the density at ``_PEAK_POINTS`` evenly spaced points of
    the bracket between the largest value's grid neighbours and narrows
    it to the two spacings around the largest value, until the bracket
    is narrower than ``_PEAK_XTOL``; the bracket's midpoint is returned.
    Either way a maximum at 2*pi gives an angle below 2*pi, which
    ``measure`` accepts.

    Raises ``AmbiguousPeakError`` when the known values have no positive
    maximum, or three or more lie within 1e-12 of it over more than
    1e-6 rad (a plateau), or the maximum is at 2*pi while mass beyond
    one turn was cut off (``truncated_tail_mass > 0``): that maximum is
    the edge of the cut, not a feature of the density.  With a
    ``log_slope`` that is a root at 2*pi; without one, the largest value
    at the last grid point.  A density given on [0, 2*pi]
    (``from_density``) cuts nothing off, so a maximum at 2*pi is a peak
    there.  A ``dist`` that is not an ``AngularDistribution`` raises
    ``ValidationError``.
    """
    check_type("dist", dist, AngularDistribution)
    if dist.log_slope is None:
        points, values = dist.grid, dist.density
    else:
        layout, rows = dist._first_level
        points, values = layout[-1], rows[0]
    i = int(np.argmax(values))
    top = float(values[i])
    if top <= 0.0:
        raise AmbiguousPeakError("density has no positive maximum")
    near = points[values >= top * (1.0 - 1e-12)]
    span = near.max() - near.min()
    if near.size > 2 and span > 1e-6:
        raise AmbiguousPeakError(
            f"density plateaus within 1e-12 of its maximum over {span:.3e} rad")
    # the grid is sorted, but the first level interleaves the hint panels'
    # nodes with their children's: neighbours by value, without a sort
    x = float(points[i])
    lo = float(points[points < x].max(initial=0.0))
    hi = float(points[points > x].min(initial=TWO_PI))
    if dist.log_slope is not None:
        root = _slope_root(dist.log_slope, lo, x, hi)
        if root == TWO_PI:
            _refuse_cut_edge(dist)
        return min(root, _BELOW_TWO_PI)
    if x == TWO_PI:  # the last grid point
        _refuse_cut_edge(dist)
    while hi - lo > _PEAK_XTOL:
        xs = np.linspace(lo, hi, _PEAK_POINTS)
        j = int(np.argmax(dist.density_fn(xs)))
        lo = xs[max(j - 1, 0)]
        hi = xs[min(j + 1, _PEAK_POINTS - 1)]
    return float(0.5 * (lo + hi))


def _refuse_cut_edge(dist: AngularDistribution) -> None:
    """``AmbiguousPeakError`` if mass beyond one turn was cut off, so that
    a maximum at 2*pi is the edge of the cut."""
    if dist.truncated_tail_mass > 0.0:
        raise AmbiguousPeakError(
            "density is largest at the 2*pi cut and "
            f"{dist.truncated_tail_mass:.3e} of its mass lies beyond one "
            "turn; the maximum is an edge of the cut, not a peak")


def _slope_root(slope: Callable[[float], float], lo: float, mid: float,
                hi: float) -> float:
    """The maximum between ``lo`` and ``hi``, the grid neighbours of the
    grid maximum ``mid``, as a root of its log-slope ``slope``.

    The sign of the slope at ``mid`` picks the half that holds the
    maximum; a half whose far end has the same sign gives that end.
    Otherwise Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    narrows the half until its ends are adjacent doubles, or the slope
    is exactly 0, and the end with the smaller |slope| is returned.  A
    falsi point that rounds onto an end moves one double inside, and two
    steps in a row that do not halve the half force a bisection.  Each
    step is deterministic float arithmetic.
    """
    s_mid = slope(mid)
    if s_mid == 0.0:
        return mid
    if s_mid > 0.0:
        a, sa, b, sb = mid, s_mid, hi, slope(hi)
        if sb >= 0.0:
            return b
    else:
        a, sa, b, sb = lo, slope(lo), mid, s_mid
        if sa <= 0.0:
            return a
    # sa > 0 > sb throughout; fa and fb are the Illinois-scaled values
    fa, fb, kept, slow = sa, sb, 0, 0
    while True:
        if slow >= 2:
            x, slow = a + 0.5 * (b - a), 0
        elif fa < -fb:
            x = a + fa * (b - a) / (fa - fb)
        else:
            x = b + fb * (b - a) / (fa - fb)
        x = min(max(x, math.nextafter(a, b)), math.nextafter(b, a))
        if not a < x < b:
            break
        before = b - a
        sx = slope(x)
        if sx == 0.0:
            return x
        if sx > 0.0:
            a, sa, fa = x, sx, sx
            if kept > 0:
                fb *= 0.5
            kept = 1
        else:
            b, sb, fb = x, sx, sx
            if kept < 0:
                fa *= 0.5
            kept = -1
        slow = slow + 1 if b - a > 0.5 * before else 0
    return a if abs(sa) <= abs(sb) else b


def first_moment(dist: AngularDistribution) -> complex:
    """m1 = C + iS, the density's average of exp(i*phi).

    One adaptive pass over the stacked integrand [w, w*cos, w*sin]: the
    density w dominates both trigonometric rows, so panels are accepted
    against the mass row and C and S share its panels and evaluations.
    The pass's first level is the normalization pass's, whose rows the
    distribution kept; so only a deeper level calls the density or
    computes cos and sin.  On the preset cells none does.  m1 itself is
    not kept: every call runs the pass.  A ``dist`` that is not an
    ``AngularDistribution`` raises ``ValidationError``.
    """
    check_type("dist", dist, AngularDistribution)
    return _first_moment(dist)


def _first_moment(dist: AngularDistribution) -> complex:
    """``first_moment`` of a ``dist`` known to be an
    ``AngularDistribution``."""
    _mass, c, s = _integral(
        dist, lambda phi: _moment_rows(phi, dist.density_fn(phi)),
        dist._first_level[1]).tolist()
    return complex(c, s)


def mean_phi(dist: AngularDistribution) -> float:
    """First moment of the angular density; ``ValidationError`` for a
    ``dist`` that is not an ``AngularDistribution``."""
    check_type("dist", dist, AngularDistribution)
    layout, rows = dist._first_level
    return _integral(dist, lambda p: p * dist.density_fn(p),
                     layout[-1] * rows[0])


def variance_phi(dist: AngularDistribution) -> float:
    """Central second moment of the angular density, rad^2; ``ValidationError``
    for a ``dist`` that is not an ``AngularDistribution``."""
    mean = mean_phi(dist)
    layout, rows = dist._first_level
    return _integral(dist, lambda p: (p - mean) ** 2 * dist.density_fn(p),
                     (layout[-1] - mean) ** 2 * rows[0])


def _integral(dist: AngularDistribution, f, first_values):
    """The integral of f over [0, 2*pi] at ``dist.quad``, on the kept
    first-level layout, where ``first_values`` are f's values (from the
    kept rows): f is called only at deeper levels."""
    layout = dist._first_level[0]
    (result,), _layouts, _firsts = _integrate_batch(
        f, [(0.0, TWO_PI, dist.split_hints)], dist.quad,
        first=(layout, first_values))
    return result.value


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
    formatting every row with ``%.17g``.  A ``dist`` that is not an
    ``AngularDistribution`` raises ``ValidationError``.
    """
    check_type("dist", dist, AngularDistribution)
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
    labels.flags.writeable = False  # every write shares it
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
