"""Deterministic adaptive Gauss-Legendre quadrature on finite intervals.

The arrival-angle densities integrated here are near-delta spikes (width
down to ~1e-5 of the domain), so a uniform rule is hopeless: the engine
bisects panels until the two half-panel estimates agree with the parent
panel to a relative tolerance, and accepts an optional list of interior
*split hints* so the first panels already bracket a known spike.

A panel is accepted when its two half-panel estimates agree with the parent
estimate to rel_tol, with two guards.  First, an absolute floor stops panels
straddling a flush-to-zero cutoff from refining forever.  Second, a panel
whose entire absolute mass is below its per-panel share of the global
tolerance budget is accepted outright: integrand evaluation noise (argument
rounding in steep exponential tails) caps the achievable per-panel relative
agreement near 1e-9, so demanding 1e-10 of a panel carrying 1e-200 of the
mass would burn the whole depth budget polishing nothing.

Determinism matters (output files must be byte-identical across runs), so
panels are processed breadth-first in positional order and the accepted
contributions are summed in ascending position with numpy's pairwise
summation.  No randomness, no dict-order dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConvergenceError, ValidationError

#: A panel is accepted when |refined - parent| <= max(rel_tol*|refined|, floor).
#: The floor keeps panels that straddle the density's flush-to-zero cutoff
#: (function values ~1e-304) from being refined forever.
ABS_FLOOR = 1e-300

#: Largest accepted panel order; the norm check runs at order + 2, and
#: leggauss needs O(order^2) memory, so an unbounded order can exhaust it.
MAX_PANEL_ORDER = 64

#: More unconverged panels than this left after any level raise a
#: ConvergenceError: a tolerance below the integrand's rounding noise would
#: otherwise double them at every level until memory runs out.  Integrals
#: that converge on the presets and on fuzzed valid configs leave at most 16.
MAX_LIVE_PANELS = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and panel parameters for the adaptive integrator."""

    rel_tol: float = 1e-10
    panel_order: int = 16
    max_depth: int = 40

    def __post_init__(self):
        if not (isinstance(self.rel_tol, float) and math.isfinite(self.rel_tol)
                and self.rel_tol > 0.0):
            raise ValidationError("rel_tol must be a positive finite float")
        if not (isinstance(self.panel_order, int)
                and 8 <= self.panel_order <= MAX_PANEL_ORDER):
            raise ValidationError(
                f"panel_order must be an integer in [8, {MAX_PANEL_ORDER}]")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 1):
            raise ValidationError("max_depth must be an integer >= 1")


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """Converged integral plus diagnostics.

    ``error`` sums the accepted child-parent differences (a conservative
    global bound); ``nodes`` holds every abscissa of the accepted leaf
    panels when requested, else None.
    """

    value: float
    error: float
    n_evals: int
    n_panels: int
    nodes: Optional[np.ndarray]


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_values(f, lefts, rights, order):
    """Gauss-Legendre estimates for a batch of panels; also returns nodes."""
    x, w = _gauss_legendre(order)
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=np.float64).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        bad = pts.ravel()[~np.isfinite(vals.ravel())][0]
        raise ValidationError(f"integrand returned a non-finite value near x={bad!r}")
    return half * (vals @ w), pts


def integrate_full(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   spec: QuadratureSpec | None = None,
                   split_hints: Iterable[float] = (),
                   keep_nodes: bool = False) -> QuadratureResult:
    """Integrate a vectorized f over [a, b] with full diagnostics.

    ``split_hints`` lists interior abscissas (e.g. a known spike location)
    at which the interval is pre-split before any adaptivity runs.

    Raises ConvergenceError when panels remain unconverged at max_depth, or
    when more than MAX_LIVE_PANELS of them remain after any level; the
    exception carries the best estimate and the achieved error bound.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError("need finite bounds with a < b")

    edges = [a]
    for h in sorted(set(float(h) for h in split_hints)):
        if a < h < b and h > edges[-1]:
            edges.append(h)
    edges.append(b)
    lefts = np.asarray(edges[:-1], dtype=np.float64)
    rights = np.asarray(edges[1:], dtype=np.float64)

    parent_vals, _ = _panel_values(f, lefts, rights, spec.panel_order)
    n_evals = lefts.size * spec.panel_order

    acc_pos: list[np.ndarray] = []
    acc_val: list[np.ndarray] = []
    acc_err = 0.0
    acc_abs = 0.0
    acc_nodes: list[np.ndarray] = []
    n_panels = 0

    for depth in range(1, spec.max_depth + 1):
        mids = 0.5 * (lefts + rights)
        child_lefts = np.empty(2 * lefts.size)
        child_rights = np.empty(2 * lefts.size)
        child_lefts[0::2], child_lefts[1::2] = lefts, mids
        child_rights[0::2], child_rights[1::2] = mids, rights
        child_vals, child_pts = _panel_values(f, child_lefts, child_rights,
                                              spec.panel_order)
        n_evals += child_lefts.size * spec.panel_order

        refined = child_vals[0::2] + child_vals[1::2]
        abs_refined = np.abs(refined)
        err = np.abs(refined - parent_vals)
        # negligible-contribution share of the global tolerance budget,
        # from the absolute mass collected so far plus this level's view
        share = spec.rel_tol * (acc_abs + float(abs_refined.sum())) \
            / max(refined.size, 1)
        negligible = (abs_refined <= share) & (np.abs(parent_vals) <= share)
        ok = (err <= np.maximum(spec.rel_tol * abs_refined, ABS_FLOOR)) \
            | negligible

        if np.any(ok):
            acc_pos.append(lefts[ok])
            acc_val.append(refined[ok])
            acc_err += float(err[ok].sum())
            acc_abs += float(abs_refined[ok].sum())
            n_panels += int(ok.sum())
            if keep_nodes:
                pair_ok = np.repeat(ok, 2)
                acc_nodes.append(child_pts[pair_ok].ravel())
        bad = ~ok
        if not np.any(bad):
            break
        pair_bad = np.repeat(bad, 2)
        lefts = child_lefts[pair_bad]
        rights = child_rights[pair_bad]
        parent_vals = child_vals[pair_bad]
        if depth == spec.max_depth or lefts.size > MAX_LIVE_PANELS:
            best = _ordered_sum(acc_pos + [lefts], acc_val + [parent_vals])
            residual = acc_err + float(err[bad].sum())
            raise ConvergenceError(
                f"{int(bad.sum())} panels still unconverged at depth {depth} "
                f"(max_depth={spec.max_depth}, at most {MAX_LIVE_PANELS} "
                f"live panels; best estimate {best!r})",
                best_estimate=best, error_estimate=residual)

    value = _ordered_sum(acc_pos, acc_val)
    nodes = np.sort(np.concatenate(acc_nodes)) if keep_nodes and acc_nodes else \
        (np.empty(0) if keep_nodes else None)
    return QuadratureResult(value=value, error=acc_err, n_evals=n_evals,
                            n_panels=n_panels, nodes=nodes)


def _ordered_sum(pos_chunks, val_chunks):
    """Sum panel contributions in ascending panel position (pairwise)."""
    if not val_chunks:
        return 0.0
    pos = np.concatenate(pos_chunks)
    val = np.concatenate(val_chunks)
    order = np.argsort(pos, kind="stable")
    return float(np.sum(val[order]))


def integrate(f, a, b, spec: QuadratureSpec | None = None,
              split_hints: Iterable[float] = ()) -> float:
    """Adaptive integral of a vectorized f over [a, b]; value only."""
    return integrate_full(f, a, b, spec, split_hints).value
