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

The integrand may return one row, shape (n,), or k rows, shape (k, n), for
the n abscissas it is given.  A k-row integrand is integrated in one pass
over shared panels: a panel is accepted when the largest componentwise
|refined - parent| is within rel_tol of the refined component 0, and the
negligible-panel guard also reads component 0.  Component 0 must therefore
dominate the others, as a nonnegative weight w dominates w*cos and w*sin,
so that a tolerance on it bounds every component (scipy's ``quad_vec``
uses a norm over all components instead).

Each level of bisection is one integrand call, and the first two levels
share one: the initial panels, whose estimates serve only as the error
reference of their children, are evaluated in the same call as those
children.  An integral accepted at the first bisection therefore calls the
integrand once.  The integrand must be elementwise: a point's value may not
depend on which other points share the call.

The layout of those first two levels (the hint panels, their children,
their half-widths and the node array the integrand receives) depends only
on (interval, hints, order), so it is built once per key and kept in a
memo of at most 8 entries; every array in it is read-only, as is every
node array an integrand receives.  The key's hints are the
distribution's hints tuple (Python floats, normalised once when the
distribution is built); other hint iterables are converted on every call.
Deeper levels build their layouts with the same function, so one
evaluation path serves every level.

Determinism matters (output files must be byte-identical across runs), so
panels are processed breadth-first in positional order and the accepted
contributions of each component are summed in ascending position with
numpy's pairwise summation.  Each panel batch of a call keeps its own
Gauss-Legendre matrix product, because BLAS rounding depends on the shape
of the product: one product over every batch of a call would move last
bits.  No randomness, no dict-order dependence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConvergenceError, ValidationError, as_number

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
    """Tolerance and panel parameters for the adaptive integrator.

    Any real ``rel_tol`` and any integral order and depth (``bool`` aside)
    are accepted, and stored as a Python float and Python ints: the layout
    memo is keyed by ``panel_order``.
    """

    rel_tol: float = 1e-10
    panel_order: int = 16
    max_depth: int = 40

    def __post_init__(self):
        rel_tol = as_number("rel_tol", self.rel_tol)
        if not (math.isfinite(rel_tol) and rel_tol > 0.0):
            raise ValidationError("rel_tol must be a positive finite float")
        order = as_number("panel_order", self.panel_order, numbers.Integral)
        if not 8 <= order <= MAX_PANEL_ORDER:
            raise ValidationError(
                f"panel_order must be an integer in [8, {MAX_PANEL_ORDER}]")
        depth = as_number("max_depth", self.max_depth, numbers.Integral)
        if depth < 1:
            raise ValidationError("max_depth must be an integer >= 1")
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "panel_order", order)
        object.__setattr__(self, "max_depth", depth)


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """Converged integral plus diagnostics.

    ``value`` is a float for a one-row integrand and a length-k float64
    array for a k-row one.  ``error`` sums the accepted panels' largest
    componentwise child-parent differences (a conservative global bound);
    ``nodes`` holds every abscissa of the accepted leaf panels when
    requested, else None.
    """

    value: float | np.ndarray
    error: float
    n_evals: int
    n_panels: int
    nodes: Optional[np.ndarray]


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _bisect(lefts, rights):
    """The two children of every panel, in ascending position."""
    mids = 0.5 * (lefts + rights)
    child_lefts = np.empty(2 * lefts.size)
    child_rights = np.empty(2 * lefts.size)
    child_lefts[0::2], child_lefts[1::2] = lefts, mids
    child_rights[0::2], child_rights[1::2] = mids, rights
    return child_lefts, child_rights


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where one integrand call evaluates: per panel batch its half-widths
    and its (panels, order) Gauss-Legendre nodes, which are consecutive
    views of ``flat``, the array the integrand receives."""

    halves: tuple
    pts: tuple
    flat: np.ndarray


def _layout(order, *batches):
    """The layout of one call over one or more (lefts, rights) batches."""
    x, _w = _gauss_legendre(order)
    flat = np.empty(sum(lefts.size for lefts, _rights in batches) * order)
    halves, pts = [], []
    start = 0
    for lefts, rights in batches:
        half = 0.5 * (rights - lefts)
        p = flat[start:start + half.size * order].reshape(half.size, order)
        np.add((0.5 * (rights + lefts))[:, None], half[:, None] * x[None, :],
               out=p)
        halves.append(half)
        pts.append(p)
        start += p.size
    flat.flags.writeable = False  # what the integrand receives
    return _Layout(tuple(halves), tuple(pts), flat)


@lru_cache(maxsize=8)
def _first_levels(a, b, hints, order):
    """The hint panels, their children and the layout of the call that
    evaluates both, for one (interval, hints, order); every array is
    read-only, since later passes share it.

    A distribution reuses at most three keys (its hinted interval, the
    tail interval and the order+2 norm check), so a few entries suffice;
    a preset cell's entry takes about 10 KB.
    """
    edges = [a]
    for h in sorted(set(hints)):
        if a < h < b and h > edges[-1]:
            edges.append(h)
    edges.append(b)
    lefts = np.asarray(edges[:-1], dtype=np.float64)
    rights = np.asarray(edges[1:], dtype=np.float64)
    child_lefts, child_rights = _bisect(lefts, rights)
    layout = _layout(order, (lefts, rights), (child_lefts, child_rights))
    for arr in (lefts, rights, child_lefts, child_rights, *layout.halves,
                *layout.pts):
        arr.flags.writeable = False
    return lefts, rights, child_lefts, child_rights, layout


def hint_tuple(split_hints: Iterable[float]) -> tuple:
    """``split_hints`` as a tuple of Python floats, returned as it is when
    it already is one; ``ValidationError`` for a hint that is no number."""
    if type(split_hints) is tuple and all(type(h) is float
                                          for h in split_hints):
        return split_hints
    try:
        return tuple(float(h) for h in split_hints)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"split_hints must be an iterable of real numbers: {exc}") from None


def _panel_values(f, order, layout):
    """Gauss-Legendre estimates for every panel batch of ``layout``, from
    one call of f on ``layout.flat``.

    Returns one estimate array of shape (k, panels) per batch, and whether
    f returned k rows rather than one.  Each batch gets its own
    ``vals @ w`` (see the module docstring).
    """
    _x, w = _gauss_legendre(order)
    n = layout.flat.size
    raw = np.asarray(f(layout.flat))
    if raw.dtype != np.float64:
        if np.iscomplexobj(raw):
            raise ValidationError(
                f"integrand must return real values; got dtype {raw.dtype}")
        try:
            raw = raw.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"integrand must return real numbers; got dtype {raw.dtype} "
                f"({exc})") from None
    if raw.ndim not in (1, 2) or raw.shape[-1] != n:
        raise ValidationError(
            f"integrand must return shape (n,) or (k, n) for n={n} "
            f"points; got {raw.shape}")
    if not np.isfinite(raw).all():
        finite = np.isfinite(raw).reshape(-1, n).all(axis=0)
        bad = layout.flat[~finite][0]
        raise ValidationError(f"integrand returned a non-finite value near x={bad!r}")
    estimates = []
    start = 0
    for half, p in zip(layout.halves, layout.pts):
        vals = raw[..., start:start + p.size].reshape(-1, order)
        estimates.append(half * (vals @ w).reshape(-1, half.size))
        start += p.size
    return estimates, raw.ndim == 2


def integrate_full(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   spec: QuadratureSpec | None = None,
                   split_hints: Iterable[float] = (),
                   keep_nodes: bool = False) -> QuadratureResult:
    """Integrate a vectorized f over [a, b] with full diagnostics.

    f maps n abscissas to shape (n,) or (k, n) of real values; in the
    second case row 0 must dominate the others (see the module
    docstring), and ``value`` is a length-k array.  f must be elementwise:
    a point's value may not depend on which other points share the call,
    because the initial panels and their first bisection are evaluated in
    one call, and every later level in one call of its own.  An integral
    accepted at depth d therefore calls f d times.  The abscissa array f
    receives is read-only.
    Each panel batch keeps its own matrix product, since BLAS rounding
    depends on the batch.  ``split_hints`` lists interior abscissas (e.g. a
    known spike location) at which the interval is pre-split before any
    adaptivity runs; a tuple of Python floats is used as it is, and any
    other iterable is converted on every call.

    Raises ConvergenceError when panels remain unconverged at max_depth, or
    when more than MAX_LIVE_PANELS of them remain after any level; the
    exception carries the best estimate and the achieved error bound.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError("need finite bounds with a < b")
    order = spec.panel_order

    lefts, rights, child_lefts, child_rights, first = _first_levels(
        float(a), float(b), hint_tuple(split_hints), order)
    (parent_vals, child_vals), rows = _panel_values(f, order, first)
    child_pts = first.pts[1]
    n_evals = first.flat.size

    acc_pos: list[np.ndarray] = []
    acc_val: list[np.ndarray] = []
    acc_err = 0.0
    acc_abs = 0.0
    acc_nodes: list[np.ndarray] = []
    n_panels = 0

    for depth in range(1, spec.max_depth + 1):
        if depth > 1:
            child_lefts, child_rights = _bisect(lefts, rights)
            layout = _layout(order, (child_lefts, child_rights))
            (child_vals,), _ = _panel_values(f, order, layout)
            child_pts = layout.pts[0]
            n_evals += layout.flat.size

        refined = child_vals[:, 0::2] + child_vals[:, 1::2]
        abs_refined = np.abs(refined[0])
        err = np.abs(refined - parent_vals).max(axis=0)
        ok = err <= np.maximum(spec.rel_tol * abs_refined, ABS_FLOOR)
        all_ok = bool(ok.all())
        if not all_ok:
            # negligible-contribution share of the global tolerance budget,
            # from the absolute mass collected so far plus this level's view
            share = spec.rel_tol * (acc_abs + float(abs_refined.sum())) \
                / max(abs_refined.size, 1)
            ok |= (abs_refined <= share) & (np.abs(parent_vals[0]) <= share)
            all_ok = bool(ok.all())

        if all_ok:
            acc_pos.append(lefts)
            acc_val.append(refined)
            acc_err += float(err.sum())
            n_panels += lefts.size
            if keep_nodes:
                acc_nodes.append(child_pts.ravel())
            break
        if np.any(ok):
            acc_pos.append(lefts[ok])
            acc_val.append(refined[:, ok])
            acc_err += float(err[ok].sum())
            acc_abs += float(abs_refined[ok].sum())
            n_panels += int(ok.sum())
            if keep_nodes:
                acc_nodes.append(child_pts[np.repeat(ok, 2)].ravel())
        bad = ~ok
        pair_bad = np.repeat(bad, 2)
        lefts = child_lefts[pair_bad]
        rights = child_rights[pair_bad]
        parent_vals = child_vals[:, pair_bad]
        if depth == spec.max_depth or lefts.size > MAX_LIVE_PANELS:
            best = _ordered_sum(acc_pos + [lefts], acc_val + [parent_vals],
                                rows)
            residual = acc_err + float(err[bad].sum())
            raise ConvergenceError(
                f"{int(bad.sum())} panels still unconverged at depth {depth} "
                f"(max_depth={spec.max_depth}, at most {MAX_LIVE_PANELS} "
                f"live panels; best estimate {best!r})",
                best_estimate=best, error_estimate=residual)

    value = _ordered_sum(acc_pos, acc_val, rows)
    nodes = np.sort(np.concatenate(acc_nodes)) if keep_nodes and acc_nodes else \
        (np.empty(0) if keep_nodes else None)
    return QuadratureResult(value=value, error=acc_err, n_evals=n_evals,
                            n_panels=n_panels, nodes=nodes)


def _ordered_sum(pos_chunks, val_chunks, rows):
    """Sum each component's panel contributions in ascending panel position
    (pairwise, over a contiguous 1-D array); a float unless ``rows``.

    Each chunk holds one level's panels, already in ascending position, so
    a single chunk is summed as it is."""
    if len(val_chunks) == 1:
        val = val_chunks[0]
    else:
        order = np.argsort(np.concatenate(pos_chunks), kind="stable")
        val = np.concatenate(val_chunks, axis=1)[:, order]
    # one reduction over C-contiguous rows sums each row as np.sum would;
    # over Fortran-ordered rows (from column indexing) it would not
    sums = np.ascontiguousarray(val).sum(axis=1)
    return sums if rows else float(sums[0])


def integrate(f, a, b, spec: QuadratureSpec | None = None,
              split_hints: Iterable[float] = ()) -> float | np.ndarray:
    """Adaptive integral of a vectorized f over [a, b]; value only.

    A float when f returns shape (n,); a length-k array when it returns
    (k, n), with row 0 dominating the others (see ``integrate_full``).
    """
    return integrate_full(f, a, b, spec, split_hints).value
