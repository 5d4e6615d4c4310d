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

Several independent integrals can run in lockstep (``_integrate_batch``;
``integrate_full`` is the batch of one): each level lays every live panel
of every integral out in one node-major call, and each integral keeps its
own panels, acceptance, negligible share and ordered sum, so its result
has the bits it has alone.  A batch succeeds whole or not at all: the
first error that ends any integral's pass ends the batch.  A sigma0
ladder's normalization passes run this way, one kernel call per level
for all its cells.

The node array a call passes to the integrand is node-major: viewed as
(order, panels), row j holds node j of every panel.  The first two levels'
layout (the hint panels, their children, and the half-widths and nodes of
the call over both) depends only on (interval, hints, order).  Every
first call holds all its hint panels, then all their children, whether
it serves one integral or several.  A batch builds the layouts of all
its integrals in one pass and returns each one's, gathered from its two
column slices of the call (its hint panels and their children), with
the integrand's values at its nodes; a later pass over the same integral
can be given that layout and its own integrand's values there, and then
calls the integrand only from the second bisection on; it takes those
values as they are, float64 of the integrand's shape, and checks only
that their estimates are finite.  Every array in a layout is read-only,
as is every node array an integrand receives.  Deeper levels build their
layouts with the same function.

Determinism matters: output files must be byte-identical across runs and
installs.  Every panel estimate is ``half * sum_j w_j*f(x_j)``, each
product rounded on its own and summed in ascending j, elementwise across
the call's panels, which rounds the same whatever the BLAS library or SIMD
level.  Panels are processed breadth-first in positional order and the
accepted contributions of each component are summed in ascending position
with numpy's pairwise summation.  No randomness, no dict-order dependence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, pairwise
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConvergenceError, ValidationError, as_number, check_type

#: A panel is accepted when |refined - parent| <= max(rel_tol*|refined|, floor).
#: The floor keeps panels that straddle the density's flush-to-zero cutoff
#: (function values ~1e-304) from being refined forever.
ABS_FLOOR = 1e-300

#: The reductions of ``ndarray.sum``, ``ndarray.all`` and ``ndarray.max``,
#: without their Python wrappers: the same results, bit for bit.
_sum, _all, _max = np.add.reduce, np.logical_and.reduce, np.maximum.reduce

try:  # ``np.count_nonzero`` of a whole array, without its Python wrapper
    from numpy._core.multiarray import count_nonzero as _count
except ImportError:  # numpy < 2
    from numpy.core.multiarray import count_nonzero as _count

#: The dtype of the values an integrand gives; numpy keeps one instance.
_FLOAT64 = np.dtype(np.float64)

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
    are accepted, and stored as a Python float and Python ints.
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


#: The spec of every pass that is given none; specs are frozen, so all
#: such passes share it.
DEFAULT_SPEC = QuadratureSpec()


def checked_spec(spec, name: str = "spec") -> QuadratureSpec:
    """``spec``, ``DEFAULT_SPEC`` for None, or ``ValidationError`` for
    anything that is not a ``QuadratureSpec``."""
    if spec is None:
        return DEFAULT_SPEC
    return check_type(name, spec, QuadratureSpec)


@dataclass(frozen=True, eq=False, init=False)
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

    def __init__(self, value, error, n_evals, n_panels, nodes):
        # one dict update, not the frozen default's setattr per field
        self.__dict__.update(value=value, error=error, n_evals=n_evals,
                             n_panels=n_panels, nodes=nodes)


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """The Gauss-Legendre nodes on [-1, 1], as a column, and weights."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x[:, None], w


def _bisect(lefts, rights):
    """The two children of every panel, in ascending position."""
    mids = 0.5 * (lefts + rights)
    child_lefts = np.empty(2 * lefts.size)
    child_rights = np.empty(2 * lefts.size)
    child_lefts[0::2], child_lefts[1::2] = lefts, mids
    child_rights[0::2], child_rights[1::2] = mids, rights
    return child_lefts, child_rights


@lru_cache(maxsize=8)
def _node_weights(order, panels):
    """The read-only weight of every node of a call over ``panels`` panels,
    laid out node-major like the nodes."""
    _x, w = _gauss_legendre(order)
    weights = np.repeat(w, panels)
    weights.flags.writeable = False
    return weights


def _layout(order, lefts, rights):
    """The half-widths of the panels [lefts, rights] and the read-only
    node-major array of their Gauss-Legendre nodes, which the integrand
    receives."""
    x, _w = _gauss_legendre(order)
    half = 0.5 * (rights - lefts)
    flat = (x * half + 0.5 * (rights + lefts)).reshape(-1)
    flat.setflags(write=False)  # what the integrand receives
    return half, flat


def _first_layouts(spans, order):
    """The layout of the joint call of ``spans``, (a, b, hints) at one
    order, and each span's own layout, from one bisection and one node
    layout over all their panels.  The joint call holds every span's
    hint panels, then all their children, as one span's call does.  Each
    span's edge arrays are read-only views of the joint ones; its
    half-widths and nodes are its own copies of its two column slices of
    the call (``_own_columns``)."""
    lefts, rights, sizes = [], [], []
    for a, b, hints in spans:
        edges = [a]
        for h in sorted(set(hints)):
            if a < h < b:
                edges.append(h)
        edges.append(b)
        lefts += edges[:-1]
        rights += edges[1:]
        sizes.append(len(edges) - 1)
    lefts, rights = np.array(lefts), np.array(rights)
    child_lefts, child_rights = _bisect(lefts, rights)
    half, flat = _layout(order, np.concatenate((lefts, child_lefts)),
                         np.concatenate((rights, child_rights)))
    joint = (lefts, rights, child_lefts, child_rights, half, flat)
    for arr in joint[:5]:
        arr.setflags(write=False)
    if len(spans) == 1:
        return joint, [joint]
    columns = flat.reshape(order, -1)
    return joint, [(lefts[p:q], rights[p:q], child_lefts[2 * p:2 * q],
                    child_rights[2 * p:2 * q],
                    _own_columns(half, p, q, lefts.size),
                    _own_columns(columns, p, q, lefts.size).ravel())
                   for p, q in pairwise([0, *accumulate(sizes)])]


def _own_columns(call, p, q, parents):
    """A read-only copy of the columns, along the last axis, of one span
    of a first call over ``parents`` hint panels, whose hint panels are
    p:q: those panels, then their children."""
    own = np.concatenate(
        (call[..., p:q], call[..., parents + 2 * p:parents + 2 * q]), -1)
    own.flags.writeable = False
    return own


def hint_tuple(split_hints: Iterable[float]) -> tuple:
    """``split_hints`` as a tuple of Python floats; ``ValidationError``
    for a hint that is no number."""
    try:
        return tuple(float(h) for h in split_hints)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"split_hints must be an iterable of real numbers: {exc}") from None


def _panel_values(values, order, half, flat):
    """``_estimates`` of the values f gave in one call, and those values
    as float64, shape (n,) or (k, n); ``ValidationError`` for values that
    are not real numbers of such a shape."""
    n = order * half.size
    raw = np.asarray(values)
    if raw.dtype is not _FLOAT64:
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
    return _estimates(raw, order, half, flat), raw


def _estimates(values, order, half, flat):
    """Gauss-Legendre estimates, shape (k, panels), of every panel of one
    call from float64 ``values``, shape (n,) or (k, n), at its node-major
    nodes ``flat``.  A value that is not finite raises
    ``ValidationError``, naming the first node where one is.

    Each estimate is ``half * sum_j w_j*f(x_j)``, summed in ascending j
    elementwise across panels (see the module docstring).  A value that
    is not finite makes its panel's estimate not finite, so the values
    are checked only when the estimates' sum is not finite.
    """
    panels = half.size
    terms = np.multiply(values, _node_weights(order, panels))
    estimates = _sum(terms.reshape(-1, order, panels), axis=1)
    np.multiply(half, estimates, out=estimates)
    # a sum is finite only where every term is
    if math.isfinite(_sum(estimates, axis=None)):
        return estimates
    finite = np.isfinite(values)
    if _all(finite, axis=None):  # finite values whose sums overflowed
        return estimates
    bad = ~finite.reshape(-1, order * panels).all(axis=0)
    x = float(flat[bad][0])
    raise ValidationError(f"integrand returned a non-finite value near x={x!r}")


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
    receives is read-only and node-major (node j of every panel, then
    node j + 1), and each panel's estimate sums its weighted values in
    ascending node order, so no BLAS kernel touches the result (see the
    module docstring).  ``split_hints`` lists interior abscissas (e.g. a
    known spike location) at which the interval is pre-split before any
    adaptivity runs; they are converted to Python floats.  ``spec`` is
    None, for ``DEFAULT_SPEC``, or a ``QuadratureSpec``; anything else
    raises ValidationError.  This is the batch of one of
    ``_integrate_batch``.

    Raises ConvergenceError when panels remain unconverged at max_depth, or
    when more than MAX_LIVE_PANELS of them remain after any level; the
    exception carries the best estimate and the achieved error bound.
    """
    spec = checked_spec(spec)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError("need finite bounds with a < b")
    return _integrate_batch(
        f, [(float(a), float(b), hint_tuple(split_hints))], spec,
        keep_nodes)[0][0]


class _Pass:
    """One integral of a batch: its index in the batch, its live parent
    panels, its integrand evaluations so far, and its accepted panels
    (their left edges, refined estimates and, when kept, nodes) with
    their count, summed error and absolute mass."""

    __slots__ = ("index", "size", "evals", "panels", "pos", "val", "nodes",
                 "err", "abs")

    def __init__(self, index, size, order):
        self.index, self.size, self.evals = index, size, 3 * order * size
        self.pos, self.val, self.nodes = [], [], []
        self.panels, self.err, self.abs = 0, 0.0, 0.0

    def accept(self, lefts, refined, nodes):
        self.panels += lefts.size
        self.pos.append(lefts)
        self.val.append(refined)
        if nodes is not None:
            self.nodes.append(nodes)

    def result(self, lefts, refined, nodes, rows):
        """The pass's ``QuadratureResult`` once its live panels, with
        left edges ``lefts``, estimates ``refined`` and, when kept,
        ``nodes``, are accepted too."""
        if nodes is not None:
            nodes = np.sort(np.concatenate([*self.nodes, nodes], axis=None))
        return QuadratureResult(
            _ordered_sum(self.pos + [lefts], self.val + [refined], rows),
            self.err, self.evals, self.panels + lefts.size, nodes)


def _integrate_batch(f, spans, spec: QuadratureSpec, keep_nodes=False,
                     first=None):
    """Integrate f over each (a, b, hints) of ``spans`` in lockstep: each
    level makes one call of f for every live panel of every integral.

    f maps the node-major abscissas x of a call as the integrand of
    ``integrate_full`` does: as f(x) for one span, and as f(x, owner) for
    several, where ``owner`` holds, for each panel of the call (each
    column of ``x.reshape(order, -1)``), the index in ``spans`` of the
    integral the panel belongs to, so that f can give each integral its
    own integrand.  f must return the same number of rows for every span.
    Each integral lays its panels out as it would alone and is accepted,
    refined and summed by ``integrate_full``'s rules on its own panels:
    the per-panel test, its own negligible share and accepted mass, and
    its own ``_ordered_sum``.  Every estimate is elementwise across
    panels, so each integral's result has the bits it has alone.

    ``first``, for one span, is (layout, values): the span's layout as
    this function returned it for an earlier pass at the same order, and
    f's values at its nodes, float64 of the shape f gives.  The first
    call then takes those values as they are and f is called only from
    the second bisection on; as f is elementwise, the result is the one
    f would give.

    Returns the lists (results, layouts, firsts), one entry per span:
    its ``QuadratureResult``; its layout, the six read-only arrays of its
    first call (its hint panels' edges, their children's, and the
    half-widths and nodes of the call over both); and the values f gave
    at that layout's nodes in the first call: f's own array for one span,
    and for several its own copy of its two column slices of the call,
    shaped (order, panels) after any leading row axis.  The first error
    that ends any integral's pass ends the batch: a ``ConvergenceError``
    (``_unconverged``), a ``ValidationError`` for a value that is
    malformed (``_panel_values``) or not finite (``_estimates``), or f's
    own exception.
    """
    order, rel_tol, max_depth = spec.panel_order, spec.rel_tol, spec.max_depth
    if first is None:
        (joint, layouts), raw = _first_layouts(spans, order), None
    else:
        (joint, raw), layouts = first, [first[0]]
    lefts, rights, child_lefts, child_rights, half, flat = joint
    live = [_Pass(i, layout[0].size, order)
            for i, layout in enumerate(layouts)]
    several = len(live) > 1
    parents = lefts.size  # the first call holds them, then their children
    if several:
        sizes = [acc.size for acc in live]
        owner = np.arange(len(live)).repeat(sizes)
        owner = np.concatenate((owner, owner.repeat(2)))
    if raw is None:
        child_vals, raw = _panel_values(f(flat, owner) if several else f(flat),
                                        order, half, flat)
    else:
        child_vals = _estimates(raw, order, half, flat)
    rows = raw.ndim == 2
    parent_vals, child_vals = child_vals[:, :parents], child_vals[:, parents:]
    if several:
        owner = owner[parents:]
        per_node = raw.reshape(raw.shape[:-1] + (order, -1))
        firsts = [_own_columns(per_node, p, q, parents)
                  for p, q in pairwise([0, *accumulate(sizes)])]
    else:
        firsts = [raw]
    results: list = [None] * len(spans)
    for depth in range(1, max_depth + 1):
        refined = child_vals[:, 0::2] + child_vals[:, 1::2]
        abs_refined = np.abs(refined[0])
        # the largest componentwise |refined - parent| of each panel
        diff = np.subtract(refined, parent_vals)
        np.abs(diff, out=diff)
        err = diff[0] if len(diff) == 1 else _max(diff, axis=0)
        tol = rel_tol * abs_refined
        ok = err <= np.maximum(tol, ABS_FLOOR, out=tol)

        # the live integrals' parents fill the level in batch order
        going, e = [], 0
        for acc in live:
            s, e = e, e + acc.size
            accepted = ok[s:e]  # a view: the guard below accepts in ok
            count = _count(accepted)
            if count < acc.size:
                # the negligible-panel guard: a panel whose refined and
                # parent masses are both within the integral's share of
                # the tolerance budget (rel_tol times the absolute mass
                # it has accepted plus this level's view, per panel)
                mass = abs_refined[s:e]
                share = rel_tol * (acc.abs + float(_sum(mass))) / acc.size
                accepted |= np.maximum(
                    mass, np.abs(parent_vals[0, s:e])) <= share
                count = _count(accepted)
            if keep_nodes:  # the children of this integral's panels
                child_pts = flat.reshape(order, -1)[
                    :, parents + 2 * s:parents + 2 * e]
            if count == acc.size:
                acc.err += float(_sum(err[s:e]))
                results[acc.index] = acc.result(
                    lefts[s:e], refined[:, s:e],
                    child_pts if keep_nodes else None, rows)
                continue
            if count:
                acc.err += float(_sum(err[s:e][accepted]))
                acc.abs += float(_sum(abs_refined[s:e][accepted]))
                acc.accept(lefts[s:e][accepted], refined[:, s:e][:, accepted],
                           child_pts[:, accepted.repeat(2)] if keep_nodes
                           else None)
            acc.size = 2 * (acc.size - count)
            if depth == max_depth or acc.size > MAX_LIVE_PANELS:
                raise _unconverged(
                    acc, ~accepted, child_lefts[2 * s:2 * e],
                    child_vals[:, 2 * s:2 * e], err[s:e], rows, depth, spec)
            acc.evals += 2 * order * acc.size
            going.append(acc)
        if not going:
            break
        # the children of the panels still live, as positions in the call,
        # are the next level's parents
        refine = (~ok).repeat(2).nonzero()[0]
        lefts, rights = child_lefts[refine], child_rights[refine]
        parent_vals = child_vals[:, refine]
        child_lefts, child_rights = _bisect(lefts, rights)
        half, flat = _layout(order, child_lefts, child_rights)
        parents = 0  # a later call holds children only
        if several:  # the owner of each child panel
            owner = owner[refine].repeat(2)
        child_vals, _raw = _panel_values(
            f(flat, owner) if several else f(flat), order, half, flat)
        live = going
    return results, layouts, firsts


def _unconverged(acc, unaccepted, child_lefts, child_vals, err, rows, depth,
                 spec) -> ConvergenceError:
    """The ``ConvergenceError`` of the pass ``acc``, whose panels
    ``unaccepted`` (with the children, estimates and errors given) remain
    unconverged at ``depth``, with its best estimate: the accepted panels
    and the unconverged panels' children."""
    pair_bad = unaccepted.repeat(2)
    best = _ordered_sum(acc.pos + [child_lefts[pair_bad]],
                        acc.val + [child_vals[:, pair_bad]], rows)
    return ConvergenceError(
        f"{acc.size // 2} panels still unconverged at depth {depth} "
        f"(max_depth={spec.max_depth}, at most {MAX_LIVE_PANELS} live "
        f"panels; best estimate {best!r})",
        best_estimate=best,
        error_estimate=acc.err + float(_sum(err[unaccepted])))


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
    sums = _sum(np.ascontiguousarray(val), axis=1)
    return sums if rows else float(sums[0])


def integrate(f, a, b, spec: QuadratureSpec | None = None,
              split_hints: Iterable[float] = ()) -> float | np.ndarray:
    """Adaptive integral of a vectorized f over [a, b]; value only.

    A float when f returns shape (n,); a length-k array when it returns
    (k, n), with row 0 dominating the others (see ``integrate_full``).
    """
    return integrate_full(f, a, b, spec, split_hints).value
