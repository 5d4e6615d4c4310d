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
has the bits it has alone.  One failing integral ends only its own pass.
A sigma0 ladder's normalization passes run this way, one kernel call per
level for all its cells.

The node array a call passes to the integrand is node-major: viewed as
(order, panels), row j holds node j of every panel.  The first two levels'
layout (the hint panels, their children, and the half-widths and nodes of
the call over both) depends only on (interval, hints, order), so it is
built once per key and kept in a memo of at most 8 entries; a batch
builds the layouts of all its keys at once, and each waits until the
memo first asks for it.  Every array in a layout is read-only, as is
every node array an integrand receives.  The
key's hints are the distribution's hints tuple (Python floats, normalised
once when the distribution is built); other hint iterables are converted
on every call.  Deeper levels build their layouts with the same function.

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
from itertools import accumulate
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


#: The spec of every pass that is given none; specs are frozen, so all
#: such passes share it.
DEFAULT_SPEC = QuadratureSpec()


def checked_spec(spec, name: str = "spec") -> QuadratureSpec:
    """``spec``, ``DEFAULT_SPEC`` for None, or ``ValidationError`` for
    anything that is not a ``QuadratureSpec``."""
    if spec is None:
        return DEFAULT_SPEC
    return check_type(name, spec, QuadratureSpec)


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
    flat = np.empty(order * half.size)
    np.add(0.5 * (rights + lefts), x[:, None] * half,
           out=flat.reshape(order, half.size))
    flat.flags.writeable = False  # what the integrand receives
    return half, flat


@lru_cache(maxsize=8)
def _first_levels(a, b, hints, order):
    """The hint panels, their children, and the half-widths and nodes of
    the one call that evaluates both (parents first, then children), for
    one (interval, hints, order); every array is read-only, since later
    passes share it.  A layout that a batch built and left unclaimed
    (``_batch_first_levels``) is taken as it is, not built again.

    A distribution reuses at most three keys (its hinted interval, the
    tail interval and the order+2 norm check), so a few entries suffice;
    a preset cell's entry takes about 10 KB.
    """
    key = (a, b, hints, order)
    layout = _unclaimed.pop(key, None)
    return _build_first_levels([key])[1][0] if layout is None else layout


#: The layouts that the last batch of several keys built, until the memo
#: first asks for each: a ladder longer than the memo builds none twice.
_unclaimed: dict = {}


def _batch_first_levels(spans, order):
    """The first-level layout of each (a, b, hints) of ``spans``, and the
    layout of their joint call (their calls side by side, in order).

    A single key's layout is the memo's; several keys are built in one
    pass and left unclaimed for the memo."""
    keys = [(a, b, hints, order) for a, b, hints in spans]
    if keys.count(keys[0]) == len(keys):
        layout = _first_levels(*keys[0])
        layouts = [layout] * len(keys)
        joint = [np.concatenate([part] * len(keys)) for part in layout[:5]]
        joint.append(np.tile(layout[5].reshape(order, -1),
                             len(keys)).ravel())
        joint[5].flags.writeable = False
        return layouts, joint
    joint, layouts = _build_first_levels(keys)
    _unclaimed.clear()
    _unclaimed.update(zip(keys, layouts))
    return layouts, joint


def _build_first_levels(keys):
    """The layout of the joint call of ``keys``, (a, b, hints, order)
    sharing one order, and each key's own layout, from one bisection and
    one node layout over all their panels.  A key that recurs gets the
    layout of its first place.  Each key's arrays are read-only views of
    the joint ones, except its node array, which is its own."""
    order = keys[0][3]
    lefts, rights, sizes = [], [], []
    for a, b, hints, _order in keys:
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
    call_lefts = np.concatenate((lefts, child_lefts))
    call_rights = np.concatenate((rights, child_rights))
    if len(keys) > 1:
        bounds = [0, *accumulate(sizes)]
        spans = [*zip(bounds, bounds[1:])]
        # each key's part of the call holds its parents, then its children
        total = bounds[-1]
        index = np.concatenate([part for p, q in spans for part in (
            np.arange(p, q), np.arange(total + 2 * p, total + 2 * q))])
        call_lefts, call_rights = call_lefts[index], call_rights[index]
    half, flat = _layout(order, call_lefts, call_rights)
    joint = (lefts, rights, child_lefts, child_rights, half, flat)
    for arr in joint[:5]:
        arr.flags.writeable = False
    if len(keys) == 1:
        return joint, [joint]
    flat = flat.reshape(order, -1)
    own = {}
    for key, (p, q) in zip(keys, spans):
        if key not in own:
            nodes = flat[:, 3 * p:3 * q].ravel()
            nodes.flags.writeable = False
            own[key] = (lefts[p:q], rights[p:q], child_lefts[2 * p:2 * q],
                        child_rights[2 * p:2 * q], half[3 * p:3 * q], nodes)
    return joint, [own[key] for key in keys]


def hint_tuple(split_hints: Iterable[float]) -> tuple:
    """``split_hints`` as a tuple of Python floats, returned as it is when
    it already is one; ``ValidationError`` for a hint that is no number."""
    if type(split_hints) is tuple and set(map(type, split_hints)) <= {float}:
        return split_hints
    try:
        return tuple(float(h) for h in split_hints)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"split_hints must be an iterable of real numbers: {exc}") from None


class _NonFinite(Exception):
    """``_panel_values`` found values that are not finite: ``estimates``
    counts them as 0, ``raw`` holds them, and ``bad`` marks the points
    where some row is not finite."""

    def __init__(self, estimates, raw, bad):
        super().__init__("integrand returned a non-finite value")
        self.estimates, self.raw, self.bad = estimates, raw, bad


def _panel_values(f, order, half, flat):
    """Gauss-Legendre estimates, shape (k, panels), of every panel of one
    call of f on the node-major ``flat``, and f's values there, shape
    (n,) or (k, n); ``_NonFinite`` when a value is not finite.

    Each estimate is ``half * sum_j w_j*f(x_j)``, summed in ascending j
    elementwise across panels (see the module docstring).  A value that
    is not finite makes its panel's estimate not finite, so the values
    are checked only when the estimates' sum is not finite.
    """
    n = flat.size
    raw = np.asarray(f(flat))
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
    estimates = _estimates(raw, order, half)
    # a sum is finite only where every term is
    if math.isfinite(_sum(estimates, axis=None)):
        return estimates, raw
    finite = np.isfinite(raw)
    if _all(finite, axis=None):  # finite values whose sums overflowed
        return estimates, raw
    raise _NonFinite(_estimates(np.where(finite, raw, 0.0), order, half),
                     raw, ~finite.reshape(-1, n).all(axis=0))


def _estimates(values, order, half):
    panels = half.size
    terms = np.multiply(values, _node_weights(order, panels))
    estimates = _sum(terms.reshape(-1, order, panels), axis=1)
    return np.multiply(half, estimates, out=estimates)


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
    adaptivity runs; a tuple of Python floats is used as it is, and any
    other iterable is converted on every call.  ``spec`` is None, for
    ``DEFAULT_SPEC``, or a ``QuadratureSpec``; anything else raises
    ValidationError.  This is the batch of one of ``_integrate_batch``.

    Raises ConvergenceError when panels remain unconverged at max_depth, or
    when more than MAX_LIVE_PANELS of them remain after any level; the
    exception carries the best estimate and the achieved error bound.
    """
    spec = checked_spec(spec)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError("need finite bounds with a < b")
    return _result(_integrate_batch(
        f, [(float(a), float(b), hint_tuple(split_hints))], spec,
        keep_nodes)[0])


def _result(outcomes: list) -> QuadratureResult:
    """The result of a batch of one, popped from its ``outcomes``, or its
    error raised.  The error is popped as it is raised, so that no frame
    that its traceback holds refers to it: that would be a reference
    cycle, which only the cyclic garbage collector frees."""
    if isinstance(outcomes[-1], QuadratureResult):
        return outcomes.pop()
    raise outcomes.pop()


class _Pass:
    """One integral of a batch: its index in the batch, its live parent
    panels, its integrand evaluations so far, and its accepted panels
    (their left edges, refined estimates and, when kept, nodes) with
    their summed error and absolute mass."""

    __slots__ = ("index", "size", "evals", "pos", "val", "nodes", "err",
                 "abs")

    def __init__(self, index, size, order):
        self.index, self.size, self.evals = index, size, 3 * order * size
        self.pos, self.val, self.nodes = [], [], []
        self.err = self.abs = 0.0

    def accept(self, lefts, refined, err, nodes, abs_refined=None):
        self.pos.append(lefts)
        self.val.append(refined)
        self.err += float(_sum(err))
        if abs_refined is not None:
            self.abs += float(_sum(abs_refined))
        if nodes is not None:
            self.nodes.append(nodes.ravel())

    def result(self, rows, keep_nodes):
        return QuadratureResult(
            value=_ordered_sum(self.pos, self.val, rows), error=self.err,
            n_evals=self.evals, n_panels=sum(map(len, self.pos)),
            nodes=(np.sort(np.concatenate(self.nodes)) if keep_nodes
                   else None))


def _integrate_batch(f, spans, spec: QuadratureSpec, keep_nodes=False):
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

    Returns the lists (outcomes, layouts, firsts), one entry per span.
    An integral's outcome is its ``QuadratureResult``, or the
    ``ConvergenceError`` or the ``ValidationError`` (for a value that is
    not finite) that ended its pass while the others ran on; its layout
    is its entry of ``_first_levels``; and its first is the values f gave
    at that layout's nodes in the first call: f's own array for one span,
    and for several a view of its part of the call, shaped (order,
    panels) after any leading row axis.  An exception that f raises, or
    a malformed value, ends every integral.
    """
    order, rel_tol = spec.panel_order, spec.rel_tol
    if len(spans) == 1:
        layouts = [_first_levels(*spans[0], order)]
        lefts, rights, child_lefts, child_rights, half, flat = layouts[0]
        live = [_Pass(0, lefts.size, order)]
        call = f
    else:
        layouts, (lefts, rights, child_lefts, child_rights, half, flat) = \
            _batch_first_levels(spans, order)
        live = [_Pass(i, layout[0].size, order)
                for i, layout in enumerate(layouts)]

        def call(x):  # f, told the owners of the current level's panels
            return f(x, owner)
    outcomes: list = [None] * len(spans)
    for depth in range(1, spec.max_depth + 1):
        # a call holds 3 columns per live parent at depth 1 (the parent
        # and its children), and 2 (its children) later
        width = 3 if depth == 1 else 2
        if depth > 1:
            child_lefts, child_rights = _bisect(lefts, rights)
            half, flat = _layout(order, child_lefts, child_rights)
            for acc in live:
                acc.evals += 2 * order * acc.size
        if call is not f:
            owner = np.repeat([acc.index for acc in live],
                              [width * acc.size for acc in live])
        try:
            child_vals, raw = _panel_values(call, order, half, flat)
            bad = None
        except _NonFinite as exc:
            child_vals, raw, bad = exc.estimates, exc.raw, exc.bad
        if depth == 1:
            rows = raw.ndim == 2
            child_vals, parent_vals, firsts = _split_first_level(
                child_vals, raw, live, order)
        # the columns bounds[k]:bounds[k + 1] are the k-th live integral's
        bounds = ([0, lefts.size] if len(live) == 1
                  else [0, *accumulate(acc.size for acc in live)])
        if bad is not None:
            _fail_non_finite(bad, flat, order, live, width, bounds, outcomes)

        refined = child_vals[:, 0::2] + child_vals[:, 1::2]
        abs_refined = np.abs(refined[0])
        # the largest componentwise |refined - parent| of each panel
        diff = np.subtract(refined, parent_vals)
        np.abs(diff, out=diff)
        err = diff[0] if len(diff) == 1 else _max(diff, axis=0)
        tol = rel_tol * abs_refined
        ok = err <= np.maximum(tol, ABS_FLOOR, out=tol)
        whole = _whole(ok, bounds)
        if not all(whole):
            _accept_negligible(ok, abs_refined, parent_vals[0], live, bounds,
                               whole, rel_tol)
            whole = _whole(ok, bounds)

        going = []
        for k, acc in enumerate(live):
            s, e = bounds[k], bounds[k + 1]
            if outcomes[acc.index] is not None:  # a value that is not finite
                ok[s:e] = True  # refine none
                continue
            if keep_nodes:  # the children of this integral's panels
                child_pts = (
                    layouts[acc.index][5].reshape(order, -1)[:, acc.size:]
                    if depth == 1 else flat.reshape(order, -1)[:, 2 * s:2 * e])
            if whole[k]:
                acc.accept(lefts[s:e], refined[:, s:e], err[s:e],
                           child_pts if keep_nodes else None)
                outcomes[acc.index] = acc.result(rows, keep_nodes)
                continue
            accepted = ok[s:e]
            if np.count_nonzero(accepted):
                acc.accept(lefts[s:e][accepted], refined[:, s:e][:, accepted],
                           err[s:e][accepted],
                           child_pts[:, accepted.repeat(2)] if keep_nodes
                           else None, abs_refined[s:e][accepted])
            acc.size = 2 * (e - s - np.count_nonzero(accepted))
            if depth == spec.max_depth or acc.size > MAX_LIVE_PANELS:
                outcomes[acc.index] = _unconverged(
                    acc, ~accepted, child_lefts[2 * s:2 * e],
                    child_vals[:, 2 * s:2 * e], err[s:e], rows, depth, spec)
                ok[s:e] = True  # refine none
                continue
            going.append(acc)
        if not going:
            break
        pair_refine = (~ok).repeat(2)
        lefts = child_lefts[pair_refine]
        rights = child_rights[pair_refine]
        parent_vals = child_vals[:, pair_refine]
        live = going
    return outcomes, layouts, firsts


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


def _split_first_level(vals, raw, live, order):
    """The estimates of the children and of the parents of a first call
    (each integral's part: its parents, then their children), and the
    values f gave at each integral's part of it."""
    if len(live) == 1:
        size = live[0].size
        return vals[:, size:], vals[:, :size], [raw]
    per_node = raw.reshape(raw.shape[:-1] + (order, -1))
    parts = [n for acc in live for n in (acc.size, 2 * acc.size)]
    ends = [*accumulate(parts)][1::2]
    firsts = [per_node[..., end - 3 * acc.size:end]
              for end, acc in zip(ends, live)]
    is_parent = np.array([True, False] * len(live)).repeat(parts)
    return vals[:, ~is_parent], vals[:, is_parent], firsts


def _whole(ok, bounds) -> list:
    """Whether ``ok`` holds every panel of each live integral, whose
    columns ``bounds`` delimit."""
    if len(bounds) == 2:
        return [np.count_nonzero(ok) == ok.size]
    return np.logical_and.reduceat(ok, bounds[:-1]).tolist()


def _accept_negligible(ok, abs_refined, parent_mass, live, bounds,
                       whole, rel_tol) -> None:
    """Accept, in ``ok``, every panel of each live integral that ``whole``
    does not mark whose refined and parent masses are both within its
    integral's negligible-contribution share of the global tolerance
    budget: rel_tol times the absolute mass its integral has accepted so
    far plus this level's view, per panel of the level.  ``bounds``
    delimits each live integral's columns."""
    for acc, s, e, done in zip(live, bounds, bounds[1:], whole):
        if not done:
            share = rel_tol * (acc.abs + float(_sum(abs_refined[s:e]))) \
                / max(e - s, 1)
            ok[s:e] |= np.maximum(abs_refined[s:e],
                                  np.abs(parent_mass[s:e])) <= share


def _fail_non_finite(bad, flat, order, live, width, bounds, outcomes) -> None:
    """Give each live integral with a point in ``bad`` the
    ``ValidationError`` that names its first such node of the call
    ``flat``; ``width`` columns per parent of ``bounds`` are its panels."""
    bad, nodes = bad.reshape(order, -1), flat.reshape(order, -1)
    for acc, s, e in zip(live, bounds, bounds[1:]):
        mine = bad[:, width * s:width * e]
        if np.count_nonzero(mine):
            x = float(nodes[:, width * s:width * e][mine][0])
            outcomes[acc.index] = ValidationError(
                f"integrand returned a non-finite value near x={x!r}")


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
