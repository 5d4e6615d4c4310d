import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qclock import (ArrivalScheme, PhysicsConfig, QuadratureSpec, integrate,
                    integrate_full, pi_of_phi, quadrature)
from qclock.cli import RunConfig, run_curve, run_table, serialize
from qclock.errors import ConvergenceError, ValidationError

TWO_PI = 2.0 * math.pi


def test_sin_squared_half_angle():
    value = integrate(lambda x: np.sin(x / 2) ** 2, 0.0, TWO_PI)
    assert value == pytest.approx(math.pi, rel=1e-12)


def test_exponential():
    value = integrate(np.exp, 0.0, 1.0)
    assert value == pytest.approx(math.e - 1.0, rel=1e-12)


def narrow_gaussian(width, center):
    def f(x):
        return np.exp(-(x - center) ** 2 / (2.0 * width * width))
    return f


def erf_integral(width, center, a, b):
    root2w = math.sqrt(2.0) * width
    return width * math.sqrt(math.pi / 2.0) * (
        math.erf((b - center) / root2w) - math.erf((a - center) / root2w))


def stacked_gaussian(width, center):
    g = narrow_gaussian(width, center)

    def f(x):
        w = g(x)
        return np.stack((w, w * np.cos(x), w * np.sin(x)))
    return f


SPIKE_WIDTH, SPIKE_CENTER = 1e-4, 0.61
SPIKE_HINTS = [SPIKE_CENTER + s * k * SPIKE_WIDTH
               for s in (-1, 1) for k in (1, 4, 16, 64)]


def test_narrow_gaussian_against_erf():
    width, center = 1e-3, 0.61
    hints = [center - k * width for k in (64, 16, 4, 1)] \
        + [center] + [center + k * width for k in (1, 4, 16, 64)]
    value = integrate(narrow_gaussian(width, center), 0.0, TWO_PI,
                      split_hints=hints)
    expected = erf_integral(width, center, 0.0, TWO_PI)
    assert value == pytest.approx(expected, rel=1e-10)


def test_even_narrower_gaussian():
    width, center = 1e-6, 0.61
    hints = [center + s * k * width for s in (-1, 1) for k in (1, 4, 16, 64)]
    value = integrate(narrow_gaussian(width, center), 0.0, TWO_PI,
                      split_hints=hints)
    expected = erf_integral(width, center, 0.0, TWO_PI)
    assert value == pytest.approx(expected, rel=1e-10)


def test_linearity():
    spec = QuadratureSpec()
    f = lambda x: np.sin(3 * x) ** 2
    g = lambda x: np.exp(-x) * x
    alpha, beta = 2.5, -0.75
    combined = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 3.0, spec)
    separate = alpha * integrate(f, 0.0, 3.0, spec) + beta * integrate(g, 0.0, 3.0, spec)
    assert combined == pytest.approx(separate, rel=2.0 * spec.rel_tol + 1e-14)


def test_interval_additivity():
    spec = QuadratureSpec()
    f = lambda x: np.cos(x) ** 4 + 0.1 * x
    whole = integrate(f, 0.0, 2.0, spec)
    parts = integrate(f, 0.0, 0.7, spec) + integrate(f, 0.7, 2.0, spec)
    assert whole == pytest.approx(parts, rel=2.0 * spec.rel_tol + 1e-14)


def test_determinism_bit_identical():
    f = narrow_gaussian(1e-4, 1.234)
    hints = [1.234 + s * k * 1e-4 for s in (-1, 1) for k in (1, 8, 64)]
    values = {integrate(f, 0.0, TWO_PI, split_hints=hints) for _ in range(5)}
    assert len(values) == 1
    stacked = stacked_gaussian(SPIKE_WIDTH, SPIKE_CENTER)
    rows = {integrate(stacked, 0.0, TWO_PI, split_hints=SPIKE_HINTS).tobytes()
            for _ in range(5)}
    assert len(rows) == 1


def test_convergence_error_carries_estimate():
    # an integrable singularity cannot converge in 3 levels of bisection
    spec = QuadratureSpec(rel_tol=1e-12, max_depth=3)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-30), 0.0, 1.0, spec)
    err = excinfo.value
    assert math.isfinite(err.best_estimate)
    assert err.error_estimate > 0.0
    # true value: 2*(sqrt(0.7) + sqrt(0.3))
    truth = 2.0 * (math.sqrt(0.7) + math.sqrt(0.3))
    assert err.best_estimate == pytest.approx(truth, rel=0.05)

    # a k-row integrand carries a length-k estimate
    def two_rows(x):
        w = 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-30)
        return np.stack((w, 0.5 * w))
    with pytest.raises(ConvergenceError) as excinfo:
        integrate(two_rows, 0.0, 1.0, spec)
    best = excinfo.value.best_estimate
    assert best.shape == (2,)
    assert best[0] == pytest.approx(err.best_estimate, rel=1e-14)
    assert best[1] == pytest.approx(0.5 * best[0], rel=1e-14)


def test_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadratureSpec(panel_order=4)
    QuadratureSpec(panel_order=64)
    with pytest.raises(ValidationError):
        QuadratureSpec(panel_order=65)
    with pytest.raises(ValidationError):
        QuadratureSpec(max_depth=0)


@pytest.mark.parametrize("field,value,message", [
    ("max_depth", True, "an integer"), ("panel_order", True, "an integer"),
    ("panel_order", 16.0, "an integer"),
    ("max_depth", np.float64(40), "an integer"),
    ("rel_tol", True, "a real number"), ("rel_tol", "1e-9", "a real number")])
def test_spec_refuses_bools_and_wrong_kinds(field, value, message):
    with pytest.raises(ValidationError, match=f"{field} must be {message}"):
        QuadratureSpec(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("panel_order", np.int64(16)), ("max_depth", np.int64(40)),
    ("rel_tol", 1), ("rel_tol", np.float64(1e-9))])
def test_spec_stores_builtin_numbers(field, value):
    spec = QuadratureSpec(**{field: value})
    stored = getattr(spec, field)
    assert type(stored) is type(getattr(QuadratureSpec(), field))
    assert stored == value
    assert spec == QuadratureSpec(**{field: stored})
    assert f"{field} = {stored!r}\n" in serialize(RunConfig(quad=spec))


def test_bounds_validation():
    with pytest.raises(ValidationError):
        integrate(np.exp, 1.0, 1.0)
    with pytest.raises(ValidationError):
        integrate(np.exp, 2.0, 1.0)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
    # a bad value in any row counts, not only in the dominant row 0
    with pytest.raises(ValidationError, match="non-finite"):
        integrate(lambda x: np.stack((np.ones_like(x), np.zeros_like(x),
                                      np.where(x > 0.5, np.nan, 0.0))),
                  0.0, 1.0)


def test_full_result_diagnostics():
    res = integrate_full(lambda x: np.exp(-x) * np.sin(x) ** 2, 0.0, 4.0,
                         keep_nodes=True)
    assert res.n_panels >= 1
    assert res.n_evals >= res.n_panels * 16
    assert res.nodes is not None
    assert np.all((res.nodes >= 0.0) & (res.nodes <= 4.0))
    assert np.all(np.diff(res.nodes) >= 0.0)
    assert res.error <= 1e-8 * abs(res.value)


def test_zero_function_integrates_to_zero():
    assert integrate(np.zeros_like, 0.0, 1.0) == 0.0


def test_higher_order_panels():
    spec = QuadratureSpec(panel_order=24)
    value = integrate(lambda x: np.sin(x / 2) ** 2, 0.0, TWO_PI, spec)
    assert value == pytest.approx(math.pi, rel=1e-12)


def test_stacked_components_match_erf_and_scalar_runs():
    value = integrate(stacked_gaussian(SPIKE_WIDTH, SPIKE_CENTER), 0.0,
                      TWO_PI, split_hints=SPIKE_HINTS)
    assert value.shape == (3,) and value.dtype == np.float64
    mass = erf_integral(SPIKE_WIDTH, SPIKE_CENTER, 0.0, TWO_PI)
    assert abs(value[0] - mass) <= 1e-10 * mass
    g = narrow_gaussian(SPIKE_WIDTH, SPIKE_CENTER)
    for row, component in zip(value, (g, lambda x: g(x) * np.cos(x),
                                      lambda x: g(x) * np.sin(x))):
        scalar = integrate(component, 0.0, TWO_PI, split_hints=SPIKE_HINTS)
        assert abs(row - scalar) <= 1e-10 * mass


def test_value_type_follows_integrand_rows():
    scalar = integrate(np.exp, 0.0, 1.0)
    assert type(scalar) is float
    rows = integrate(lambda x: np.stack((np.exp(x), np.ones_like(x))), 0.0, 1.0)
    assert isinstance(rows, np.ndarray) and rows.shape == (2,)
    assert rows[0] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert rows[1] == pytest.approx(1.0, rel=1e-12)


def test_every_component_must_converge():
    # row 0 is settled by the first bisection; row 1 still needs refining
    value = integrate(lambda x: np.stack((np.ones_like(x), np.sin(200.0 * x))),
                      0.0, 1.0)
    assert value[0] == pytest.approx(1.0, rel=1e-14)
    assert value[1] == pytest.approx((1.0 - math.cos(200.0)) / 200.0, abs=1e-10)


def test_wrong_integrand_shape_rejected():
    with pytest.raises(ValidationError, match=r"shape \(n,\) or \(k, n\)"):
        integrate(lambda x: np.ones((2, 2, x.size)), 0.0, 1.0)


def counting(f):
    """Wrap f so that every call records the number of abscissas it got."""
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)
    return counted, sizes


def levels_needed(f, **kwargs):
    """Smallest max_depth at which the integral converges."""
    for depth in range(1, 41):
        try:
            integrate_full(f, 0.0, 1.0, QuadratureSpec(max_depth=depth),
                           **kwargs)
        except ConvergenceError:
            continue
        return depth
    raise AssertionError("no depth up to 40 converges")


def test_first_bisection_accepted_in_one_call():
    f, sizes = counting(np.exp)
    res = integrate_full(f, 0.0, 1.0)
    assert levels_needed(np.exp) == 1
    # the initial panel and its two children share the call
    assert sizes == [3 * 16]
    assert res.n_evals == sum(sizes)


@pytest.mark.parametrize("hints", [(), (0.25, 0.5, 0.61)])
def test_one_call_per_level(hints):
    def steep(x):
        return np.stack((np.ones_like(x), np.sin(200.0 * x)))
    depth = levels_needed(steep, split_hints=hints)
    assert depth >= 3
    f, sizes = counting(steep)
    res = integrate_full(f, 0.0, 1.0, split_hints=hints, keep_nodes=True)
    assert len(sizes) == depth
    assert res.n_evals == sum(sizes)
    assert res.nodes.size == 2 * 16 * res.n_panels


def test_complex_integrand_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ValidationError, match="real"):
            integrate(lambda x: np.stack((np.ones_like(x), np.cos(x),
                                          np.sin(x))).astype(complex),
                      0.0, 1.0)


@pytest.mark.parametrize("output", [
    lambda x: np.array([complex(v, 1.0) for v in x], dtype=object),
    lambda x: np.array(["x"] * x.size, dtype=object),
    lambda x: np.array(["x"] * x.size),
], ids=["object-complex", "object-str", "unicode-str"])
def test_non_numeric_integrand_rejected(output):
    with pytest.raises(ValidationError, match="real"):
        integrate(output, 0.0, 1.0)


def test_object_array_of_floats_still_integrates():
    value = integrate(lambda x: np.array(list(np.exp(x)), dtype=object),
                      0.0, 1.0)
    assert value == integrate(np.exp, 0.0, 1.0)


def test_hints_of_any_real_type_give_the_float_result():
    f = narrow_gaussian(SPIKE_WIDTH, SPIKE_CENTER)
    expected = integrate(f, 0.0, TWO_PI, split_hints=tuple(SPIKE_HINTS))
    # a list, numpy scalars and unhashable 0-d arrays are converted per call
    for hints in (SPIKE_HINTS, [np.float64(h) for h in SPIKE_HINTS],
                  [np.array(h) for h in SPIKE_HINTS], np.array(SPIKE_HINTS)):
        assert integrate(f, 0.0, TWO_PI, split_hints=hints) == expected


@pytest.mark.parametrize("hints", [[[0.5]], 0.5, ["half"], [1j]])
def test_hints_that_are_not_numbers_rejected(hints):
    with pytest.raises(ValidationError, match="split_hints"):
        integrate(np.exp, 0.0, 1.0, split_hints=hints)


@pytest.fixture
def fresh_memo():
    quadrature._first_levels.cache_clear()
    return quadrature._first_levels


def misses_hits(memo):
    info = memo.cache_info()
    return info.misses, info.hits


def test_memo_keys_of_table_cells(fresh_memo, tmp_path):
    # one cell: the hinted interval and the tail miss, the 3 angles hit
    run_table(RunConfig(sigma0_ladder=(1e-7,), output_dir=tmp_path))
    assert misses_hits(fresh_memo) == (2, 3)
    # a second cell has new hints but shares the tail interval
    run_table(RunConfig(sigma0_ladder=(1e-6,), output_dir=tmp_path))
    assert misses_hits(fresh_memo) == (3, 7)


def test_memo_keys_of_a_curve_cell(fresh_memo, tmp_path):
    # the hinted interval, the tail and the order+2 norm check miss; the
    # mean and variance passes reuse the hinted interval
    run_curve(RunConfig(sigma0_ladder=(1e-7,), output_dir=tmp_path))
    assert misses_hits(fresh_memo) == (3, 2)


def test_memo_is_small():
    assert quadrature._first_levels.cache_info().maxsize <= 8


def test_no_memo_array_escapes(fresh_memo):
    dist = pi_of_phi(PhysicsConfig(sigma0=1e-7),
                     ArrivalScheme.MODULUS_TOTAL_CURRENT)
    res = integrate_full(np.exp, 0.0, 1.0, keep_nodes=True)
    entries = [fresh_memo(0.0, TWO_PI, dist.split_hints, dist.quad.panel_order),
               fresh_memo(0.0, 1.0, (), QuadratureSpec().panel_order)]
    assert misses_hits(fresh_memo)[1] == 2  # both were built by the passes
    for lefts, rights, child_lefts, child_rights, layout in entries:
        arrays = [lefts, rights, child_lefts, child_rights, layout.flat,
                  *layout.halves, *layout.pts]
        for arr in arrays:
            assert not arr.flags.writeable
            for mine in (dist.nodes, res.nodes):
                assert not np.shares_memory(mine, arr)
    assert dist.nodes.flags.writeable and res.nodes.flags.writeable
    with pytest.raises(ValueError):
        entries[0][4].flat[0] = 1.0


# each case differs from the first in one part of the key: the hints, the
# order, the interval's end or its start
MEMO_HINTS = tuple(SPIKE_HINTS)
MEMO_CASES = [(0.0, TWO_PI, MEMO_HINTS, 16),
              (0.0, TWO_PI, tuple(h + 0.5 * SPIKE_WIDTH for h in MEMO_HINTS), 16),
              (0.0, TWO_PI, MEMO_HINTS, 18),
              (0.0, 1.2, MEMO_HINTS, 16),
              (0.3, TWO_PI, MEMO_HINTS, 16)]

_FRESH_SCRIPT = """
import sys
import numpy as np
from qclock import QuadratureSpec, integrate_full
a, b, order, *hints = map(float, sys.argv[1:])
def f(x):
    w = np.exp(-(x - 0.61) ** 2 / (2.0 * 1e-4 ** 2)) + 1e-3 * np.sin(7.0 * x)
    return np.stack((np.abs(w), w * np.cos(x), w * np.sin(x)))
res = integrate_full(f, a, b, QuadratureSpec(panel_order=int(order)),
                     tuple(hints), keep_nodes=True)
print(repr(res.value.tolist()), repr(res.error), res.n_evals, res.nodes.size)
"""


def memo_case_result(a, b, hints, order):
    def f(x):
        w = np.exp(-(x - 0.61) ** 2 / (2.0 * 1e-4 ** 2)) + 1e-3 * np.sin(7.0 * x)
        return np.stack((np.abs(w), w * np.cos(x), w * np.sin(x)))
    res = integrate_full(f, a, b, QuadratureSpec(panel_order=order), hints,
                         keep_nodes=True)
    return f"{res.value.tolist()!r} {res.error!r} {res.n_evals} {res.nodes.size}"


def test_interleaved_memo_keys_give_fresh_process_values():
    """Each case alone in a fresh interpreter gives the same bits as all
    cases interleaved in this one, where the memo holds, shares and (with
    two rounds of filler keys) evicts their layouts."""
    env = dict(os.environ)
    src = str(Path(quadrature.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    fresh = []
    for a, b, hints, order in MEMO_CASES:
        args = [repr(v) for v in (a, b, order, *hints)]
        out = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT, *args],
                             env=env, capture_output=True, text=True,
                             check=True)
        fresh.append(out.stdout.strip())

    quadrature._first_levels.cache_clear()
    for round_ in range(2):
        for i in (0, 3, 1, 4, 2, 0, 2, 4, 3, 1):
            assert memo_case_result(*MEMO_CASES[i]) == fresh[i]
        for k in range(8):  # evict every case
            integrate(np.exp, 0.0, 1.0 + k)


@pytest.mark.parametrize("center", [0.61, 2.2])
@pytest.mark.parametrize("k", [10.0, 90.0])
def test_identical_rows_sum_like_one_row(center, k):
    # no hints: the spike is found over several levels, so the accepted
    # panels come in several chunks and are reordered before the row sums
    def g(x):
        return np.exp(-(x - center) ** 2 / 8e-6) + 1e-2 * np.sin(k * x) ** 2
    one = integrate_full(g, 0.0, TWO_PI)
    rows = integrate_full(lambda x: np.stack((g(x),) * 3), 0.0, TWO_PI)
    assert one.n_panels > 8
    assert rows.n_panels == one.n_panels
    assert [r.hex() for r in rows.value.tolist()] == [one.value.hex()] * 3


def test_integrand_receives_read_only_nodes_at_every_level():
    seen = []

    def steep(x):
        seen.append(x.flags.writeable)
        return np.sin(200.0 * x)
    integrate(steep, 0.0, 1.0)
    assert len(seen) >= 3 and not any(seen)
    with pytest.raises(ValueError, match="read-only"):
        integrate(lambda x: np.multiply(x, 2.0, out=x), 0.0, 1.0)
