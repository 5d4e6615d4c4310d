import math
import warnings

import numpy as np
import pytest

from qclock import QuadratureSpec, integrate, integrate_full
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
