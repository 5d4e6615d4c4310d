import math

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
