import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from convolution_oracle import convolution_probs
from momentum_oracle import momentum_m1
from physics_oracle import chi_of_phi, prob_plus

from qclock import (AngularDistribution, ArrivalScheme, PhysicsConfig,
                    bracketing_hints, density_matrix, deviation_report,
                    distribution, mean_phi, measure, pi_of_phi, quadrature,
                    round_half_away, semiclassical_prediction, variance_phi)
from qclock.cli import default_thetas_deg
from qclock.distribution import TWO_PI, first_moment
from qclock.errors import DomainError, ValidationError

SET_I = PhysicsConfig()
SET_II = PhysicsConfig(d=2.0)
TOTAL = ArrivalScheme.MODULUS_TOTAL_CURRENT
SCH = ArrivalScheme.MODULUS_SCHRODINGER_CURRENT

DEG60 = math.radians(60.0)
DEG90 = math.radians(90.0)

# frozen 40-digit oracle values (windowed tanh-sinh quadrature)
P_PLUS_I_1E8 = {0.0: 0.998865642, DEG60: 0.7524213043, DEG90: 0.5034508034}
P_PLUS_II_1E8 = {0.0: 0.9954843603, DEG60: 0.7535900278, DEG90: 0.5067525128}


@pytest.fixture(scope="module")
def dist_1e8():
    return pi_of_phi(PhysicsConfig(sigma0=1e-8), TOTAL)


@pytest.fixture(scope="module")
def dist_1e5():
    return pi_of_phi(SET_I, TOTAL)


def narrow_spike_dist(center, spike_width=1e-6):
    return AngularDistribution.from_density(
        lambda p: np.exp(-(p - center) ** 2 / (2 * spike_width ** 2)),
        split_hints=bracketing_hints(center, spike_width))


def uniform_dist():
    return AngularDistribution.from_density(lambda p: np.ones_like(p))


def test_reference_values_set_i(dist_1e8):
    for offset, expected in P_PLUS_I_1E8.items():
        got = measure(dist_1e8, SET_I.phi_peak + offset).p_plus
        assert got == pytest.approx(expected, abs=5e-5)
        assert got == pytest.approx(expected, abs=2e-8)  # frozen oracle


def test_reference_values_set_ii():
    dist = pi_of_phi(PhysicsConfig(d=2.0, sigma0=1e-8), TOTAL)
    for offset, expected in P_PLUS_II_1E8.items():
        got = measure(dist, SET_II.phi_peak + offset).p_plus
        assert got == pytest.approx(expected, abs=2e-8)


def test_narrow_packet_sixty_degrees(dist_1e5):
    got = measure(dist_1e5, SET_I.phi_peak + DEG60).p_plus
    assert got == pytest.approx(0.75, abs=1e-5)


def test_completeness(dist_1e8):
    rng = np.random.default_rng(40)
    for _ in range(20):
        theta = rng.uniform(0.0, TWO_PI)
        res = measure(dist_1e8, theta)
        assert res.p_plus + res.p_minus == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= res.p_plus <= 1.0
        assert 0.0 <= res.p_minus <= 1.0


def test_theta_domain(dist_1e5):
    with pytest.raises(DomainError):
        measure(dist_1e5, -0.01)
    with pytest.raises(DomainError):
        measure(dist_1e5, TWO_PI)


def test_semiclassical_prediction():
    peak = SET_I.phi_peak
    assert semiclassical_prediction(SET_I, peak).p_plus == pytest.approx(1.0, abs=1e-15)
    assert semiclassical_prediction(SET_I, peak + DEG90).p_plus == \
        pytest.approx(0.5, abs=1e-12)
    res = semiclassical_prediction(SET_I, peak + DEG60)
    assert res.p_plus == pytest.approx(0.75, abs=1e-12)
    assert res.p_minus == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("theta", [-0.1, TWO_PI, 10.0])
def test_semiclassical_prediction_shares_the_theta_domain(dist_1e5, theta):
    with pytest.raises(DomainError):
        measure(dist_1e5, theta)
    with pytest.raises(DomainError):
        semiclassical_prediction(SET_I, theta)


@pytest.mark.parametrize("theta", [True, False, "0.5", 0.5 + 0j, None])
def test_theta_that_is_no_real_number_is_refused(dist_1e5, theta):
    with pytest.raises(ValidationError, match="theta must be a real number"):
        measure(dist_1e5, theta)
    with pytest.raises(ValidationError, match="theta must be a real number"):
        semiclassical_prediction(SET_I, theta)


@pytest.mark.parametrize("theta", [np.float32(0.5), np.float64(0.5),
                                   np.int64(1), 1])
def test_theta_is_stored_as_a_python_float(dist_1e5, theta):
    for res in (measure(dist_1e5, theta),
                semiclassical_prediction(SET_I, theta)):
        assert type(res.theta) is float
        assert res.theta == float(theta)
    assert measure(dist_1e5, theta) == measure(dist_1e5, float(theta))


def test_density_matrix_of_spike_is_projector():
    center = 1.1
    w = density_matrix(narrow_spike_dist(center))
    chi = chi_of_phi(center)
    vec = np.array([chi.up, chi.down])
    projector = np.outer(vec, vec.conj())
    assert w.dtype == np.complex128 and w.shape == (2, 2)
    assert np.allclose(w, projector, atol=1e-9)
    assert np.trace(w @ w).real == pytest.approx(1.0, abs=1e-9)


def test_density_matrix_of_uniform_is_maximally_mixed():
    w = density_matrix(uniform_dist())
    assert np.allclose(w, 0.5 * np.eye(2), atol=1e-10)
    assert np.trace(w @ w).real == pytest.approx(0.5, abs=1e-10)


def test_density_matrix_invariants(dist_1e8):
    w = density_matrix(dist_1e8)
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-8)
    assert np.abs(w - w.conj().T).max() <= 1e-12
    assert np.all(np.linalg.eigvalsh(w) >= -1e-12)


def test_density_matrix_route_matches_direct_quadrature(dist_1e8):
    w = density_matrix(dist_1e8)
    rng = np.random.default_rng(41)
    for _ in range(25):
        theta = rng.uniform(0.0, TWO_PI)
        direct_plus, direct_minus = convolution_probs(dist_1e8, theta)
        res = measure(dist_1e8, theta)
        assert prob_plus(w, theta) == pytest.approx(direct_plus, abs=1e-9)
        assert res.p_plus == pytest.approx(direct_plus, abs=1e-9)
        assert res.p_minus == pytest.approx(direct_minus, abs=1e-9)


def test_deviation_report_set_i():
    thetas = [SET_I.phi_peak, SET_I.phi_peak + DEG60, SET_I.phi_peak + DEG90]

    rows = deviation_report(SET_I, TOTAL, thetas)
    assert abs(rows[0].delta) <= 1e-5  # sigma0=1e-5 looks semiclassical

    cfg8 = PhysicsConfig(sigma0=1e-8)
    rows8 = deviation_report(cfg8, TOTAL, thetas)
    assert abs(rows8[0].delta) == pytest.approx(0.00114, abs=5e-5)
    assert rows8[0].p_plus_semiclassical == pytest.approx(1.0, abs=1e-12)
    assert rows8[0].delta == rows8[0].p_plus - rows8[0].p_plus_semiclassical
    assert rows8[0].delta < 0.0


def test_deviation_report_set_ii():
    cfg = PhysicsConfig(d=2.0, sigma0=1e-8)
    rows = deviation_report(cfg, TOTAL, [cfg.phi_peak])
    assert abs(rows[0].delta) == pytest.approx(0.00454, abs=5e-5)


def test_spin_term_contribution_regression(dist_1e8):
    # frozen regression: the spin current shifts the probabilities by less
    # than the quadrature noise floor at these parameters (true gap ~1e-19)
    cfg8 = PhysicsConfig(sigma0=1e-8)
    other = pi_of_phi(cfg8, SCH)
    for offset in (0.0, DEG60, DEG90):
        theta = cfg8.phi_peak + offset
        assert abs(measure(dist_1e8, theta).p_plus
                   - measure(other, theta).p_plus) < 1e-9


def test_one_integral_per_angle(dist_1e8, monkeypatch):
    # C and S come from one stacked pass, not one integral each
    calls = []
    original = distribution._integrate_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(distribution, "_integrate_batch", counting)
    measure(dist_1e8, SET_I.phi_peak)
    assert len(calls) == 1
    density_matrix(dist_1e8)
    assert len(calls) == 2


@pytest.mark.parametrize("d", [1.0, 2.0])
@pytest.mark.parametrize("sigma0", [1e-5, 1e-6, 1e-7, 1e-8])
def test_kernel_calls_per_preset_cell(monkeypatch, d, sigma0):
    # every preset integral is accepted at its first bisection, and the
    # hint panels share their kernel call with that bisection
    calls = []
    original = distribution.exit_current_grid

    def counting_kernel(cfg, t):
        calls.append(np.asarray(t).size)
        return original(cfg, t)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    cfg = PhysicsConfig(d=d, sigma0=sigma0)
    dist = pi_of_phi(cfg, TOTAL)
    # the norm pass, which shares each level's call with the tail integral;
    # that runs only where the current's support reaches past 2*pi: at
    # 1e-8, whose tail is resolved at depth 2 (d=1) or 3 (d=2)
    tail_levels = {1.0: 2, 2.0: 3}[d] if sigma0 == 1e-8 else 0
    assert len(calls) == max(1, tail_levels)
    calls.clear()
    # the m1 pass starts from the norm pass's first-level values, and
    # every preset m1 pass is accepted at that level
    measure(dist, cfg.phi_peak)
    assert len(calls) == 0


def count_kernel_calls(monkeypatch):
    """The list that every later kernel call appends its size to."""
    calls = []
    original = distribution.exit_current_grid

    def counting_kernel(cfg, t):
        calls.append(np.asarray(t).size)
        return original(cfg, t)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    return calls


@pytest.mark.parametrize("d", [1.0, 2.0])
@pytest.mark.parametrize("sigma0", [1e-5, 1e-6, 1e-7, 1e-8])
def test_moment_passes_reuse_the_norm_pass(monkeypatch, d, sigma0):
    dist = pi_of_phi(PhysicsConfig(d=d, sigma0=sigma0), TOTAL)
    calls = count_kernel_calls(monkeypatch)
    measure(dist, 0.5)
    density_matrix(dist)
    mean_phi(dist)
    assert calls == []
    # the central second moment refines 2 panels once more at 1e-8, and
    # that deeper level calls the kernel as it always did
    variance_phi(dist)
    assert calls == ([2 * 2 * dist.quad.panel_order] if sigma0 == 1e-8 else [])


#: (d, sigma0, scheme) cells whose m1 is checked against a fresh process
FRESH_CELLS = [(d, sigma0, TOTAL.value)
               for d in (1.0, 2.0)
               for sigma0 in (1e-5, 3e-6, 1e-6, 3e-7, 1e-7, 1e-8)]
# on this cell the two schemes' m1 differ in their last bits
SHARED_KEY_CELL = (2.0, 1e-7)

_FRESH_M1_SCRIPT = """
import sys
from qclock import ArrivalScheme, PhysicsConfig, pi_of_phi
from qclock.distribution import first_moment
args = sys.argv[1:]
for d, sigma0, scheme in zip(args[0::3], args[1::3], args[2::3]):
    cfg = PhysicsConfig(d=float(d), sigma0=float(sigma0))
    print(repr(first_moment(pi_of_phi(cfg, ArrivalScheme(scheme)))))
"""


@pytest.fixture(scope="module")
def fresh_m1():
    """repr(m1) of every FRESH_CELLS cell and of both schemes on
    SHARED_KEY_CELL, each measured right after it was built in a fresh
    interpreter."""
    cells = FRESH_CELLS + [(*SHARED_KEY_CELL, s.value) for s in (TOTAL, SCH)]
    env = dict(os.environ)
    src = str(Path(quadrature.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    args = [str(v) for cell in cells for v in cell]
    out = subprocess.run([sys.executable, "-c", _FRESH_M1_SCRIPT, *args],
                         env=env, capture_output=True, text=True, check=True)
    return dict(zip(cells, out.stdout.split()))


def test_cells_built_and_measured_interleaved_give_fresh_process_m1(
        monkeypatch, fresh_m1):
    # each cell is measured as it is built, then all again in another
    # order: every m1 pass reads its own distribution's kept first level
    dists, got = [], []
    for d, sigma0, s in FRESH_CELLS:
        dists.append(pi_of_phi(PhysicsConfig(d=d, sigma0=sigma0),
                               ArrivalScheme(s)))
        got.append(repr(first_moment(dists[-1])))
    assert got == [fresh_m1[cell] for cell in FRESH_CELLS]
    kernel_calls = count_kernel_calls(monkeypatch)
    cos_calls = count_cos_calls(monkeypatch)
    walk = [*range(0, len(dists), 2), *range(len(dists) - 1, 0, -2)]
    assert [repr(first_moment(dists[i])) for i in walk] \
        == [got[i] for i in walk]
    assert kernel_calls == [] and cos_calls == []


def test_schemes_sharing_a_layout_keep_their_own_values(monkeypatch, fresh_m1):
    d, sigma0 = SHARED_KEY_CELL
    cfg = PhysicsConfig(d=d, sigma0=sigma0)
    dists = [pi_of_phi(cfg, TOTAL), pi_of_phi(cfg, SCH)]
    assert dists[0].split_hints == dists[1].split_hints
    assert dists[0].quad == dists[1].quad
    expected = [fresh_m1[(d, sigma0, s.value)] for s in (TOTAL, SCH)]
    assert expected[0] != expected[1]
    kernel_calls = count_kernel_calls(monkeypatch)
    cos_calls = count_cos_calls(monkeypatch)
    # the passes, in either order, each read their own distribution's rows
    assert [repr(first_moment(dist)) for dist in dists] == expected
    assert [repr(first_moment(dist)) for dist in dists[::-1]] \
        == expected[::-1]
    assert kernel_calls == [] and cos_calls == []


def count_cos_calls(monkeypatch):
    """The list that every later ``np.cos`` call appends its size to."""
    calls = []
    original = np.cos

    def counting_cos(x, *args, **kwargs):
        calls.append(np.asarray(x).size)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    return calls


def first_level_nodes(dist):
    """The nodes of the first level of every pass over ``dist``."""
    return dist._first_level[0][-1]


@pytest.mark.parametrize("d", [1.0, 2.0])
@pytest.mark.parametrize("sigma0", [1e-5, 1e-6, 1e-7, 1e-8])
def test_later_m1_passes_reuse_the_first_level_rows(monkeypatch, d, sigma0):
    cfg = PhysicsConfig(d=d, sigma0=sigma0)
    cos_calls = count_cos_calls(monkeypatch)
    dist = pi_of_phi(cfg, TOTAL)
    # building the distribution computes the cos row of its first level
    assert cos_calls == [first_level_nodes(dist).size]
    cos_calls.clear()
    # every preset m1 pass is accepted at that level, so no pass computes
    # cos again; the mean and variance passes compute none
    first = measure(dist, cfg.phi_peak)
    assert measure(dist, cfg.phi_peak) == first
    measure(dist, 0.5)
    density_matrix(dist)
    mean_phi(dist)
    variance_phi(dist)
    assert cos_calls == []


def test_kept_rows_are_read_only():
    dist = pi_of_phi(SET_I, TOTAL)
    layout, rows = dist._first_level
    nodes = first_level_nodes(dist)
    assert rows.shape == (3, nodes.size)
    # the rows are those of the moment integrand, and row 0 is what
    # density_fn gives at the nodes
    assert np.array_equal(rows[1], np.cos(nodes) * rows[0])
    assert np.array_equal(rows[2], np.sin(nodes) * rows[0])
    assert np.array_equal(dist.density_fn(nodes), rows[0])
    for kept in (*layout, rows):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[..., 0] = 0.0


@pytest.mark.parametrize("d", [1.0, 2.0])
@pytest.mark.parametrize("sigma0", [1e-5, 1e-6, 1e-7, 1e-8])
def test_momentum_oracle_on_preset_cells(d, sigma0):
    # the criterion-2 cells (d = 2, sigma0 = 1e-8) are among these: the
    # package's values there are those of its formulas, whatever the
    # bundled reference row says
    cfg = PhysicsConfig(d=d, sigma0=sigma0)
    dist = pi_of_phi(cfg, TOTAL)
    expected = momentum_m1(cfg)
    assert abs(first_moment(dist) - expected) <= 1e-12
    for theta_deg in default_thetas_deg(cfg):
        theta = math.radians(theta_deg)
        p_plus = 0.5 * (1.0 + (expected * complex(math.cos(theta),
                                                  -math.sin(theta))).real)
        res = measure(dist, theta)
        assert abs(res.p_plus - p_plus) <= 1e-12
        assert abs(res.p_minus - (1.0 - p_plus)) <= 1e-12


def test_round_half_away():
    assert round_half_away(0.000005) == 0.00001
    assert round_half_away(0.000015) == 0.00002
    assert round_half_away(-0.000005) == -0.00001
    assert round_half_away(0.0000049) == 0.0
    assert round_half_away(0.752421) == 0.75242
    assert round_half_away(0.9999897478) == 0.99999
