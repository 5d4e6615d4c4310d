import math

import numpy as np
import pytest
from convolution_oracle import convolution_probs
from physics_oracle import chi_of_phi, prob_plus

from qclock import (AngularDistribution, ArrivalScheme, PhysicsConfig,
                    bracketing_hints, density_matrix, deviation_report,
                    measure, pi_of_phi, quadrature, round_half_away,
                    semiclassical_prediction)
from qclock.distribution import TWO_PI
from qclock.errors import DomainError

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
    original = quadrature.integrate_full

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_full", counting)
    measure(dist_1e8, SET_I.phi_peak)
    assert len(calls) == 1
    density_matrix(dist_1e8)
    assert len(calls) == 2


def test_round_half_away():
    assert round_half_away(0.000005) == 0.00001
    assert round_half_away(0.000015) == 0.00002
    assert round_half_away(-0.000005) == -0.00001
    assert round_half_away(0.0000049) == 0.0
    assert round_half_away(0.752421) == 0.75242
    assert round_half_away(0.9999897478) == 0.99999
