import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from physics_oracle import NumericRangeError, psi, rho

from qclock import HBAR, NEUTRON_MASS, PhysicsConfig, width
from qclock.errors import DomainError, ValidationError

SET_I = PhysicsConfig()

# FD-resolvable packet: slow carrier (k*sigma0 ~ 8) so the step rules
# h_x = sigma_t*1e-4, h_t = (d/u)*1e-6 actually resolve the phase.  The
# default beam has k*h_x ~ 5 rad, far beyond any central difference.
SLOW = PhysicsConfig(sigma0=0.05, u=0.1, d=1.0)


def test_psi_peak_value_at_origin():
    expected = (2.0 * math.pi * SET_I.sigma0 ** 2) ** -0.25
    value = psi(SET_I, 0.0, 0.0)
    assert value.real == pytest.approx(expected, rel=1e-14)
    assert value.imag == 0.0


def test_psi_matches_initial_gaussian():
    rng = np.random.default_rng(1)
    s0 = SET_I.sigma0
    prefactor = (2.0 * math.pi * s0 * s0) ** -0.25
    for _ in range(50):
        x = rng.uniform(-4, 4) * s0
        expected = prefactor * np.exp(-x * x / (4 * s0 * s0) + 1j * SET_I.k * x)
        assert psi(SET_I, x, 0.0) == pytest.approx(expected, rel=1e-11)


def test_psi_squared_equals_rho():
    rng = np.random.default_rng(2)
    t0 = SET_I.transit_time
    for _ in range(200):
        t = rng.uniform(0.0, 2.0) * t0
        st = width(SET_I, t).sigma_t
        x = SET_I.u * t + rng.uniform(-8, 8) * st
        amp = psi(SET_I, x, t)
        assert abs(amp) ** 2 == pytest.approx(rho(SET_I, x, t), rel=1e-12)


def test_psi_raises_in_far_tail():
    with pytest.raises(NumericRangeError):
        psi(SET_I, SET_I.d, 0.0)  # packet still at x=0, d is ~1e5 widths away


def test_psi_rejects_negative_time():
    with pytest.raises(DomainError):
        psi(SET_I, 0.0, -1e-9)


def test_rho_peak_value():
    t = 0.7 * SET_I.transit_time
    st = width(SET_I, t).sigma_t
    assert rho(SET_I, SET_I.u * t, t) == pytest.approx(
        (2.0 * math.pi * st * st) ** -0.5, rel=1e-14)


def test_rho_at_exit_peak_set_i():
    t = SET_I.transit_time
    st = width(SET_I, t).sigma_t
    assert rho(SET_I, SET_I.d, t) == pytest.approx(
        (2.0 * math.pi * st * st) ** -0.5, rel=1e-14)


def test_rho_underflows_to_zero():
    assert rho(SET_I, SET_I.d, 0.0) == 0.0


def test_rho_normalization_against_scipy():
    for frac in (0.0, 0.31, 1.0, 1.73):
        t = frac * SET_I.transit_time
        st = width(SET_I, t).sigma_t
        center = SET_I.u * t
        total, err = quad(lambda x: rho(SET_I, x, t),
                          center - 12 * st, center + 12 * st, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_width_at_zero_is_sigma0():
    w = width(SET_I, 0.0)
    assert w.sigma_t == SET_I.sigma0
    assert w.a_t == complex(SET_I.sigma0, 0.0)


def test_width_frozen_value_sigma0_1e7():
    # sigma0=1e-7 cm at the d=1 cm transit time; frozen from a 35-digit
    # mpmath evaluation of the closed form
    cfg = PhysicsConfig(sigma0=1e-7)
    got = width(cfg, cfg.transit_time).sigma_t
    assert got == pytest.approx(1.04937061283941e-2, rel=1e-12)


def test_width_against_mpmath():
    rng = np.random.default_rng(3)
    mpmath.mp.dps = 30
    for _ in range(20):
        t = float(rng.uniform(0.0, 3.0) * SET_I.transit_time)
        s0 = mpmath.mpf(repr(SET_I.sigma0))
        ratio = mpmath.mpf(repr(HBAR)) * mpmath.mpf(repr(t)) / \
            (2 * mpmath.mpf(repr(NEUTRON_MASS)) * s0 ** 2)
        expected = float(s0 * mpmath.sqrt(1 + ratio ** 2))
        assert width(SET_I, t).sigma_t == pytest.approx(expected, rel=1e-14)


def test_width_monotone_nondecreasing():
    ts = np.linspace(0.0, 3.0 * SET_I.transit_time, 300)
    sigmas = [width(SET_I, float(t)).sigma_t for t in ts]
    assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))
    assert all(s >= SET_I.sigma0 for s in sigmas)


def test_width_algebraic_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = float(rng.uniform(0.0, 2.0) * SET_I.transit_time)
        w = width(SET_I, t)
        expected_sq = SET_I.sigma0 ** 2 \
            + (SET_I.hbar * t / (2.0 * SET_I.m0 * SET_I.sigma0)) ** 2
        assert w.sigma_t ** 2 == pytest.approx(expected_sq, rel=1e-12)
        assert abs(w.a_t) == pytest.approx(w.sigma_t, rel=1e-15)


def test_free_schrodinger_residual():
    rng = np.random.default_rng(5)
    t0 = SLOW.transit_time
    for _ in range(50):
        t = rng.uniform(0.2, 1.8) * t0
        st = width(SLOW, t).sigma_t
        x = SLOW.u * t + rng.uniform(-3, 3) * st
        hx = st * 1e-4
        ht = t0 * 1e-6
        p_t = (psi(SLOW, x, t + ht) - psi(SLOW, x, t - ht)) / (2 * ht)
        p_xx = (psi(SLOW, x + hx, t) - 2 * psi(SLOW, x, t)
                + psi(SLOW, x - hx, t)) / (hx * hx)
        rhs = 1j * SLOW.hbar / (2.0 * SLOW.m0) * p_xx
        scale = max(abs(p_t), abs(rhs))
        assert abs(p_t - rhs) <= 1e-5 * scale


@pytest.mark.parametrize("field", ["hbar", "m0", "mu", "sigma0", "u", "d", "B"])
def test_config_rejects_nonpositive(field):
    with pytest.raises(ValidationError, match=f"{field} must be positive"):
        PhysicsConfig(**{field: -1.0})
    with pytest.raises(ValidationError, match=f"{field} must be positive"):
        PhysicsConfig(**{field: float("nan")})


def test_config_accepts_any_real_number_as_a_float():
    cfg = PhysicsConfig(u=np.float32(3e5), B=np.int64(10), d=1,
                        sigma0=np.float64(1e-5))
    for name in ("hbar", "m0", "mu", "sigma0", "u", "d", "B"):
        assert type(getattr(cfg, name)) is float
    assert (cfg.u, cfg.B, cfg.d, cfg.sigma0) == (3e5, 10.0, 1.0, 1e-5)
    assert cfg == SET_I


def test_config_refuses_an_int_too_large_for_a_float():
    with pytest.raises(ValidationError, match="B is too large"):
        PhysicsConfig(B=10 ** 400)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1.0", 1 + 0j, None])
def test_config_refuses_non_real_values(value):
    with pytest.raises(ValidationError, match="B must be a real number"):
        PhysicsConfig(B=value)


def test_config_validity_guard():
    # sigma0=1e-9 spreads past d/2 by the exit instant for the d=1 preset
    with pytest.raises(ValidationError, match="exit instant"):
        PhysicsConfig(sigma0=1e-9)


def test_config_derived_quantities():
    assert SET_I.k == pytest.approx(SET_I.m0 * SET_I.u / SET_I.hbar, rel=1e-15)
    assert SET_I.omega == pytest.approx(SET_I.mu * SET_I.B / SET_I.hbar, rel=1e-15)
    assert math.degrees(SET_I.phi_peak) == pytest.approx(34.94767, abs=1e-10)
    set_ii = PhysicsConfig(d=2.0)
    assert math.degrees(set_ii.phi_peak) == pytest.approx(69.89534, abs=1e-10)
