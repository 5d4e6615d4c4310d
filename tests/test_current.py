import math

import numpy as np
import pytest

from qclock import (PhysicsConfig, current_general, exit_current_grid, psi,
                    rho, width)
from qclock.current import _spin_term
from qclock.spin_dynamics import SpinState, evolve

SET_I = PhysicsConfig()

# FD-resolvable packet for the continuity check (see test_wavepacket)
SLOW = PhysicsConfig(sigma0=0.05, u=0.1, d=1.0)

Z_UP = SpinState(up=1.0 + 0j, down=0.0j)


def in_packet_times(cfg, rng, n, lo=-8.0, hi=8.0):
    """Transit times within +-8 arrival widths of the peak's exit instant."""
    t0 = cfg.transit_time
    dt = width(cfg, t0).sigma_t / cfg.u
    return t0 + rng.uniform(lo, hi, size=n) * dt


def test_z_up_spin_gives_no_z_current():
    rng = np.random.default_rng(20)
    for t in in_packet_times(SET_I, rng, 20):
        _jx, jz_spin = current_general(SET_I, SET_I.d, t, Z_UP)
        assert jz_spin == 0.0
        # the full spin term lies along y for a z-polarized spin
        jy, jz = _spin_term(SET_I, SET_I.d, t, Z_UP)
        assert jz == 0.0
        assert abs(jy) > 0.0


def test_spin_term_vanishes_at_packet_peak():
    t = 0.83 * SET_I.transit_time
    _jx, jz_spin = current_general(SET_I, SET_I.u * t, t, evolve(SET_I.omega, t))
    assert jz_spin == 0.0


def test_general_matches_exit_closed_form():
    rng = np.random.default_rng(21)
    ts = in_packet_times(SET_I, rng, 100)
    jx, jz = exit_current_grid(SET_I, ts)
    for i, t in enumerate(ts):
        gx, gz = current_general(SET_I, SET_I.d, t, evolve(SET_I.omega, t))
        scale = max(math.hypot(jx[i], jz[i]), 1e-300)
        assert abs(gx - jx[i]) <= 1e-12 * scale
        assert abs(gz - jz[i]) <= 1e-12 * scale
        assert abs(math.hypot(gx, gz) - math.hypot(jx[i], jz[i])) <= 1e-12 * scale


def test_exit_current_at_transit_time():
    t = SET_I.transit_time
    jx, jz = exit_current_grid(SET_I, np.array([t]))
    st = width(SET_I, t).sigma_t
    assert jz[0] == 0.0
    assert jx[0] == pytest.approx(
        SET_I.u * (2 * math.pi * st * st) ** -0.5, rel=1e-14)


def test_exit_current_vanishes_before_arrival():
    jx, jz = exit_current_grid(SET_I, np.array([0.0]))
    assert np.hypot(jx, jz)[0] == 0.0


def test_modulus_bounds_components():
    rng = np.random.default_rng(22)
    jx, jz = exit_current_grid(SET_I, in_packet_times(SET_I, rng, 50))
    modulus = np.hypot(jx, jz)
    assert np.all(modulus >= np.abs(jx))
    assert np.all(modulus >= np.abs(jz))


def test_continuity_equation_residual():
    rng = np.random.default_rng(24)
    t0 = SLOW.transit_time
    hx_scale, ht = 1e-4, t0 * 1e-6
    for _ in range(100):
        t = rng.uniform(0.2, 1.8) * t0
        st = width(SLOW, t).sigma_t
        x = SLOW.u * t + rng.uniform(-3, 3) * st
        hx = st * hx_scale
        chi = evolve(SLOW.omega, t)
        drho_dt = (rho(SLOW, x, t + ht) - rho(SLOW, x, t - ht)) / (2 * ht)
        djx_dx = (current_general(SLOW, x + hx, t, chi)[0]
                  - current_general(SLOW, x - hx, t, chi)[0]) / (2 * hx)
        scale = max(abs(drho_dt), abs(djx_dx))
        assert abs(drho_dt + djx_dx) <= 1e-5 * scale


def test_spin_current_is_divergence_free():
    # the spin term has no y or z dependence at all, so its divergence is
    # an exact zero; the check guards against ever adding such a dependence
    rng = np.random.default_rng(25)
    for t in in_packet_times(SET_I, rng, 20):
        chi = evolve(SET_I.omega, t)
        jy0, jz0 = _spin_term(SET_I, SET_I.d, t, chi)
        jy1, jz1 = _spin_term(SET_I, SET_I.d, t, chi)
        st = width(SET_I, t).sigma_t
        magnitude = math.hypot(jy0, jz0)
        assert abs(jy1 - jy0) + abs(jz1 - jz0) <= 1e-8 * max(magnitude / st, 1e-300)


def test_schrodinger_part_matches_textbook_current():
    # independent derivative: central complex difference of psi itself
    rng = np.random.default_rng(26)
    ts = in_packet_times(SET_I, rng, 30, lo=-5.0, hi=5.0)
    jx, _jz = exit_current_grid(SET_I, ts)
    for i, t in enumerate(ts):
        x = SET_I.d
        h = width(SET_I, t).sigma_t * 1e-7  # k*h ~ 5e-3, fd error ~ 4e-6
        dpsi = (psi(SET_I, x + h, t) - psi(SET_I, x - h, t)) / (2 * h)
        expected = (psi(SET_I, x, t).conjugate()
                    * (-1j * SET_I.hbar / SET_I.m0) * dpsi).real
        assert jx[i] == pytest.approx(expected, rel=2e-5)


def test_grid_kernel_flushes_far_tail_to_zero():
    # density exponents below the -700 floor give exact zeros, not
    # denormals; at -720 exp() alone would still be nonzero
    t0 = SET_I.transit_time
    st = width(SET_I, t0).sigma_t
    t_720 = t0 - math.sqrt(2.0 * 720.0) * st / SET_I.u
    assert math.exp(-((SET_I.d - SET_I.u * t_720) / st) ** 2 / 2.0) > 0.0
    jx, jz = exit_current_grid(SET_I, np.array([0.0, 1e-9, t_720]))
    assert np.all(jx == 0.0)
    assert np.all(jz == 0.0)
