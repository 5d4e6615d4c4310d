import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from kernel_oracle import exit_current_reference
from physics_oracle import (SpinState, _spin_term, bloch, current_general,
                            evolve, psi, rho)

from qclock import (ArrivalScheme, PhysicsConfig, QClockError,
                    exit_current_grid, pi_of_phi, width)
from qclock.cli import DEFAULT_SIGMA0_LADDER, PRESETS

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
    # (grad rho x s)/m0 = curl(rho s)/m0 for a spin uniform in space, so it
    # is divergence-free exactly when it has that form; check the form
    # against grad rho by central differences of rho, for random spin states
    rng = np.random.default_rng(25)
    t0 = SLOW.transit_time
    for _ in range(20):
        t = rng.uniform(0.2, 1.8) * t0
        st = width(SLOW, t).sigma_t
        x = SLOW.u * t + rng.uniform(-3, 3) * st
        raw = rng.normal(size=4)
        vec = (raw[:2] + 1j * raw[2:]) / np.linalg.norm(raw)
        chi = SpinState(up=complex(vec[0]), down=complex(vec[1]))
        jy, jz = _spin_term(SLOW, x, t, chi)
        h = st * 1e-4
        grad_rho = (rho(SLOW, x + h, t) - rho(SLOW, x - h, t)) / (2 * h)
        s = bloch(chi, SLOW.hbar)
        # the term's size one packet width off the centre
        scale = rho(SLOW, x, t) / st * s.magnitude() / SLOW.m0
        assert abs(jy - (-grad_rho * s.sz / SLOW.m0)) <= 1e-6 * scale
        assert abs(jz - grad_rho * s.sy / SLOW.m0) <= 1e-6 * scale


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


PRESET_CELLS = [PhysicsConfig(d=d, sigma0=sigma0) for d in PRESETS.values()
                for sigma0 in DEFAULT_SIGMA0_LADDER]


def bits(x):
    return np.asarray(x).view(np.int64)


def kernel_times(cfg, n, rng):
    """n times: the peak's exit instant alone for n == 1; otherwise a
    uniform sweep over four transit times (mostly flushed to zero), times
    within the packet, and times on both sides of the -700 flush edge."""
    t0 = cfg.transit_time
    if n == 1:
        return np.array([t0])
    dt = width(cfg, t0).sigma_t / cfg.u
    edge = math.sqrt(1400.0) * dt
    k = n // 4
    return np.concatenate([
        np.linspace(0.0, 4.0 * t0, n - 3 * k),
        t0 + dt * rng.uniform(-8.0, 8.0, k),
        t0 - edge * (1.0 + rng.uniform(-1e-2, 1e-2, k)),
        t0 + edge * (1.0 + rng.uniform(-1e-2, 1e-2, k)),
    ])


def assert_kernel_bits(cfg, rng):
    for n in (1, 48, 768, 4608):
        t = kernel_times(cfg, n, rng)
        t_before = t.copy()
        got = exit_current_grid(cfg, t)
        want = exit_current_reference(cfg, t)
        assert np.array_equal(bits(t), bits(t_before))  # t is never written
        for g, w in zip(got, want):
            assert g.shape == w.shape == t.shape
            assert np.array_equal(bits(g), bits(w))
        if n >= 48:
            # the flush region and the live region are both exercised
            assert np.any(want[0] == 0.0) and np.any(want[0] != 0.0)


@pytest.mark.parametrize("cfg", PRESET_CELLS,
                         ids=[f"d{c.d:g}-s{c.sigma0:g}" for c in PRESET_CELLS])
def test_kernel_bits_match_plain_expressions_on_presets(cfg):
    assert_kernel_bits(cfg, np.random.default_rng(24))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(d=st.floats(0.1, 5.0), u=st.floats(4.0, 6.0).map(lambda e: 10.0 ** e),
       B=st.floats(0.0, 2.0).map(lambda e: 10.0 ** e),
       sigma0=st.floats(-9.0, -3.0).map(lambda e: 10.0 ** e))
def test_kernel_bits_match_plain_expressions_on_drawn_configs(d, u, B, sigma0):
    try:
        cfg = PhysicsConfig(d=d, u=u, B=B, sigma0=sigma0)
    except QClockError:
        assume(False)
    assert_kernel_bits(cfg, np.random.default_rng(25))


@pytest.mark.parametrize("cfg", [PRESET_CELLS[0], PRESET_CELLS[-1]])
def test_scalar_time_gives_numpy_scalars_with_the_same_bits(cfg):
    for t in (cfg.transit_time, np.float64(0.5 * cfg.transit_time), 0.0,
              3.0 * cfg.transit_time):
        got = exit_current_grid(cfg, t)
        want = exit_current_reference(cfg, t)
        for g, w in zip(got, want):
            assert type(g) is type(w) is np.float64
            assert bits(g) == bits(w)


@pytest.mark.parametrize("scheme", [ArrivalScheme.MODULUS_TOTAL_CURRENT,
                                    ArrivalScheme.MODULUS_SCHRODINGER_CURRENT])
def test_scalar_phi_through_density_fn(scheme):
    cfg = PhysicsConfig(sigma0=1e-7)
    dist = pi_of_phi(cfg, scheme)
    for phi in (cfg.phi_peak, cfg.phi_peak + 1e-4, 0.5, 0.0):
        got = dist.density_fn(phi)
        jx, jz = exit_current_reference(
            cfg, np.asarray(phi, dtype=np.float64) / (2.0 * cfg.omega))
        weight = np.hypot(jx, jz) \
            if scheme is ArrivalScheme.MODULUS_TOTAL_CURRENT else np.abs(jx)
        want = np.asarray(weight) / dist.norm_constant
        assert type(got) is type(want) is np.float64
        assert bits(got) == bits(want)
