import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from kernel_oracle import exit_current_reference
from physics_oracle import (SpinState, _spin_term, bloch, current_general,
                            evolve, psi, rho)

from qclock import (ArrivalScheme, DegenerateDistributionError,
                    PhysicsConfig, QClockError, ValidationError,
                    exit_current_grid, integrate, pi_of_phi, width)
from qclock.cli import DEFAULT_SIGMA0_LADDER, PRESETS
from qclock.current import exit_current_support
from qclock.distribution import scheme_weight
from qclock.wavepacket import _EXP_FLOOR, HBAR

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
            # a 2-D array keeps its shape and every bit
            t2 = t.reshape(2, -1)
            got2 = exit_current_grid(cfg, t2)
            want2 = exit_current_reference(cfg, t2)
            for g2, w2, g in zip(got2, want2, got):
                assert g2.shape == w2.shape == t2.shape
                assert np.array_equal(bits(g2), bits(w2))
                assert np.array_equal(bits(g2), bits(g.reshape(2, -1)))


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


def kernel_exponent(cfg, t):
    """The density exponent of ``exit_current_grid``, in its expressions."""
    t = np.asarray(t, dtype=np.float64)
    spread = cfg.hbar / (2.0 * cfg.m0 * cfg.sigma0 * cfg.sigma0) * t
    sigma_t2 = (cfg.sigma0 * cfg.sigma0) * (1.0 + spread * spread)
    miss = cfg.d - cfg.u * t
    return -(miss * miss) / (2.0 * sigma_t2)


def outside_support_times(cfg, steps=32):
    """Times just outside ``exit_current_support``: the kernel's t at the
    ``steps`` doubles of phi = 2*omega*t beyond each finite end (as at the
    plot-grid points next to it), and the ``steps`` doubles of t itself."""
    two_omega = 2.0 * cfg.omega
    t_lo, t_hi = exit_current_support(cfg)
    times = []
    for end, away in ((t_lo, -math.inf), (t_hi, math.inf)):
        if not 0.0 < end < math.inf:
            continue
        phi, t = two_omega * end, end
        for _ in range(steps):
            phi, t = math.nextafter(phi, away), math.nextafter(t, away)
            times += [phi / two_omega, t]
    return np.array([t for t in times if t >= 0.0])


def assert_flushed_outside_support(cfg):
    t = outside_support_times(cfg)
    assert np.all(kernel_exponent(cfg, t) < _EXP_FLOOR)
    jx, jz = exit_current_grid(cfg, t)
    assert np.all(jx == 0.0) and np.all(jz == 0.0)
    modulus = np.hypot(jx, jz)
    assert np.array_equal(bits(modulus), bits(np.zeros_like(t)))
    assert np.array_equal(bits(np.abs(jx)), bits(np.zeros_like(t)))
    return t.size


@pytest.mark.parametrize("cfg", PRESET_CELLS,
                         ids=[f"d{c.d:g}-s{c.sigma0:g}" for c in PRESET_CELLS])
def test_current_is_flushed_just_outside_its_support_on_presets(cfg):
    t_lo, t_hi = exit_current_support(cfg)
    assert 0.0 < t_lo < cfg.transit_time < t_hi
    assert assert_flushed_outside_support(cfg) > 0
    # the ends are the floor's crossings, not far beyond them
    assert kernel_exponent(cfg, t_lo) > _EXP_FLOOR - 2.0
    if t_hi < math.inf:
        assert kernel_exponent(cfg, t_hi) > _EXP_FLOOR - 2.0


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(d=st.floats(0.01, 10.0),
       widths=st.floats(0.4, 15.5).map(lambda e: 10.0 ** e),
       u=st.floats(0.0, 8.0).map(lambda e: 10.0 ** e),
       spread=st.floats(0.5, 20.0).map(lambda e: 10.0 ** e),
       B=st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e))
def test_current_is_flushed_just_outside_its_support(d, widths, u, spread, B):
    # d/sigma0 up to 3e15, where rounding d - u*t moves the exponent most;
    # m0 is set from m0*sigma0*u/hbar so that most draws are valid configs
    sigma0 = d / widths
    try:
        cfg = PhysicsConfig(d=d, sigma0=sigma0, u=u, B=B,
                            m0=spread * HBAR / (sigma0 * u))
    except QClockError:
        assume(False)
    assert_flushed_outside_support(cfg)


# Packets of d/sigma0 ~ 1e15 that barely spread, where rounding d - u*t
# moves the kernel's exponent at the floor by up to 32 (found by a seeded
# search): without the margin's d/sigma0 part their current is not flushed
# just outside the support
ROUNDING_CELLS = [
    PhysicsConfig(d=2.930053824397662, sigma0=4.580022109448539e-16,
                  m0=0.001660835851859392, u=12459367.301236536),
    PhysicsConfig(d=4.5333498697157735, sigma0=5.316288834652102e-16,
                  m0=0.004162156869194207, u=995588.547340245),
    PhysicsConfig(d=1.8956713493640318, sigma0=5.241633169177635e-16,
                  m0=0.012393028687131219, u=27372995.71617707),
]


@pytest.mark.parametrize("cfg", ROUNDING_CELLS)
def test_current_is_flushed_just_outside_its_support_despite_rounding(cfg):
    assert assert_flushed_outside_support(cfg) > 0


def test_support_reaches_each_branch():
    # t_lo = 0: the exponent at t = 0, -d^2/(2*sigma0^2), is above the floor
    wide = PhysicsConfig(d=0.02, sigma0=1e-3)
    assert -wide.d ** 2 / (2.0 * wide.sigma0 ** 2) > _EXP_FLOOR
    t_lo, t_hi = exit_current_support(wide)
    assert t_lo == 0.0 and wide.transit_time < t_hi < math.inf
    jx, jz = exit_current_grid(wide, np.array([0.0, t_hi * 2.0, t_hi * 1e3]))
    assert jx[0] > 0.0 and np.all(jx[1:] == 0.0) and np.all(jz[1:] == 0.0)
    # t_hi = inf: u^2 <= 2*|floor|*sigma0^2*c^2, the packet outruns the floor
    slow = PhysicsConfig(sigma0=5e-9, u=1e6)
    c = slow.hbar / (2.0 * slow.m0 * slow.sigma0 ** 2)
    assert slow.u ** 2 <= 2.0 * -_EXP_FLOOR * slow.sigma0 ** 2 * c ** 2
    t_lo, t_hi = exit_current_support(slow)
    assert 0.0 < t_lo < slow.transit_time and t_hi == math.inf
    for cfg in (wide, slow):
        assert assert_flushed_outside_support(cfg) > 0


def test_support_of_an_overflowing_config_is_the_whole_half_line():
    # c^2 and u^2 overflow, so neither root can be formed
    cfg = PhysicsConfig(sigma0=1e-100, m0=1e-83, u=1e160)
    assert exit_current_support(cfg) == (0.0, math.inf)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(d=st.floats(0.1, 5.0), u=st.floats(4.0, 6.0).map(lambda e: 10.0 ** e),
       B=st.floats(0.0, 2.0).map(lambda e: 10.0 ** e),
       widths=st.lists(st.floats(-9.0, -0.5), min_size=3, max_size=3)
       .map(sorted),
       shift=st.floats(-4.0, 4.0))
def test_a_batch_kernel_call_gives_each_width_the_bits_it_has_alone(
        d, u, B, widths, shift):
    # a call over several widths decides _fits at its two extremes only.
    # Its bound crosses the ceiling near |t| = 1e150*sigma0/u, where
    # (u*t/sigma0)^2 reaches 1e300; the times reach within a few decades
    # of that for the middle width, so that the widths of one call fall
    # on either side of it.  Run under the warnings-as-errors filter, so
    # that an overflow at any width of the call fails it too
    sigma0 = [10.0 ** e for e in widths]
    try:
        cells = [PhysicsConfig(d=d, u=u, B=B, sigma0=s) for s in sigma0]
    except QClockError:
        assume(False)
    reach = 10.0 ** (150.0 + shift) * sigma0[1] / u
    rng = np.random.default_rng(31)
    t = np.concatenate((in_packet_times(cells[1], rng, 8),
                        np.geomspace(1e-12, reach, 8), [-reach]))
    # node-major, as a ladder's call: column j holds the points of width j
    jx, jz = exit_current_grid(cells[0], np.repeat(t[:, None], 3, axis=1),
                               sigma0=np.array(sigma0))
    for j, cell in enumerate(cells):
        want_jx, want_jz = exit_current_grid(cell, t)
        assert bits(jx[:, j]).tolist() == bits(want_jx).tolist()
        assert bits(jz[:, j]).tolist() == bits(want_jz).tolist()


#: Moments so small that one turn of the spin takes 3e148 s or more, past
#: the 4e141 s at which the kernel's arithmetic starts to overflow.
SLOW_SPIN_MU = [1e-200, 2e-176]


@pytest.mark.parametrize("mu", SLOW_SPIN_MU)
def test_kernel_gives_exact_zeros_where_it_overflows(mu):
    # run under the warnings-as-errors filter: no overflow warning leaks
    cfg = PhysicsConfig(mu=mu)
    for t in (1e160, 1e300):
        jx, jz = exit_current_grid(cfg, t)
        assert type(jx) is type(jz) is np.float64
        assert jx == 0.0 and jz == 0.0
    early = in_packet_times(cfg, np.random.default_rng(22), 6)
    t = np.concatenate((early, [1e160, 1e300, np.inf, np.nan]))
    jx, jz = exit_current_grid(cfg, t)
    want_jx, want_jz = exit_current_reference(cfg, early)
    # every finite value keeps its bits; a NaN time still gives NaN
    assert bits(jx[:6]).tolist() == bits(want_jx).tolist()
    assert bits(jz[:6]).tolist() == bits(want_jz).tolist()
    assert np.all(jx[:6] > 0.0)
    assert jx[6:9].tolist() == jz[6:9].tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(jx[9]) and np.isnan(jz[9])


@pytest.mark.parametrize("mu", SLOW_SPIN_MU)
@pytest.mark.parametrize("scheme", [ArrivalScheme.MODULUS_TOTAL_CURRENT,
                                    ArrivalScheme.MODULUS_SCHRODINGER_CURRENT])
def test_a_spin_too_slow_for_the_kernel_still_gives_a_distribution(mu,
                                                                   scheme):
    # the norm pass evaluates phi where t = phi/(2*omega) overflows the
    # kernel; the packet arrives within the support near phi_peak
    cfg = PhysicsConfig(mu=mu)
    dist = pi_of_phi(cfg, scheme)
    assert dist.truncated_tail_mass == 0.0
    assert dist.norm_check == pytest.approx(1.0, abs=1e-8)
    lo, hi = dist.support
    assert lo < cfg.phi_peak < hi < 1e-150


#: A valid config whose spike is too tall for a double: at t = d/u the
#: density is about 4e9 and jx = density*u overflows.
TALL_SPIKE = PhysicsConfig(u=1e300, sigma0=1e-10, d=1.0)


def test_an_overflowing_spike_is_not_flushed():
    # the late time sends the call down the overflow path; the spike's
    # density is not flushed there, so its inf comes out as it is
    cfg = TALL_SPIKE
    jx, jz = exit_current_grid(cfg, np.array([cfg.transit_time, 1e160]))
    assert jx[0] == np.inf and np.isfinite(jz[0])
    assert jx[1] == 0.0 and jz[1] == 0.0


@pytest.mark.parametrize("scheme", [ArrivalScheme.MODULUS_TOTAL_CURRENT,
                                    ArrivalScheme.MODULUS_SCHRODINGER_CURRENT])
def test_an_overflowing_spike_still_fails_the_quadrature(scheme):
    with pytest.raises(ValidationError,
                       match="integrand returned a non-finite value"):
        pi_of_phi(TALL_SPIKE, scheme)


#: A valid config whose velocity factor's constant 4*m0^2*sigma0^4
#: underflows to 0, so that its denominator is 0 wherever (hbar*t)^2
#: underflows too.
UNDERFLOWING_DENOMINATOR = PhysicsConfig(hbar=1e-100, sigma0=1e-70)


def test_kernel_gives_exact_zeros_where_its_denominator_underflows():
    # run under the warnings-as-errors filter: no 0/0 or x/0 warning leaks
    cfg = UNDERFLOWING_DENOMINATOR
    m0, sigma0 = cfg.m0, cfg.sigma0
    assert 4.0 * (m0 * m0) * (sigma0 * sigma0 * sigma0 * sigma0) == 0.0
    early = np.array([0.0, 1e-200, 1e-63])  # 0/0, 0/0 and x/0
    for t in (*early, early):
        jx, jz = exit_current_grid(cfg, t)
        assert bits(jx).tolist() == bits(np.zeros_like(t)).tolist()
        assert np.all(jz == 0.0)
    # where the density is not flushed, every value keeps its bits
    times = in_packet_times(cfg, np.random.default_rng(24), 8)
    jx, jz = exit_current_grid(cfg, times)
    want_jx, want_jz = exit_current_reference(cfg, times)
    assert np.all(jx > 0.0)
    assert bits(jx).tolist() == bits(want_jx).tolist()
    assert bits(jz).tolist() == bits(want_jz).tolist()


@pytest.mark.parametrize("scheme", [ArrivalScheme.MODULUS_TOTAL_CURRENT,
                                    ArrivalScheme.MODULUS_SCHRODINGER_CURRENT])
def test_an_underflowing_denominator_gives_no_first_turn_mass(scheme):
    # the spin turns 1e78 rad/s: the packet arrives long past one turn
    cfg = UNDERFLOWING_DENOMINATOR
    with pytest.raises(DegenerateDistributionError,
                       match=r"density integrates to 0\.0; nothing"):
        pi_of_phi(cfg, scheme)
    # the norm pass the support check replaces gives +0.0, not a NaN
    weight = scheme_weight(cfg, scheme)
    total = integrate(weight, 0.0, 2.0 * math.pi)
    assert total == 0.0 and math.copysign(1.0, total) == 1.0


@pytest.mark.parametrize("cfg", PRESET_CELLS,
                         ids=[f"d{c.d:g}-s{c.sigma0:g}" for c in PRESET_CELLS])
def test_kernel_enters_no_errstate_where_nothing_overflows(cfg, monkeypatch):
    def refuse(**_kwargs):
        raise AssertionError("np.errstate entered")
    times = in_packet_times(cfg, np.random.default_rng(23), 16)
    monkeypatch.setattr(np, "errstate", refuse)
    exit_current_grid(cfg, times)
    exit_current_grid(cfg, cfg.transit_time)
    exit_current_grid(cfg, np.empty(0))
    pi_of_phi(cfg, ArrivalScheme.MODULUS_TOTAL_CURRENT)
