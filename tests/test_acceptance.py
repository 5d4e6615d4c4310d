"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Reference probabilities and angles are the published table/figure values;
tolerances are fixed here and nowhere else.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest
from convolution_oracle import convolution_probs
from physics_oracle import (_spin_term, bloch, current_general, evolve,
                            prob_plus, psi, rho)

from qclock import (ArrivalScheme, PhysicsConfig, density_matrix,
                    exit_current_grid, integrate, measure, peak_phi,
                    pi_of_phi, round_half_away, semiclassical_prediction,
                    variance_phi, width)
from qclock.distribution import TWO_PI
from qclock.quadrature import QuadratureSpec

TOTAL = ArrivalScheme.MODULUS_TOTAL_CURRENT

DEG = math.radians(1.0)
LADDER = (1e-5, 1e-6, 1e-7, 1e-8)
OFFSETS_DEG = (0.0, 60.0, 90.0)

# published reference tables: {sigma0: ((p+, p-) per analyzer offset)}
TABLE_I = {
    1e-5: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
    1e-6: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
    1e-7: ((0.99998, 0.00002), (0.75002, 0.24998), (0.50003, 0.49997)),
    1e-8: ((0.99886, 0.00114), (0.75242, 0.24758), (0.50345, 0.49655)),
}
TABLE_II = {
    1e-5: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
    1e-6: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
    1e-7: ((0.99995, 0.00005), (0.75004, 0.24996), (0.50006, 0.49994)),
    1e-8: ((0.99546, 0.00454), (0.75355, 0.24645), (0.50672, 0.49328)),
}
PEAK_I_DEG = 34.94767
PEAK_II_DEG = 69.89534

TABLE_TOL = 1e-5 + 1e-12  # "+-1 in the 5th decimal place"

# finite-difference-resolvable packet for the identity suite: slow carrier
# so the step rules h_x = sigma_t*1e-4, h_t = (d/u)*1e-6 resolve every phase
SLOW = PhysicsConfig(sigma0=0.05, u=0.1, d=1.0)


@lru_cache(maxsize=None)
def dist_for(d: float, sigma0: float):
    return pi_of_phi(PhysicsConfig(d=d, sigma0=sigma0), TOTAL)


@lru_cache(maxsize=None)
def measured_cells(d: float):
    cfg = PhysicsConfig(d=d)
    cells = {}
    for sigma0 in LADDER:
        dist = dist_for(d, sigma0)
        for off in OFFSETS_DEG:
            cells[(sigma0, off)] = measure(dist, cfg.phi_peak + off * DEG)
    return cells


def _report(number: int, name: str, failures: list[str],
            note: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{suffix}")
    if failures:
        pytest.fail(f"criterion {number} ({name}):\n  " + "\n  ".join(failures))


def _check_table(d: float, table: dict) -> list[str]:
    failures = []
    cells = measured_cells(d)
    for sigma0, row in table.items():
        for off, (ref_plus, ref_minus) in zip(OFFSETS_DEG, row):
            got = cells[(sigma0, off)]
            for label, value, ref in (("p_plus", got.p_plus, ref_plus),
                                      ("p_minus", got.p_minus, ref_minus)):
                if abs(value - ref) > TABLE_TOL:
                    failures.append(
                        f"sigma0={sigma0:g} theta=peak+{off:g}deg {label}: "
                        f"computed {value:.7f} vs reference {ref:.5f} "
                        f"(diff {value - ref:+.2e}, tol 1e-05)")
    return failures


def test_criterion_1_table_i_reproduction():
    start = time.perf_counter()
    failures = _check_table(1.0, TABLE_I)
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, "table I reproduction (24 values, +-1e-5)", failures,
            note=f"{elapsed:.2f}s")


def test_criterion_2_table_ii_reproduction():
    failures = _check_table(2.0, TABLE_II)
    _report(2, "table II reproduction (24 values, +-1e-5)", failures)


def test_criterion_3_figure_peaks_and_variance():
    failures = []
    for d, ref in ((1.0, PEAK_I_DEG), (2.0, PEAK_II_DEG)):
        for sigma0 in (1e-5, 1e-4):
            got = math.degrees(peak_phi(dist_for(d, sigma0)))
            if abs(got - ref) > 1e-3:
                failures.append(f"peak d={d:g} sigma0={sigma0:g}: "
                                f"{got:.5f} deg vs {ref:.5f} +- 0.001")
    for d in (1.0, 2.0):
        ladder = (1e-4, 1e-5, 1e-7, 1e-8)  # decreasing sigma0
        variances = [variance_phi(dist_for(d, s)) for s in ladder]
        for (s_a, v_a), (s_b, v_b) in zip(zip(ladder, variances),
                                          zip(ladder[1:], variances[1:])):
            if not v_b > v_a:
                failures.append(
                    f"variance not strictly increasing at d={d:g}: "
                    f"var({s_b:g})={v_b:.3e} <= var({s_a:g})={v_a:.3e}")
    _report(3, "figure peaks +-0.001deg, variance strictly increasing",
            failures)


def test_criterion_4_normalization_suite():
    failures = []
    for d in (1.0, 2.0):
        for sigma0 in LADDER + (1e-4,):
            dist = dist_for(d, sigma0)
            if abs(dist.norm_check - 1.0) > 1e-8:
                failures.append(f"norm_check d={d:g} sigma0={sigma0:g}: "
                                f"{dist.norm_check!r}")
            w = density_matrix(dist)
            trace = np.trace(w).real
            if abs(trace - 1.0) > 1e-8:
                failures.append(f"trace d={d:g} sigma0={sigma0:g}: {trace!r}")
            eigenvalues = np.linalg.eigvalsh(w)
            if not np.all(eigenvalues >= -1e-12):
                failures.append(f"eigenvalues d={d:g} sigma0={sigma0:g}: "
                                f"{eigenvalues!r}")
        for (sigma0, off), got in measured_cells(d).items():
            if abs(got.p_plus + got.p_minus - 1.0) > 1e-10:
                failures.append(
                    f"p+ + p- != 1 at d={d:g} sigma0={sigma0:g} "
                    f"offset={off:g}: {got.p_plus + got.p_minus!r}")
    _report(4, "normalization suite (densities, probabilities, matrices)",
            failures)


def test_criterion_5_analytic_identities():
    failures = []
    rng = np.random.default_rng(123)

    # continuity: d rho/dt + d jx/dx = 0 by central differences
    t0 = SLOW.transit_time
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.2, 1.8) * t0
        st = width(SLOW, t).sigma_t
        x = SLOW.u * t + rng.uniform(-3, 3) * st
        hx, ht = st * 1e-4, t0 * 1e-6
        chi = evolve(SLOW.omega, t)
        drho_dt = (rho(SLOW, x, t + ht) - rho(SLOW, x, t - ht)) / (2 * ht)
        djx_dx = (current_general(SLOW, x + hx, t, chi)[0]
                  - current_general(SLOW, x - hx, t, chi)[0]) / (2 * hx)
        worst = max(worst, abs(drho_dt + djx_dx) / max(abs(drho_dt), abs(djx_dx)))
    if worst >= 1e-5:
        failures.append(f"continuity residual {worst:.2e} >= 1e-5")

    # spin-term divergence: (grad rho x s)/m0 = curl(rho s)/m0 for a spin
    # uniform in space, so it is divergence-free exactly when it has that
    # form; check the form against central differences of rho
    for _ in range(20):
        t = rng.uniform(0.9, 1.1) * SLOW.transit_time
        x = SLOW.u * t * 0.99
        chi = evolve(SLOW.omega, t)
        jy, jz = _spin_term(SLOW, x, t, chi)
        st = width(SLOW, t).sigma_t
        h = st * 1e-4
        grad_rho = (rho(SLOW, x + h, t) - rho(SLOW, x - h, t)) / (2 * h)
        s = bloch(chi, SLOW.hbar)
        residual = abs(jy + grad_rho * s.sz / SLOW.m0) \
            + abs(jz - grad_rho * s.sy / SLOW.m0)
        scale = rho(SLOW, x, t) / st * s.magnitude() / SLOW.m0
        if residual > 1e-6 * scale:
            failures.append(f"spin divergence residual {residual / scale:.2e}")

    # |psi|^2 == rho
    cfg = PhysicsConfig()
    for _ in range(100):
        t = rng.uniform(0.0, 2.0) * cfg.transit_time
        st = width(cfg, t).sigma_t
        x = cfg.u * t + rng.uniform(-8, 8) * st
        lhs, rhs = abs(psi(cfg, x, t)) ** 2, rho(cfg, x, t)
        if abs(lhs - rhs) > 1e-12 * rhs:
            failures.append(f"|psi|^2 vs rho at (x={x!r}, t={t!r}): "
                            f"{lhs!r} vs {rhs!r}")

    # closed-form exit current vs general assembly
    dt = width(cfg, cfg.transit_time).sigma_t / cfg.u
    ts = cfg.transit_time + rng.uniform(-8, 8, size=100) * dt
    jx, jz = exit_current_grid(cfg, ts)
    for t, ax, az in zip(ts, jx, jz):
        bx, bz = current_general(cfg, cfg.d, t, evolve(cfg.omega, t))
        scale = max(math.hypot(ax, az), 1e-300)
        err = max(abs(ax - bx), abs(az - bz))
        if err > 1e-12 * scale:
            failures.append(f"exit vs general at t={t!r}: {err / scale:.2e}")

    # moment identity and density-matrix route vs direct convolution,
    # 50 analyzer angles
    dist = dist_for(1.0, 1e-8)
    w = density_matrix(dist)
    for _ in range(50):
        theta = rng.uniform(0.0, TWO_PI)
        direct, _ = convolution_probs(dist, theta)
        for label, value in (("Tr(W P)", prob_plus(w, theta)),
                             ("moment identity", measure(dist, theta).p_plus)):
            if abs(direct - value) > 1e-9:
                failures.append(f"{label} vs convolution at theta={theta!r}: "
                                f"{abs(direct - value):.2e}")

    _report(5, "analytic identity suite", failures)


def test_criterion_6_semiclassical_limit():
    failures = []
    for d in (1.0, 2.0):
        cfg = PhysicsConfig(d=d)
        dist = dist_for(d, 1e-5)
        for off in OFFSETS_DEG:
            theta = cfg.phi_peak + off * DEG
            got = measure(dist, theta)
            ref = semiclassical_prediction(cfg, theta)
            for label, a, b in (("p_plus", got.p_plus, ref.p_plus),
                                ("p_minus", got.p_minus, ref.p_minus)):
                if round_half_away(a) != round_half_away(b) \
                        or abs(a - b) > TABLE_TOL:
                    failures.append(
                        f"d={d:g} offset={off:g} {label}: scheme {a:.7f} vs "
                        f"semiclassical {b:.7f}")
    _report(6, "semiclassical limit at sigma0=1e-5 (5 decimals)", failures)


def test_criterion_7_quadrature_oracles():
    failures = []
    spec = QuadratureSpec(rel_tol=1e-10)

    value = integrate(lambda x: np.sin(x / 2) ** 2, 0.0, TWO_PI, spec)
    if abs(value - math.pi) > 1e-10 * math.pi:
        failures.append(f"sin^2 oracle: {value!r} vs pi")

    value = integrate(np.exp, 0.0, 1.0, spec)
    if abs(value - (math.e - 1.0)) > 1e-10 * (math.e - 1.0):
        failures.append(f"exp oracle: {value!r} vs e-1")

    gwidth, center = 1e-3, 0.61
    hints = [center + s * k * gwidth for s in (-1, 1) for k in (1, 4, 16, 64)]
    value = integrate(
        lambda x: np.exp(-(x - center) ** 2 / (2 * gwidth * gwidth)),
        0.0, TWO_PI, spec, split_hints=hints)
    root2w = math.sqrt(2.0) * gwidth
    expected = gwidth * math.sqrt(math.pi / 2.0) * (
        math.erf((TWO_PI - center) / root2w) + math.erf(center / root2w))
    if abs(value - expected) > 1e-10 * expected:
        failures.append(f"gaussian/erf oracle: {value!r} vs {expected!r}")

    _report(7, "quadrature oracle suite at rel_tol=1e-10", failures)
