import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from physics_oracle import (SpinState, bloch, chi_of_phi, evolve,
                            initial_state, overlap)

from qclock import HBAR
from qclock.errors import DomainError, ValidationError

OMEGA = 9.149e4  # representative precession rate, rad/s

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_vec(chi: SpinState) -> np.ndarray:
    return np.array([chi.up, chi.down], dtype=complex)


def test_initial_state_components():
    chi = initial_state()
    root_half = 1.0 / math.sqrt(2.0)
    assert chi.up == complex(root_half)
    assert chi.down == complex(root_half)
    assert chi.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_initial_state_points_along_x():
    s = bloch(initial_state())
    assert s.sx == pytest.approx(HBAR / 2, rel=1e-15)
    assert s.sy == 0.0
    assert s.sz == 0.0


def test_evolve_at_zero_is_initial():
    assert evolve(OMEGA, 0.0) == initial_state()


def test_evolve_half_turn_flips_x():
    s = bloch(evolve(OMEGA, math.pi / (2 * OMEGA)))
    assert s.sx == pytest.approx(-HBAR / 2, rel=1e-12)
    assert abs(s.sy) <= 1e-12 * HBAR
    assert abs(s.sz) <= 1e-15 * HBAR


def test_evolve_quarter_turn_points_along_y():
    s = bloch(evolve(OMEGA, math.pi / (4 * OMEGA)))
    assert s.sx == pytest.approx(0.0, abs=1e-12 * HBAR)
    assert s.sy == pytest.approx(HBAR / 2, rel=1e-12)


def test_evolve_unitary():
    rng = np.random.default_rng(10)
    for _ in range(100):
        t = rng.uniform(0.0, 20.0 * math.pi / OMEGA)
        assert evolve(OMEGA, t).norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_evolve_rejects_negative_time():
    with pytest.raises(DomainError):
        evolve(OMEGA, -1.0e-9)


def test_evolve_matches_matrix_exponential():
    # independent oracle: expm of the actual Hamiltonian hbar*omega*sigma_z
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = rng.uniform(0.0, 4.0 * math.pi / OMEGA)
        u_matrix = expm(-1j * OMEGA * t * SIGMA_Z)
        expected = u_matrix @ as_vec(initial_state())
        got = as_vec(evolve(OMEGA, t))
        assert got == pytest.approx(expected, abs=1e-12)


def test_bloch_against_pauli_matrices():
    rng = np.random.default_rng(12)
    for _ in range(50):
        raw = rng.normal(size=4)
        vec = (raw[:2] + 1j * raw[2:])
        vec = vec / np.linalg.norm(vec)
        chi = SpinState(up=complex(vec[0]), down=complex(vec[1]))
        s = bloch(chi)
        for got, pauli in ((s.sx, SIGMA_X), (s.sy, SIGMA_Y), (s.sz, SIGMA_Z)):
            expected = (HBAR / 2) * (vec.conj() @ pauli @ vec).real
            assert got == pytest.approx(expected, abs=1e-12 * HBAR)
        assert s.magnitude() == pytest.approx(HBAR / 2, rel=1e-12)


def test_bloch_of_z_up():
    s = bloch(SpinState(up=1.0 + 0j, down=0.0j))
    assert (s.sx, s.sy) == (0.0, 0.0)
    assert s.sz == pytest.approx(HBAR / 2, rel=1e-15)


def test_bloch_rejects_unnormalized():
    with pytest.raises(ValidationError, match="not normalized"):
        bloch(SpinState(up=1.0 + 0j, down=1.0 + 0j))


def test_larmor_azimuth_advances_at_twice_omega():
    rng = np.random.default_rng(13)
    for _ in range(100):
        t = rng.uniform(0.0, 10.0 * math.pi / OMEGA)
        s = bloch(evolve(OMEGA, t))
        azimuth = math.atan2(s.sy, s.sx) % (2 * math.pi)
        expected = (2 * OMEGA * t) % (2 * math.pi)
        delta = abs(azimuth - expected)
        assert min(delta, 2 * math.pi - delta) <= 1e-10


def test_bloch_precession_matches_closed_form():
    rng = np.random.default_rng(14)
    for _ in range(50):
        t = rng.uniform(0.0, 6.0 * math.pi / OMEGA)
        s = bloch(evolve(OMEGA, t))
        assert s.sx == pytest.approx((HBAR / 2) * math.cos(2 * OMEGA * t), abs=1e-12 * HBAR)
        assert s.sy == pytest.approx((HBAR / 2) * math.sin(2 * OMEGA * t), abs=1e-12 * HBAR)
        assert abs(s.sz) <= 1e-15 * HBAR


def test_chi_of_phi_zero_is_initial():
    assert chi_of_phi(0.0) == initial_state()


def test_chi_of_phi_pi_flips_x():
    s = bloch(chi_of_phi(math.pi))
    assert s.sx == pytest.approx(-HBAR / 2, rel=1e-12)


def test_chi_of_phi_domain():
    with pytest.raises(DomainError):
        chi_of_phi(-0.1)
    with pytest.raises(DomainError):
        chi_of_phi(2 * math.pi + 0.1)


def test_overlap_half_angle_law():
    rng = np.random.default_rng(15)
    for _ in range(100):
        theta, phi = rng.uniform(0.0, 2 * math.pi, size=2)
        p = abs(overlap(chi_of_phi(theta), chi_of_phi(phi))) ** 2
        assert p == pytest.approx(math.cos((theta - phi) / 2) ** 2, abs=1e-12)


def test_phase_quotient_identity():
    rng = np.random.default_rng(16)
    for _ in range(50):
        phi = rng.uniform(0.0, 2 * math.pi)
        via_evolution = evolve(OMEGA, phi / (2 * OMEGA))
        direct = chi_of_phi(phi)
        sa, sb = bloch(via_evolution), bloch(direct)
        assert (sa.sx, sa.sy, sa.sz) == pytest.approx(
            (sb.sx, sb.sy, sb.sz), abs=1e-12 * HBAR)
        # states agree exactly up to the global phase exp(-i*phi/2)
        ratio = via_evolution.up / direct.up
        assert ratio == pytest.approx(cmath.exp(-1j * phi / 2), abs=1e-12)
        assert via_evolution.down / direct.down == pytest.approx(ratio, abs=1e-12)
