"""Property suite over physically valid configs off the presets.

Configs are drawn from the fuzz ranges d 0.1-5 cm, u 1e4-1e6 cm/s,
B 1-100 G, sigma0 1e-9-1e-3 cm, with a random analyzer angle.  Configs the
pipeline rejects with a typed error, or that lose more than 1e-6 of their
mass beyond one turn, are assumed away.
"""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from convolution_oracle import convolution_probs
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from momentum_oracle import momentum_m1

from qclock import (ArrivalScheme, PhysicsConfig, QClockError,
                    density_matrix, exit_current_grid, measure, pi_of_phi)
from qclock.distribution import TWO_PI
from qclock.distribution import first_moment


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(d=st.floats(0.1, 5.0), u=log_uniform(4.0, 6.0), B=log_uniform(0.0, 2.0),
       sigma0=log_uniform(-9.0, -3.0),
       theta=st.floats(0.0, TWO_PI, exclude_max=True))
def test_moment_identity_on_valid_configs(d, u, B, sigma0, theta):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            dist = pi_of_phi(PhysicsConfig(d=d, u=u, B=B, sigma0=sigma0),
                             ArrivalScheme.MODULUS_TOTAL_CURRENT)
    except QClockError:
        assume(False)
    assume(dist.truncated_tail_mass <= 1e-6)

    res = measure(dist, theta)
    direct_plus, direct_minus = convolution_probs(dist, theta)
    assert abs(res.p_plus - direct_plus) <= 1e-10
    assert abs(res.p_minus - direct_minus) <= 1e-10
    assert 0.0 <= res.p_plus <= 1.0
    assert 0.0 <= res.p_minus <= 1.0
    assert np.all(np.linalg.eigvalsh(density_matrix(dist)) >= -1e-12)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(d=st.floats(0.1, 5.0), u=log_uniform(4.0, 6.0), B=log_uniform(0.0, 2.0),
       sigma0=log_uniform(-9.0, -3.0))
def test_schrodinger_m1_matches_the_momentum_oracle(d, u, B, sigma0):
    # the oracle integrates over all t, so the mass already past the exit
    # at t = 0 must be negligible; sigma0/d <= 1e-2 in these ranges
    assert 0.5 * math.erfc(d / (math.sqrt(2.0) * sigma0)) < 1e-13
    try:
        cfg = PhysicsConfig(d=d, u=u, B=B, sigma0=sigma0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            dist = pi_of_phi(cfg, ArrivalScheme.MODULUS_SCHRODINGER_CURRENT)
    except QClockError:
        assume(False)
    # the oracle integrates J_x over all t, the package |J_x| over one turn
    assume(dist.truncated_tail_mass <= 1e-13)
    jx, _jz = exit_current_grid(cfg, dist.nodes / (2.0 * cfg.omega))
    assume(np.all(jx >= 0.0))
    assert abs(first_moment(dist) - momentum_m1(cfg)) <= 1e-9


_FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report triggers a third-party deprecation; under
    # the suite's warnings-as-errors setting it must not stop the session
    (tmp_path / "test_failing_property.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), str(tmp_path / "test_failing_property.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "FAILED" in out.stdout and "test_fails" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
