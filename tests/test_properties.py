"""Property suite over physically valid configs off the presets.

Configs are drawn from the fuzz ranges d 0.1-5 cm, u 1e4-1e6 cm/s,
B 1-100 G, sigma0 1e-9-1e-3 cm, with a random analyzer angle.  Configs the
pipeline rejects with a typed error, or that lose more than 1e-6 of their
mass beyond one turn, are assumed away.
"""

import warnings

import numpy as np
from convolution_oracle import convolution_probs
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclock import (ArrivalScheme, PhysicsConfig, QClockError,
                    density_matrix, measure, pi_of_phi)
from qclock.distribution import TWO_PI


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
