"""The vectorized ``%.17g`` formatter against CPython's own formatting."""

from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import ArrivalScheme, PhysicsConfig, pi_of_phi
from qclock._g17 import WIDTH, _K_MAX, _K_MIN, digits17, format_g17, pow10_table
from qclock.cli import DEFAULT_SIGMA0_LADDER, PRESETS


def formatted(values):
    """The text of each row of ``format_g17(values)``, NULs removed."""
    rows = format_g17(values)
    assert rows.shape == (len(values), WIDTH) and rows.dtype == np.uint8
    lines = np.full((len(values), 1), ord("\n"), dtype=np.uint8)
    text = np.hstack((rows, lines)).tobytes().translate(None, b"\0").decode()
    return text.split("\n")[:-1]


def assert_like_cpython(values):
    expected = [f"{v:.17g}" for v in np.asarray(values, dtype=np.float64).tolist()]
    got = formatted(values)
    bad = [(v, e, g) for v, e, g in zip(np.asarray(values).tolist(), expected, got)
           if e != g]
    assert not bad, f"{len(bad)} mismatches, first: {bad[:3]}"


def is_tie(value: float) -> bool:
    """Whether |value| lies exactly halfway between two 17-digit decimals."""
    exact = Decimal(abs(value))
    scaled = exact.scaleb(16 - exact.adjusted())
    return scaled - scaled.to_integral_value(ROUND_FLOOR) == Decimal("0.5")


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_matches_cpython_on_any_finite_double(values):
    assert_like_cpython(values)


def test_seeded_sweep_over_every_binade():
    # uniform random bit patterns: every binade, subnormals and both signs
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 2 ** 64, size=250_000, dtype=np.uint64,
                          endpoint=False).view(np.float64)
    values = values[np.isfinite(values)]
    exponents = (values.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7ff)
    assert np.unique(exponents).size == 2047      # every biased exponent
    assert values.size > 200_000
    assert_like_cpython(values)


def test_next_to_every_power_of_ten():
    # floor(log10 x) is often one off here, and the exponent is corrected
    powers = np.array([10.0 ** k for k in range(-323, 309)])
    below = np.nextafter(powers, 0.0)
    values = np.concatenate((powers, below, np.nextafter(below, 0.0),
                             np.nextafter(powers, np.inf)))
    values = values[np.isfinite(values) & (values > 0.0)]
    assert_like_cpython(values)
    # besides exact ties, only an exact power of ten that the table scales
    # inexactly lands within the error bound of both ends of the range
    slow = [v for v in values[digits17(values)[2]].tolist() if not is_tie(v)]
    assert set(slow) <= {10.0 ** k for k in range(17, 23)}


EDGES = [
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (-5e-324, "-4.9406564584124654e-324"),
    (np.finfo(np.float64).max, "1.7976931348623157e+308"),
    (1.0 + 2.0 ** -17, "1.0000076293945312"),     # a tie at the 17th digit
    (1.5, "1.5"),
    (9.9999999999999995e-05, "9.9999999999999991e-05"),
    (1e-4, "0.0001"),
    (1e16, "10000000000000000"),
    (99999999999999999.0, "1e+17"),               # rounds up to one more place
    (1e-100, "1e-100"),                           # three exponent digits
    (1e-300, "1e-300"),
    (1e-5, "1.0000000000000001e-05"),
    (0.5, "0.5"),
    (-123456.789, "-123456.789"),
    (1e22, "1e+22"),
]


def test_edge_values():
    values = [value for value, _text in EDGES]
    assert formatted(values) == [text for _value, text in EDGES]
    assert_like_cpython(values)


def test_empty_input():
    assert format_g17([]).shape == (0, WIDTH)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        format_g17([1.0, bad])


# exact ties at the 17th significant digit; the last two scale by 1e23 and
# 1e24, which the table holds only to 2**-105
TIES = [1.0 + 2.0 ** -17, 1.0 + 3 * 2.0 ** -17, 3 * 2.0 ** -24, 2.0 ** -25]


def test_ties_reach_the_fallback():
    _N, _X, slow = digits17(np.array(TIES + [1.5, 0.1, 2.0 ** -20]))
    assert slow.tolist() == [True] * len(TIES) + [False] * 3
    assert all(is_tie(v) for v in TIES)
    assert_like_cpython(TIES)


def test_pow10_table_is_exact_to_2_pow_minus_105():
    table, exps = pow10_table()
    assert table.shape == (4, _K_MAX - _K_MIN + 1)
    for k, (hi, lo, head, tail), s in zip(range(_K_MIN, _K_MAX + 1),
                                          table.T.tolist(), exps.tolist()):
        assert 1.0 <= hi <= 2.0 and head + tail == hi
        value = (Fraction(hi) + Fraction(lo)) * Fraction(2) ** s
        exact = Fraction(10) ** k
        assert abs(value - exact) <= exact / 2 ** 105, k


def test_preset_curves_need_no_fallback():
    for d in PRESETS.values():
        for sigma0 in DEFAULT_SIGMA0_LADDER:
            for scheme in (ArrivalScheme.MODULUS_TOTAL_CURRENT,
                           ArrivalScheme.MODULUS_SCHRODINGER_CURRENT):
                dist = pi_of_phi(PhysicsConfig(d=d, sigma0=sigma0), scheme)
                values = np.abs(np.concatenate((dist.grid, dist.density)))
                assert not digits17(values[values > 0.0])[2].any()
