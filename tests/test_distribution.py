import io
import math
import warnings

import numpy as np
import pytest

from qclock import (AngularDistribution, ArrivalScheme, PhysicsConfig,
                    bracketing_hints, exit_current_grid, integrate, mean_phi,
                    measure, peak_phi, pi_of_phi, variance_phi,
                    write_distribution_csv)
from qclock import distribution
from qclock.cli import DEFAULT_SIGMA0_LADDER, PRESETS, RunConfig, run_table
from qclock.distribution import TWO_PI, _scheme_weight
from qclock.errors import (AmbiguousPeakError, DegenerateDistributionError,
                           UnsupportedSchemeError, ValidationError)
from qclock.quadrature import QuadratureSpec
from qclock.wavepacket import width

SET_I = PhysicsConfig()
SET_II = PhysicsConfig(d=2.0)

TOTAL = ArrivalScheme.MODULUS_TOTAL_CURRENT
SCH = ArrivalScheme.MODULUS_SCHRODINGER_CURRENT
DELTA = ArrivalScheme.SEMICLASSICAL_DELTA

# frozen 35-digit oracle values for the d=1 preset (windowed tanh-sinh
# quadrature of the closed-form current modulus)
VARIANCE_LADDER = {
    1e-4: 3.76138169292e-9,
    1e-5: 4.13404430583e-9,
    1e-7: 4.10045232473e-5,
    1e-8: 4.49641731087e-3,
}
MEAN_1E8 = 0.616903720247          # rad
DENSITY_AT_PEAK_ANGLE_1E8 = 6.23283419913  # 1/rad at phi = the calibrated angle


@pytest.fixture(scope="module")
def dist_i():
    return pi_of_phi(SET_I, TOTAL)


@pytest.fixture(scope="module")
def dist_i_1e8():
    return pi_of_phi(PhysicsConfig(sigma0=1e-8), TOTAL)


def arrival_density(cfg, scheme, t):
    """Unnormalized arrival-time density at transit time t: the scheme's
    angular weight at phi = 2*omega*t."""
    return float(_scheme_weight(cfg, scheme)(np.array([2.0 * cfg.omega * t]))[0])


def test_pi_of_t_at_transit_time():
    t = SET_I.transit_time
    st = width(SET_I, t).sigma_t
    expected = SET_I.u * (2 * math.pi * st * st) ** -0.5
    assert arrival_density(SET_I, TOTAL, t) == pytest.approx(expected, rel=1e-14)
    # the spin term vanishes there, so both modulus schemes coincide
    assert arrival_density(SET_I, SCH, t) == arrival_density(SET_I, TOTAL, t)


def test_pi_of_t_scheme_ordering():
    rng = np.random.default_rng(30)
    t0 = SET_I.transit_time
    dt = width(SET_I, t0).sigma_t / SET_I.u
    for _ in range(50):
        t = t0 + rng.uniform(-8, 8) * dt
        assert arrival_density(SET_I, TOTAL, t) >= arrival_density(SET_I, SCH, t)


def test_pi_of_phi_rejects_delta():
    with pytest.raises(UnsupportedSchemeError):
        pi_of_phi(SET_I, DELTA)


def test_distribution_normalization(dist_i, dist_i_1e8):
    for dist in (dist_i, dist_i_1e8):
        assert dist.norm_check == pytest.approx(1.0, abs=1e-8)


def test_distribution_grid_properties(dist_i):
    assert dist_i.grid[0] == 0.0
    assert dist_i.grid[-1] == pytest.approx(TWO_PI, rel=1e-15)
    assert np.all(np.diff(dist_i.grid) > 0.0)
    assert np.all(dist_i.density >= 0.0)
    assert dist_i.grid.size >= 4096


def test_peak_set_i(dist_i):
    peak_deg = math.degrees(peak_phi(dist_i))
    assert peak_deg == pytest.approx(34.94767, abs=1e-3)
    # frozen high-precision location (ternary search on the modulus)
    assert peak_deg == pytest.approx(34.9476692303, abs=1e-4)


def test_peak_set_ii():
    dist = pi_of_phi(SET_II, TOTAL)
    assert math.degrees(peak_phi(dist)) == pytest.approx(69.89534, abs=1e-3)
    assert math.degrees(peak_phi(dist)) == pytest.approx(69.8953384607, abs=1e-4)


def test_peak_location_immune_to_width_choice(dist_i):
    wide = pi_of_phi(PhysicsConfig(sigma0=1e-4), TOTAL)
    assert math.degrees(peak_phi(wide)) == pytest.approx(
        math.degrees(peak_phi(dist_i)), abs=1e-3)


def test_variance_ladder_frozen_values():
    for sigma0, expected in VARIANCE_LADDER.items():
        dist = pi_of_phi(PhysicsConfig(sigma0=sigma0), TOTAL)
        assert variance_phi(dist) == pytest.approx(expected, rel=1e-6), sigma0


def test_variance_grows_as_width_shrinks():
    ladder = sorted(VARIANCE_LADDER, reverse=True)  # 1e-4 down to 1e-8
    variances = [variance_phi(pi_of_phi(PhysicsConfig(sigma0=s), TOTAL))
                 for s in ladder]
    assert all(b > a for a, b in zip(variances, variances[1:]))


def test_mean_frozen_value(dist_i_1e8):
    assert mean_phi(dist_i_1e8) == pytest.approx(MEAN_1E8, rel=1e-8)


def test_density_regression_at_reference_angle(dist_i_1e8):
    got = float(dist_i_1e8.density_fn(np.array([SET_I.phi_peak]))[0])
    assert got == pytest.approx(DENSITY_AT_PEAK_ANGLE_1E8, rel=1e-8)


def test_schemes_agree_near_peak(dist_i):
    other = pi_of_phi(SET_I, SCH)
    w = 2 * SET_I.omega * width(SET_I, SET_I.transit_time).sigma_t / SET_I.u
    phis = SET_I.phi_peak + np.linspace(-3, 3, 41) * w
    a = dist_i.density_fn(phis)
    b = other.density_fn(phis)
    assert np.all(np.abs(a - b) <= 1e-6 * np.abs(a))


def test_time_angle_substitution(dist_i_1e8):
    cfg = PhysicsConfig(sigma0=1e-8)
    two_omega = 2.0 * cfg.omega
    t_norm = integrate(
        lambda ts: np.hypot(*exit_current_grid(cfg, ts)),
        0.0, math.pi / cfg.omega,
        split_hints=[h / two_omega for h in dist_i_1e8.split_hints])
    rng = np.random.default_rng(31)
    w = 2 * cfg.omega * width(cfg, cfg.transit_time).sigma_t / cfg.u
    for _ in range(20):
        phi = cfg.phi_peak + rng.uniform(-3, 3) * w
        t = np.array([phi / two_omega])
        expected = np.hypot(*exit_current_grid(cfg, t))[0] / (two_omega * t_norm)
        got = float(dist_i_1e8.density_fn(np.array([phi]))[0])
        assert got == pytest.approx(expected, rel=1e-8)


def test_truncated_tail_mass(dist_i, dist_i_1e8):
    assert dist_i.truncated_tail_mass == 0.0
    assert 0.0 <= dist_i_1e8.truncated_tail_mass < 1e-12


def test_csv_round_trip(tmp_path, dist_i):
    path = tmp_path / "curve.csv"
    write_distribution_csv(dist_i, path)
    text = path.read_text()
    assert "# scheme = modulus-total-current" in text
    assert "# norm_check = " in text
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "phi_rad,density_per_rad"
    data = np.loadtxt(io.StringIO("\n".join(rows[1:])), delimiter=",")
    assert data.shape == (dist_i.grid.size, 2)
    assert np.array_equal(data[:, 0], dist_i.grid)   # 17g is lossless
    assert np.array_equal(data[:, 1], dist_i.density)


def row_by_row_csv(dist):
    """The curve file's text with every row formatted from the numpy
    arrays, as the writer did before it reused any field."""
    lines = [f"# {key} = {val}" for key, val in dist.meta.items()]
    lines.append(f"# norm_check = {dist.norm_check!r}")
    lines.append(f"# truncated_tail_mass = {dist.truncated_tail_mass!r}")
    lines.append("phi_rad,density_per_rad")
    for phi, dens in zip(dist.grid, dist.density):
        lines.append(f"{phi:.17g},{dens:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scheme", [TOTAL, SCH])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_csv_bytes_match_row_by_row_formatting(tmp_path, preset, scheme):
    path = tmp_path / "curve.csv"
    for sigma0 in DEFAULT_SIGMA0_LADDER:
        dist = pi_of_phi(PhysicsConfig(d=PRESETS[preset], sigma0=sigma0),
                         scheme)
        if sigma0 == 1e-8:
            # the dense curves: nearly every density is formatted
            assert np.count_nonzero(dist.density) > 4000
        write_distribution_csv(dist, path)
        assert path.read_bytes() == row_by_row_csv(dist).encode()


# the off-preset configs pinned below, with the scheme each is pinned under
OFFPRESET_TAIL_CFG = PhysicsConfig(B=2.13349098356089, d=0.6049972697861101,
                                   sigma0=2.4877924998702192e-09,
                                   u=733022.7665461152)
OFFPRESET_P_PLUS_CFG = PhysicsConfig(B=27.43631583577038, d=0.9726634427166251,
                                     sigma0=1.1908954545986922e-08,
                                     u=67102.8746550788)


@pytest.mark.parametrize("cfg, scheme", [(OFFPRESET_TAIL_CFG, TOTAL),
                                         (OFFPRESET_P_PLUS_CFG, SCH)],
                         ids=["tail", "p-plus"])
def test_csv_bytes_of_offpreset_curves(tmp_path, cfg, scheme):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "discarded rotation-angle mass")
        dist = pi_of_phi(cfg, scheme)
    path = tmp_path / "curve.csv"
    write_distribution_csv(dist, path)
    assert path.read_bytes() == row_by_row_csv(dist).encode()


def test_csv_bytes_keep_signed_zero_density(tmp_path):
    # -0.0 == 0.0, but it must still be written as -0
    dist = AngularDistribution.from_density(
        lambda p: np.where(p < 1.0, -0.0, np.where(p < 2.0, 0.0, 1.0)))
    assert np.signbit(dist.density[dist.grid < 1.0]).all()
    assert (dist.density == 0.0).sum() > (dist.grid < 1.0).sum()
    path = tmp_path / "curve.csv"
    write_distribution_csv(dist, path)
    assert path.read_bytes() == row_by_row_csv(dist).encode()
    assert "\nphi_rad,density_per_rad\n0,-0\n" in path.read_text()


def test_csv_bytes_keep_tiny_density(tmp_path):
    # the flanks of a narrow spike run through subnormal densities
    center, spike_width = 3.0, 0.05
    dist = AngularDistribution.from_density(
        lambda p: np.exp(-(p - center) ** 2 / (2 * spike_width ** 2)),
        split_hints=bracketing_hints(center, spike_width))
    tiny = (dist.density > 0.0) & (dist.density < np.finfo(float).tiny)
    assert tiny.any()
    path = tmp_path / "curve.csv"
    write_distribution_csv(dist, path)
    assert path.read_bytes() == row_by_row_csv(dist).encode()


def test_from_density_uniform_peak_is_ambiguous():
    dist = AngularDistribution.from_density(lambda p: np.ones_like(p))
    assert dist.norm_check == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(AmbiguousPeakError):
        peak_phi(dist)


def test_from_density_rejects_zero():
    with pytest.raises(DegenerateDistributionError):
        AngularDistribution.from_density(np.zeros_like)


def test_from_density_synthetic_spike():
    center, spike_width = 2.0, 1e-5
    hints = bracketing_hints(center, spike_width)
    dist = AngularDistribution.from_density(
        lambda p: np.exp(-(p - center) ** 2 / (2 * spike_width ** 2)),
        split_hints=hints)
    assert dist.norm_check == pytest.approx(1.0, abs=1e-9)
    assert peak_phi(dist) == pytest.approx(center, abs=1e-9)
    assert variance_phi(dist) == pytest.approx(spike_width ** 2, rel=1e-6)


@pytest.mark.parametrize("center", [0.0, TWO_PI])
def test_peak_at_domain_end(center):
    # the refinement bracket is clamped at the grid ends; the peak stays
    # an analyzer angle that measure accepts
    spike_width = 1e-5
    dist = AngularDistribution.from_density(
        lambda p: np.exp(-(p - center) ** 2 / (2 * spike_width ** 2)),
        split_hints=bracketing_hints(center, spike_width))
    peak = peak_phi(dist)
    assert peak == pytest.approx(center, abs=1e-12)
    assert measure(dist, peak).p_plus == pytest.approx(1.0, abs=1e-9)


#: A packet so slow that its density still rises at one full turn; nearly
#: all of its mass arrives later and is cut off.
RISING_AT_THE_CUT = PhysicsConfig(d=3.353, u=4.22e4, B=36.4, sigma0=2.26e-8)


def test_peak_at_the_cut_with_mass_beyond_it_is_ambiguous():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "discarded rotation-angle mass")
        dist = pi_of_phi(RISING_AT_THE_CUT, TOTAL)
    assert int(np.argmax(dist.density)) == dist.grid.size - 1
    assert dist.truncated_tail_mass > 0.0
    with pytest.raises(AmbiguousPeakError, match="2\\*pi cut"):
        peak_phi(dist)


@pytest.mark.parametrize("d", [1.0, 2.0])
@pytest.mark.parametrize("sigma0", [1e-5, 1e-6, 1e-7, 1e-8])
def test_peak_search_kernel_calls(monkeypatch, d, sigma0):
    # each call is a vector of points; a one-point search loop needs 30+
    dist = pi_of_phi(PhysicsConfig(d=d, sigma0=sigma0), TOTAL)
    dist.density  # the plot tabulation is one call of its own, not the search
    calls = []

    def counting_kernel(cfg, t):
        calls.append(t)
        return exit_current_grid(cfg, t)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    peak_phi(dist)
    assert 1 <= len(calls) <= 8


def test_tail_warning_for_heavy_tail():
    # a packet near the validity-guard edge leaves ~1% of its arrival mass
    # at rotation angles beyond one full turn
    cfg = PhysicsConfig(sigma0=2.2e-9)
    with pytest.warns(UserWarning, match="discarded rotation-angle mass"):
        dist = pi_of_phi(cfg, TOTAL)
    assert dist.truncated_tail_mass > 1e-6
    assert dist.norm_check == pytest.approx(1.0, abs=1e-8)


def test_grid_includes_adaptive_nodes(dist_i):
    # the uniform 4096 grid alone cannot resolve a ~6e-5 rad spike; the
    # merged adaptive nodes must populate the peak region densely
    w = 2 * SET_I.omega * width(SET_I, SET_I.transit_time).sigma_t / SET_I.u
    inside = np.sum(np.abs(dist_i.grid - SET_I.phi_peak) < 3 * w)
    assert inside > 50


def test_measuring_cell_never_tabulates(monkeypatch, tmp_path):
    # measure reads only density_fn; the plot grid, its density and the
    # order+2 norm check are built on first read, which never comes
    dist = pi_of_phi(SET_I, TOTAL)
    measure(dist, SET_I.phi_peak)
    assert not {"grid", "density", "norm_check"} & set(vars(dist))

    points = []

    def counting_kernel(cfg, t):
        points.append(np.asarray(t).size)
        return exit_current_grid(cfg, t)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    run_table(RunConfig(sigma0_ladder=(1e-6,), output_dir=tmp_path))
    # the 4096-point uniform grid alone would exceed this
    assert 0 < sum(points) < 4096


def test_from_density_rejects_negative_at_construction():
    with pytest.raises(ValidationError, match="negative"):
        AngularDistribution.from_density(lambda p: np.cos(p) + 0.5)


def test_negative_between_nodes_raises_on_first_read_of_density():
    # a dip narrower than any gap between quadrature nodes passes the
    # normalization pass and is caught when the plot grid is tabulated
    dip = np.linspace(0.0, TWO_PI, 4096)[100]
    dist = AngularDistribution.from_density(
        lambda p: np.where(np.abs(p - dip) < 1e-13, -1.0, 1.0))
    with pytest.raises(ValidationError, match="negative"):
        dist.density


@pytest.mark.parametrize("read", ["density", "peak_phi", "write_csv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_between_nodes_raises_on_first_read(tmp_path, bad, read):
    # a non-finite value that no quadrature node sees must not reach a
    # curve file or the peak search
    spot = np.linspace(0.0, TWO_PI, 4096)[100]
    dist = AngularDistribution.from_density(
        lambda p: np.where(np.abs(p - spot) < 1e-13, bad, 1.0))
    readers = {
        "density": lambda: dist.density,
        "peak_phi": lambda: peak_phi(dist),
        "write_csv": lambda: write_distribution_csv(dist,
                                                    tmp_path / "curve.csv"),
    }
    with pytest.raises(ValidationError, match="not finite"):
        readers[read]()
    assert list(tmp_path.iterdir()) == []


def test_from_density_rejects_complex_values():
    # a complex density used to be cast to float64 with only a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ValidationError, match="real"):
            AngularDistribution.from_density(
                lambda p: (1 + np.cos(p)).astype(complex))


# Off-preset values that a last-bit change in the quadrature moves: each
# of them moved when one matrix product served every panel batch of a call.
def test_offpreset_total_scheme_tail_mass_pinned():
    dist = pi_of_phi(OFFPRESET_TAIL_CFG, TOTAL)
    assert repr(dist.truncated_tail_mass) == "5.119988921955706e-10"


def test_offpreset_schrodinger_scheme_p_plus_pinned():
    with warnings.catch_warnings():
        # most of this packet arrives beyond one turn, and pi_of_phi says so
        warnings.filterwarnings("ignore", "discarded rotation-angle mass")
        dist = pi_of_phi(OFFPRESET_P_PLUS_CFG, SCH)
    assert repr(measure(dist, peak_phi(dist)).p_plus) == "0.827728617011757"


def test_curve_bytes_do_not_depend_on_numeric_types(tmp_path):
    configs = [
        PhysicsConfig(d=1.0, u=3e5, B=10.0, sigma0=1e-5),
        PhysicsConfig(d=np.float64(1.0), u=np.float64(3e5), B=np.float64(10.0),
                      sigma0=np.float64(1e-5)),
        PhysicsConfig(d=1, u=300000, B=10, sigma0=1e-5),
    ]
    texts = []
    for i, cfg in enumerate(configs):
        path = tmp_path / f"curve_{i}.csv"
        write_distribution_csv(pi_of_phi(cfg, TOTAL), path)
        texts.append(path.read_bytes())
    assert b"# d_cm = 1.0\n" in texts[0]
    assert texts[1] == texts[0]
    assert texts[2] == texts[0]


def test_from_density_stores_hints_as_python_floats():
    dist = AngularDistribution.from_density(
        lambda p: np.ones_like(p), split_hints=[np.float64(1.5), 2, np.array(3.0)])
    assert dist.split_hints == (1.5, 2.0, 3.0)
    assert all(type(h) is float for h in dist.split_hints)
    with pytest.raises(ValidationError, match="split_hints"):
        AngularDistribution.from_density(lambda p: np.ones_like(p),
                                         split_hints=[[1.5]])
