import gc
import inspect
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from library_transcript import offpreset_cells, preset_cells

from qclock import (AngularDistribution, ArrivalScheme, PhysicsConfig,
                    bracketing_hints, exit_current_grid, integrate,
                    integrate_full, mean_phi,
                    measure, peak_phi, pi_of_phi, variance_phi,
                    write_distribution_csv)
from qclock import distribution
from qclock.cli import DEFAULT_SIGMA0_LADDER, PRESETS, RunConfig, run_table
from qclock.current import exit_current_support
from qclock.distribution import TWO_PI, scheme_weight
from qclock.errors import (AmbiguousPeakError, ConvergenceError,
                           DegenerateDistributionError, QClockError,
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
    return float(scheme_weight(cfg, scheme)(np.array([2.0 * cfg.omega * t]))[0])


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
    with pytest.raises(UnsupportedSchemeError, match="semiclassical delta"):
        pi_of_phi(SET_I, DELTA)


def test_pi_of_phi_names_a_scheme_of_the_wrong_type():
    with pytest.raises(ValidationError, match="ArrivalScheme, not str"):
        pi_of_phi(SET_I, TOTAL.value)


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


#: Every boundary that ``str.splitlines`` splits a line on.
LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")


def test_every_curve_header_line_is_a_comment(tmp_path):
    # each meta pair is one comment line, however odd its text; a line
    # break in a key or a value is refused when the distribution is built
    meta = {"note": "tab\there", "\u00e9": "\u00fcn", 1.5: None, "": ""}
    dist = AngularDistribution.from_density(lambda p: 1.0 + np.cos(p),
                                            meta=meta)
    path = tmp_path / "curve.csv"
    write_distribution_csv(dist, path)
    text = path.read_text(encoding="utf-8")
    header = text[:text.index("phi_rad,density_per_rad\n")].splitlines()
    assert len(header) == len(meta) + 2
    assert all(line.startswith("# ") for line in header)
    for brk in LINE_BREAKS:
        for bad in ({f"a{brk}b": "x"}, {"note": f"a{brk}b"},
                    {"note": f"ab{brk}"}, {f"{brk}": "x"}):
            with pytest.raises(ValidationError, match="line break"):
                AngularDistribution.from_density(np.ones_like, meta=bad)


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


@pytest.mark.parametrize("center, log_slope, want", [
    (2.0003, lambda p: math.tanh((2.0003 - p) / 1e-4), 2.0003),
    (TWO_PI, lambda p: 1.0, math.nextafter(TWO_PI, 0.0)),
    (0.0, lambda p: -1.0, 0.0),
], ids=["root", "rising-to-2pi", "falling-from-0"])
def test_peak_from_a_log_slope(center, log_slope, want):
    # the root of the log-slope, or the end it points to, kept below 2*pi;
    # the hints are off-center, so no grid point lies on the root
    spike_width = 1e-4
    dist = AngularDistribution.from_density(
        lambda p: np.exp(-(p - center) ** 2 / (2 * spike_width ** 2)),
        split_hints=bracketing_hints(center + 0.3 * spike_width, spike_width))
    peak = peak_phi(replace(dist, log_slope=log_slope))
    assert abs(peak - want) <= math.ulp(want)
    assert measure(dist, peak).p_plus == pytest.approx(1.0, abs=1e-7)


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
    # the bracket is read from the norm pass's first level and the root
    # from the closed-form log-slope: no density call and no tabulation
    dist = pi_of_phi(PhysicsConfig(d=d, sigma0=sigma0), TOTAL)
    calls = []

    def counting_kernel(cfg, t):
        calls.append(t)
        return exit_current_grid(cfg, t)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    peak_phi(dist)
    assert calls == []
    assert "grid" not in vars(dist) and "density" not in vars(dist)


def test_peak_search_rounds_without_a_log_slope():
    # each round is a vector of points; a one-point search loop needs 30+
    center, spike_width = 2.0, 1e-5
    calls = []

    def spike(p):
        calls.append(p.size)
        return np.exp(-(p - center) ** 2 / (2 * spike_width ** 2))

    dist = AngularDistribution.from_density(
        spike, split_hints=bracketing_hints(center, spike_width))
    assert dist.log_slope is None
    dist.density  # the plot tabulation is one call of its own, not the search
    calls.clear()
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


def test_the_tail_warning_points_at_the_caller_of_pi_of_phi():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        pi_of_phi(PhysicsConfig(sigma0=2.2e-9), TOTAL)
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


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


@pytest.mark.parametrize("density", [
    lambda p: np.stack((np.ones_like(p),) * 2),
    lambda p: np.ones_like(p)[:, None],
    lambda p: 1.0,
], ids=["two-rows", "column", "scalar"])
def test_from_density_rejects_output_shaped_unlike_its_input(density):
    # k rows would integrate to k values, not to one norm
    with pytest.raises(ValidationError, match="one value per point"):
        AngularDistribution.from_density(density)


# Off-preset values that a last-bit change in the quadrature's panel sums
# moves.  The p_plus is read at peak_phi, the root of the closed-form
# log-slope, within 1 ulp of mpmath's 5.82833775305272257 rad.
def test_offpreset_total_scheme_tail_mass_pinned():
    dist = pi_of_phi(OFFPRESET_TAIL_CFG, TOTAL)
    assert repr(dist.truncated_tail_mass) == "5.119988921955708e-10"


def test_offpreset_schrodinger_scheme_p_plus_pinned():
    with warnings.catch_warnings():
        # most of this packet arrives beyond one turn, and pi_of_phi says so
        warnings.filterwarnings("ignore", "discarded rotation-angle mass")
        dist = pi_of_phi(OFFPRESET_P_PLUS_CFG, SCH)
    assert repr(measure(dist, peak_phi(dist)).p_plus) == "0.8277286154450774"


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


# The current's support: the plot tabulation and the tail pass evaluate the
# kernel only where it is not flushed to zero, and give the same bits.

def built_cells(cells):
    """(cfg, scheme, dist) of each (physics keywords, scheme) cell that
    ``pi_of_phi`` builds; a typed error drops the cell."""
    built = []
    for physics, scheme in cells:
        try:
            cfg = PhysicsConfig(**physics)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                built.append((cfg, scheme, pi_of_phi(cfg, scheme)))
        except QClockError:
            pass
    return built


# t_lo = 0 lies outside the fuzz box (sigma0 >= d/37 there), so these add it
BRANCH_CELLS = [({"d": 0.02, "sigma0": 1e-3}, TOTAL),
                ({"d": 0.05, "sigma0": 2e-3, "u": 1e5}, SCH),
                ({"sigma0": 5e-9, "u": 1e6}, TOTAL)]


@pytest.fixture(scope="module")
def support_cells():
    cells = [*preset_cells(), *offpreset_cells(480, 22), *BRANCH_CELLS]
    return built_cells(cells)


def test_support_cells_cover_each_branch(support_cells):
    ends = [dist.support for _cfg, _scheme, dist in support_cells]
    assert len(ends) >= 16 + 200 + len(BRANCH_CELLS)
    assert any(lo == 0.0 for lo, _hi in ends)
    assert any(hi == math.inf for _lo, hi in ends)
    assert any(hi <= TWO_PI for _lo, hi in ends)
    assert any(TWO_PI < hi < math.inf for _lo, hi in ends)


def test_density_has_the_bits_of_the_whole_grid(support_cells):
    for cfg, scheme, dist in support_cells:
        two_omega = 2.0 * cfg.omega
        t_lo, t_hi = exit_current_support(cfg)
        assert dist.support == (two_omega * t_lo, two_omega * t_hi)
        whole = dist.density_fn(dist.grid)
        assert np.array_equal(dist.density.view(np.uint64),
                              whole.view(np.uint64))


def test_tail_pass_runs_only_where_the_support_passes_two_pi(support_cells):
    skipped = 0
    for cfg, scheme, dist in support_cells:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tail = integrate(scheme_weight(cfg, scheme), TWO_PI,
                             4.0 * TWO_PI, dist.quad)
        # the tail the full pass would give
        assert repr(dist.truncated_tail_mass) == \
            repr(tail / (dist.norm_constant + tail))
        if dist.support[1] <= TWO_PI:  # the pass was skipped
            skipped += 1
            assert tail == 0.0 and math.copysign(1.0, tail) == 1.0
    assert skipped >= 100


def test_density_evaluates_one_grid_point_beyond_the_support():
    # phi strictly inside (0, 2*pi) at both ends, so both ends are widened
    dist = pi_of_phi(PhysicsConfig(sigma0=1e-7), TOTAL)
    lo, hi = dist.support
    assert 0.0 < lo < hi < TWO_PI
    seen = []

    def spy(phi):
        seen.append(np.array(phi))
        return dist.density_fn(phi)

    fresh = replace(dist, density_fn=spy)
    density = fresh.density
    (phi,) = seen
    grid = fresh.grid
    start = int(np.searchsorted(grid, phi[0]))
    assert np.array_equal(phi, grid[start:start + phi.size])
    assert phi[0] < lo <= phi[1] and phi[-2] <= hi < phi[-1]
    assert density[phi[0] == grid].item() == 0.0
    assert density[phi[-1] == grid].item() == 0.0
    assert phi.size < grid.size // 4
    assert np.all(density[:start] == 0.0)
    assert np.all(density[start + phi.size:] == 0.0)


def test_from_density_tabulates_the_whole_grid():
    dist = AngularDistribution.from_density(lambda p: 1.0 + np.cos(p))
    assert dist.support == (-math.inf, math.inf)
    assert np.array_equal(dist.density, dist.density_fn(dist.grid))


def test_grid_is_the_union_of_uniform_points_and_nodes():
    uniform = distribution._uniform_grid()
    spike = AngularDistribution.from_density(
        lambda p: np.exp(-(p - 1.0) ** 2 / 2e-8),
        split_hints=bracketing_hints(1.0, 1e-4))
    assert np.array_equal(spike.grid, np.union1d(uniform, spike.nodes))
    # nodes that repeat uniform points, or each other, appear once
    shared = np.concatenate((uniform[100:103], uniform[100:103], [0.5]))
    dup = replace(spike, nodes=np.sort(shared))
    assert np.array_equal(dup.grid, np.union1d(uniform, dup.nodes))
    assert dup.grid.size == uniform.size + 1


def test_cached_arrays_are_read_only(dist_i):
    for arr in (dist_i.grid, dist_i.density, distribution._uniform_grid()):
        with pytest.raises(ValueError):
            arr[:] = 0.0


# A first turn with no mass: the support check refuses it with the error of
# the norm pass it replaces.

NOTHING_TO_NORMALIZE = r"^density integrates to 0\.0; nothing to normalize$"


def norm_pass_hints(cfg):
    """The bracketing hints that ``pi_of_phi`` seeds its norm pass with."""
    spike_width = (2.0 * cfg.omega * width(cfg, cfg.transit_time).sigma_t
                   / cfg.u)
    return bracketing_hints(cfg.phi_peak, spike_width)


def valid_configs(cells):
    """The ``PhysicsConfig`` of each cell that is a valid config."""
    configs = []
    for physics, _scheme in cells:
        try:
            configs.append(PhysicsConfig(**physics))
        except ValidationError:
            pass
    return configs


def test_a_first_turn_below_the_support_is_refused_without_a_kernel_call(
        monkeypatch):
    calls = []

    def counting_kernel(cfg, t):
        calls.append(t)
        return exit_current_grid(cfg, t)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    refused = 0
    for cfg in valid_configs(offpreset_cells(360, 23)):
        t_lo, _t_hi = exit_current_support(cfg)
        if 2.0 * cfg.omega * t_lo < TWO_PI:
            continue
        for scheme in (TOTAL, SCH):
            calls.clear()
            with pytest.raises(DegenerateDistributionError,
                               match=NOTHING_TO_NORMALIZE):
                pi_of_phi(cfg, scheme)
            assert calls == []
            # the norm pass that the refusal replaces
            total = integrate_full(scheme_weight(cfg, scheme), 0.0, TWO_PI,
                                   QuadratureSpec(), norm_pass_hints(cfg))
            assert calls
            assert total.value == 0.0
            assert math.copysign(1.0, total.value) == 1.0
            refused += 1
    assert refused >= 100


# pi_of_phi builds in one step what from_density builds from the scheme's
# weight, plus the tail pass and the support: every bit of it.

def uint64_bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(ours, theirs):
    assert np.shape(ours) == np.shape(theirs)
    assert np.array_equal(uint64_bits(ours), uint64_bits(theirs))


def two_routes(cfg, scheme):
    """(pi_of_phi, from_density route with its tail and support), each a
    distribution or the type and message of the typed error it raised."""
    def one_step():
        return pi_of_phi(cfg, scheme)

    def from_density():
        weight = scheme_weight(cfg, scheme)
        quad = QuadratureSpec()
        dist = AngularDistribution.from_density(weight, quad,
                                                norm_pass_hints(cfg))
        tail = integrate(weight, TWO_PI, 4.0 * TWO_PI, quad)
        t_lo, t_hi = exit_current_support(cfg)
        support = (2.0 * cfg.omega * t_lo, 2.0 * cfg.omega * t_hi)
        return replace(dist, support=support,
                       truncated_tail_mass=tail / (dist.norm_constant + tail))

    outcomes = []
    for route in (one_step, from_density):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                outcomes.append(route())
            except QClockError as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


def test_pi_of_phi_is_the_from_density_route_bit_for_bit():
    cells = [*preset_cells(), *offpreset_cells(200, 25)]
    built = 0
    for physics, scheme in cells:
        try:
            cfg = PhysicsConfig(**physics)
        except ValidationError:
            continue
        ours, theirs = two_routes(cfg, scheme)
        if isinstance(theirs, tuple):  # the same typed error
            assert ours == theirs
            continue
        built += 1
        assert isinstance(ours, AngularDistribution)
        assert_same_bits(ours.norm_constant, theirs.norm_constant)
        assert_same_bits(ours.nodes, theirs.nodes)
        (layout, rows), (their_layout, their_rows) = (ours._first_level,
                                                      theirs._first_level)
        for part, their_part in zip(layout, their_layout, strict=True):
            assert_same_bits(part, their_part)
        assert_same_bits(rows, their_rows)
        nodes = layout[-1]
        assert_same_bits(ours.split_hints, theirs.split_hints)
        assert all(type(h) is float for h in ours.split_hints)
        assert_same_bits(ours.support, theirs.support)
        assert_same_bits(ours.truncated_tail_mass, theirs.truncated_tail_mass)
        grid = ours.grid
        assert_same_bits(ours.density_fn(grid), theirs.density_fn(grid))
        # both routes share the norm pass: check what it keeps against the
        # weight itself
        weight = scheme_weight(cfg, scheme)
        w = weight(nodes) / ours.norm_constant
        assert_same_bits(rows, [w, w * np.cos(nodes), w * np.sin(nodes)])
        assert_same_bits(ours.density_fn(grid),
                         weight(grid) / ours.norm_constant)
    assert built >= 16 + 60


@pytest.mark.parametrize("kappa, hinted", [(50.0, False), (1e6, True)])
def test_passes_over_a_from_density_distribution_are_plain_integrals(
        kappa, hinted):
    # m1, the mean and the variance start from the kept first level, and
    # give the bits of the same integrals that call the density there too
    center = 2.2

    def bump(phi):
        return np.exp(-2.0 * kappa * np.sin(0.5 * (phi - center)) ** 2)

    hints = bracketing_hints(center, kappa ** -0.5) if hinted else ()
    dist = AngularDistribution.from_density(bump, split_hints=hints)
    w = dist.density_fn

    def plain(f):
        res = integrate_full(f, 0.0, TWO_PI, dist.quad, hints)
        return res.value, res.n_evals

    (_mass, c, s), evals = plain(lambda p: distribution._moment_rows(p, w(p)))
    assert not hinted or evals == dist._first_level[0][-1].size
    m1 = distribution.first_moment(dist)
    assert_same_bits([m1.real, m1.imag], [c, s])
    mean, _evals = plain(lambda p: p * w(p))
    assert_same_bits(mean_phi(dist), mean)
    variance, _evals = plain(lambda p: (p - mean) ** 2 * w(p))
    assert_same_bits(variance_phi(dist), variance)


# ---- a ladder's distributions, built as one batch ----

def seeded_ladders(count, seed):
    """``count`` log-spaced ladders of 4-12 sigma0 in [1e-8, 1e-5] cm, as
    the benchmark's ladder sweep draws them, presets alternating."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows = int(rng.integers(4, 13))
        top, bottom = rng.uniform(-6.5, -5.0), rng.uniform(-8.0, -6.5)
        yield PRESETS[("I", "II")[k % 2]], tuple(
            float(10.0 ** (top + (bottom - top) * j / (rows - 1)))
            for j in range(rows))


def ladder_cells(d, ladder, schemes):
    return [(PhysicsConfig(d=d, sigma0=sigma0), scheme)
            for scheme in schemes for sigma0 in ladder]


LADDERS = ([(d, DEFAULT_SIGMA0_LADDER, schemes)
            for d in PRESETS.values()
            for schemes in ((TOTAL,), (SCH,), (TOTAL, SCH))]
           + [(d, ladder, (TOTAL,)) for d, ladder in seeded_ladders(6, 2611)]
           + [(d, ladder, (SCH, TOTAL)) for d, ladder in seeded_ladders(2, 2612)])


def bits(value):
    return np.asarray(value, dtype=np.float64).view(np.uint64)


def built_alone_and_as_a_ladder(cells, quad):
    """Each cell's distribution from ``pi_of_phi``, and from one batch,
    with the warnings each way emitted."""
    with warnings.catch_warnings(record=True) as alone_warnings:
        warnings.simplefilter("always")
        alone = [pi_of_phi(cfg, scheme, quad) for cfg, scheme in cells]
    with warnings.catch_warnings(record=True) as ladder_warnings:
        warnings.simplefilter("always")
        batch = list(distribution._distributions(cells, quad))
    assert [str(w.message) for w in ladder_warnings] \
        == [str(w.message) for w in alone_warnings]
    return alone, batch


@pytest.mark.parametrize("order", [16, 17])
@pytest.mark.parametrize("d, ladder, schemes", LADDERS)
def test_a_ladder_batch_gives_each_cell_its_own_bits(d, ladder, schemes,
                                                     order):
    # at order 17 a cell's points start at call offsets that are not
    # multiples of 8, so the SIMD remainders of exp and sin are exercised
    quad = QuadratureSpec(panel_order=order)
    cells = ladder_cells(d, ladder, schemes)
    alone, batch = built_alone_and_as_a_ladder(cells, quad)
    for want, got in zip(alone, batch, strict=True):
        for name in ("norm_constant", "nodes", "truncated_tail_mass",
                     "support", "split_hints"):
            assert np.array_equal(bits(getattr(got, name)),
                                  bits(getattr(want, name))), name
        (got_layout, got_rows), (want_layout, want_rows) = (
            got._first_level, want._first_level)
        for got_part, want_part in zip((*got_layout, got_rows),
                                       (*want_layout, want_rows), strict=True):
            assert np.array_equal(bits(got_part), bits(want_part))
        assert got.meta == want.meta and got.quad == want.quad


def test_the_seeded_ladders_include_tail_cells():
    # cells whose current reaches past one turn, so that their tail pass
    # runs in the second batch
    def reaches_past(cfg):
        return 2.0 * cfg.omega * exit_current_support(cfg)[1] > TWO_PI
    seeded = [cells for d, ladder, schemes in LADDERS[6:]
              for cells in [ladder_cells(d, ladder, schemes)]]
    assert sum(any(reaches_past(cfg) for cfg, _s in cells)
               for cells in seeded) >= 3


def test_a_ladder_makes_one_kernel_call_per_level(monkeypatch):
    calls = []

    def counting_kernel(cfg, t, sigma0=None):
        calls.append(np.asarray(t).size)
        return exit_current_grid(cfg, t, sigma0)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    cells = ladder_cells(1.0, DEFAULT_SIGMA0_LADDER, (TOTAL, SCH))
    dists = list(distribution._distributions(cells, QuadratureSpec()))
    # one call holds every cell's first level and the first level of the
    # two sigma0 = 1e-8 cells' tail passes, each one panel and its two
    # children; the tails are resolved at depth 2
    first = sum(dist._first_level[0][-1].size for dist in dists)
    assert calls[0] == first + 2 * 3 * QuadratureSpec().panel_order
    assert len(calls) == 2


def test_a_failing_ladder_gives_the_cells_before_it_then_its_error():
    # at a depth too small for most cells the batch fails; the walk gives
    # each cell before the first failing one as pi_of_phi builds it, then
    # raises the ConvergenceError, best estimate included, of that cell
    spec = QuadratureSpec(rel_tol=1e-14, max_depth=3)
    ladder = tuple(10.0 ** (-5.0 - k / 3) for k in range(10))
    # both schemes' cells at sigma0 = 1e-8, which converge, come first
    cells = [(PhysicsConfig(d=1.0, sigma0=sigma0), scheme)
             for sigma0 in ladder[::-1] for scheme in (TOTAL, SCH)]
    walk = distribution._distributions(cells, spec)
    for built, (cfg, scheme) in enumerate(cells):
        try:
            want = pi_of_phi(cfg, scheme, spec)
        except ConvergenceError as exc:
            failure = exc
            break
        got = next(walk)
        for name in ("norm_constant", "nodes", "truncated_tail_mass",
                     "support", "split_hints"):
            assert np.array_equal(bits(getattr(got, name)),
                                  bits(getattr(want, name))), name
        (got_layout, got_rows), (want_layout, want_rows) = (
            got._first_level, want._first_level)
        for got_part, want_part in zip((*got_layout, got_rows),
                                       (*want_layout, want_rows), strict=True):
            assert np.array_equal(bits(got_part), bits(want_part))
        assert got.meta == want.meta and got.quad == want.quad
    assert built == 2
    with pytest.raises(ConvergenceError) as got:
        next(walk)
    assert str(got.value) == str(failure)
    assert bits(got.value.best_estimate) == bits(failure.best_estimate)
    assert bits(got.value.error_estimate) == bits(failure.error_estimate)
    assert got.value.__context__ is None  # the batch's error is not chained


def test_a_failing_one_cell_build_runs_once(monkeypatch):
    # a batch of one that fails is not rebuilt: the walk makes the kernel
    # calls that pi_of_phi makes
    calls = []

    def counting_kernel(cfg, t, sigma0=None):
        calls.append(np.asarray(t).size)
        return exit_current_grid(cfg, t, sigma0)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    cell = (PhysicsConfig(sigma0=1e-8), TOTAL)
    spec = QuadratureSpec(rel_tol=1e-14, max_depth=2)
    with pytest.raises(ConvergenceError):
        pi_of_phi(*cell, spec)
    alone, calls[:] = calls[:], []
    with pytest.raises(ConvergenceError):
        list(distribution._distributions([cell], spec))
    assert calls == alone and len(alone) == 2


def test_a_cell_whose_norm_and_tail_fail_together_raises_the_norm_error():
    # at rel_tol 1e-13 the preset-I cell at sigma0 = 1e-8 needs depth 3 in
    # its norm pass and in its tail pass; at max_depth 2 both fail at the
    # same level of the cell's one batch, and the error raised is the one
    # of the norm pass alone
    cfg = PhysicsConfig(sigma0=1e-8)
    spec = QuadratureSpec(rel_tol=1e-13, max_depth=2)
    hints = pi_of_phi(cfg, TOTAL).split_hints
    failures = []
    for a, b, span_hints in ((0.0, TWO_PI, hints), (TWO_PI, 4 * TWO_PI, ())):
        with pytest.raises(ConvergenceError, match="at depth 2 ") as alone:
            integrate_full(scheme_weight(cfg, TOTAL), a, b, spec, span_hints)
        failures.append(alone.value)
    norm, tail = failures
    assert str(norm) != str(tail)
    with pytest.raises(ConvergenceError) as got:
        pi_of_phi(cfg, TOTAL, spec)
    assert str(got.value) == str(norm)
    assert bits(got.value.best_estimate) == bits(norm.best_estimate)
    assert bits(got.value.error_estimate) == bits(norm.error_estimate)


def nan_at_1e7(cfg, t, sigma0=None):
    """The kernel, with NaN for jx at the points of sigma0 = 1e-7."""
    jx, jz = exit_current_grid(cfg, t, sigma0)
    widths = cfg.sigma0 if sigma0 is None else sigma0
    return np.where(widths == 1e-7, np.nan, jx), jz


def test_failing_builds_leave_no_cyclic_garbage(monkeypatch):
    # an error that refers, through its traceback, to a frame that refers
    # to it is freed only by the cyclic collector
    deep = QuadratureSpec(rel_tol=1e-14, max_depth=3)
    shallow = QuadratureSpec(rel_tol=1e-14, max_depth=2)
    ladder = ladder_cells(1.0, DEFAULT_SIGMA0_LADDER[::-1], (TOTAL,))
    builds = [
        lambda: pi_of_phi(PhysicsConfig(d=1.0, B=300.0, sigma0=1e-7), TOTAL),
        lambda: pi_of_phi(PhysicsConfig(sigma0=1e-8), TOTAL, shallow),
        lambda: list(distribution._distributions(ladder, deep)),
        lambda: list(distribution._distributions(
            ladder_cells(1.0, DEFAULT_SIGMA0_LADDER, (TOTAL,)),
            QuadratureSpec()))]
    gc.collect()
    gc.disable()
    try:
        for k, build in enumerate(builds):
            if k == 3:
                monkeypatch.setattr(distribution, "exit_current_grid",
                                    nan_at_1e7)
            for _ in range(20):
                try:
                    build()
                except QClockError:
                    pass
                else:
                    raise AssertionError(f"build {k} did not fail")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_pass_error_is_deferred_to_its_cell(monkeypatch):
    # a non-finite value in one cell's points fails that cell alone, with
    # the message its own pass gives, and the other cells are built
    def bad_at_1e7(cfg, t, sigma0=None):
        jx, jz = exit_current_grid(cfg, t, sigma0)
        widths = cfg.sigma0 if sigma0 is None else sigma0
        return np.where(widths == 1e-7, np.nan, jx), jz

    monkeypatch.setattr(distribution, "exit_current_grid", bad_at_1e7)
    cells = ladder_cells(1.0, DEFAULT_SIGMA0_LADDER, (TOTAL,))
    with pytest.raises(ValidationError) as alone:
        pi_of_phi(*cells[2])
    ladder = distribution._distributions(cells, QuadratureSpec())
    assert next(ladder).meta["sigma0_cm"] == "1e-05"
    assert next(ladder).meta["sigma0_cm"] == "1e-06"
    with pytest.raises(ValidationError) as batched:
        next(ladder)
    assert str(batched.value) == str(alone.value)
    assert "non-finite value near x=" in str(alone.value)
