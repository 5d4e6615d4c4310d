import codecs
import functools
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qclock import (PhysicsConfig, cli, distribution, measure, measurement,
                    quadrature)
from qclock.cli import (EXIT_CONVERGENCE, EXIT_IO, EXIT_OK, EXIT_PARSE,
                        EXIT_VALIDATION, PRESETS, RunConfig,
                        default_thetas_deg, main, parse_config, run_curve,
                        run_table, serialize)
from qclock.distribution import ArrivalScheme
from qclock.errors import (ConfigParseError, ConvergenceError, QClockError,
                           UnsupportedSchemeError, ValidationError)
from qclock.quadrature import QuadratureSpec


def test_empty_config_gives_default_preset():
    cfg = parse_config("")
    assert cfg.physics.d == 1.0
    assert cfg.physics.u == 3e5
    assert cfg.physics.B == 10.0
    assert cfg.physics.sigma0 == 1e-5
    assert cfg.sigma0_ladder == (1e-5, 1e-6, 1e-7, 1e-8)
    assert cfg.scheme is ArrivalScheme.MODULUS_TOTAL_CURRENT
    assert cfg.thetas_deg[0] == pytest.approx(34.94767, abs=1e-9)
    assert cfg.thetas_deg[1] == pytest.approx(94.94767, abs=1e-9)
    assert cfg.thetas_deg[2] == pytest.approx(124.94767, abs=1e-9)


def test_preset_ii_only_changes_length():
    cfg = parse_config("preset = II")
    assert cfg.physics.d == 2.0
    assert cfg.physics.u == 3e5
    assert cfg.physics.B == 10.0
    assert cfg.thetas_deg[0] == pytest.approx(69.89534, abs=1e-9)


def test_negative_length_is_a_validation_error():
    with pytest.raises(ValidationError, match="d must be positive"):
        parse_config("d = -1")


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigParseError, match="line 3") as excinfo:
        parse_config("# comment\nd = 1.0\nbogus = 7\n")
    assert excinfo.value.line == 3
    assert "bogus" in str(excinfo.value)


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigParseError, match="line 1"):
        parse_config("just some words")
    with pytest.raises(ConfigParseError, match="line 2"):
        parse_config("d = 1.0\nsigma0 = oops")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# full line comment\n  \nd = 1.5  # trailing\n")
    assert cfg.physics.d == 1.5


def test_sigma0_list_sets_ladder():
    cfg = parse_config("sigma0 = 1e-5, 1e-7")
    assert cfg.sigma0_ladder == (1e-5, 1e-7)
    assert cfg.physics.sigma0 == 1e-5


def test_scheme_and_quadrature_keys():
    cfg = parse_config(
        "scheme = modulus-schrodinger-current\nrel_tol = 1e-9\n"
        "panel_order = 20\nmax_depth = 30\n")
    assert cfg.scheme is ArrivalScheme.MODULUS_SCHRODINGER_CURRENT
    assert cfg.quad.rel_tol == 1e-9
    assert cfg.quad.panel_order == 20
    assert cfg.quad.max_depth == 30


def test_thetas_validated():
    with pytest.raises(ValidationError, match=r"\[0, 360\)"):
        parse_config("thetas_deg = 400")


@pytest.mark.parametrize("text", ["B = 100\n", "d = 2\nB = 80\n"])
def test_default_thetas_wrap_past_a_full_turn(tmp_path, capsys, text):
    # peak rotations of 349.48 and 469.16 degrees: the +60/+90 defaults
    # (and for d = 2 the peak itself) pass a full turn and must wrap
    cfg = parse_config(text)
    base = math.degrees(cfg.physics.phi_peak)
    assert cfg.thetas_deg == tuple((base + off) % 360.0 for off in (0.0, 60.0, 90.0))
    assert all(0.0 <= theta < 360.0 for theta in cfg.thetas_deg)
    path = tmp_path / "wrap.cfg"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert main(["validate", "--config", str(path), "--theta-deg", "10"]) == EXIT_OK
    assert "10.00000 deg" in capsys.readouterr().out


def test_ladder_entries_pass_validity_guard():
    with pytest.raises(ValidationError, match="exit instant"):
        parse_config("sigma0 = 1e-5, 1e-9")


def test_round_trip():
    cfg = parse_config(
        "preset = II\nsigma0 = 2e-5, 1e-6\nthetas_deg = 10, 95.5\n"
        "scheme = modulus-schrodinger-current\nrel_tol = 1e-9\nout = results\n")
    assert parse_config(serialize(cfg)) == cfg


def test_round_trip_defaults():
    cfg = RunConfig()
    assert parse_config(serialize(cfg)) == cfg


def test_round_trip_of_a_constructed_ladder():
    # the run's physics carries the ladder's first sigma0, however built
    cfg = RunConfig(sigma0_ladder=(1e-6,))
    assert cfg.physics.sigma0 == 1e-6
    assert cfg == parse_config("sigma0 = 1e-6")
    assert parse_config(serialize(cfg)) == cfg


@pytest.mark.parametrize("out", ["runs#1", " spaced ", "trail\t", "two\nlines",
                                 "carriage\rreturn", "para\u2029graph"])
def test_serialize_refuses_an_output_dir_a_config_cannot_carry(out):
    # '#' starts a comment, values are stripped, and each line is one key
    with pytest.raises(ValidationError, match="output_dir"):
        serialize(RunConfig(output_dir=Path(out)))


def test_serialize_round_trips_an_inner_space_and_equals_sign():
    cfg = RunConfig(output_dir=Path("my runs/a=b"))
    assert parse_config(serialize(cfg)) == cfg


def test_out_flag_with_a_hash_still_runs(tmp_path):
    out = tmp_path / "runs#1"
    assert main(["table", "--sigma0", "1e-5", "--out", str(out)]) == EXIT_OK
    assert (out / "table.csv").is_file()


def test_preset_recomputes_default_thetas():
    cfg = parse_config("preset = II")
    assert cfg.thetas_deg[0] == pytest.approx(69.89534, abs=1e-9)
    assert parse_config("thetas_deg = 42\npreset = II").thetas_deg == (42.0,)


def test_constructed_physics_moves_default_thetas():
    # the library's defaults follow the physics as the parser's do
    cfg = RunConfig(physics=PhysicsConfig(d=2.0))
    assert cfg.thetas_deg == parse_config("d = 2").thetas_deg
    assert cfg.thetas_deg == default_thetas_deg(PhysicsConfig(d=2.0))
    assert RunConfig(physics=PhysicsConfig(d=2.0), thetas_deg=(42,)) \
        .thetas_deg == (42.0,)


def test_numpy_scalars_write_the_float_bytes(tmp_path):
    ladder = np.logspace(-6, -5, 2)
    thetas = np.array([10.0, 34.94767])
    cfgs = {"numpy": RunConfig(sigma0_ladder=tuple(ladder),
                               thetas_deg=tuple(thetas)),
            "float": RunConfig(sigma0_ladder=tuple(ladder.tolist()),
                               thetas_deg=tuple(thetas.tolist()))}
    written = {}
    for name, cfg in cfgs.items():
        out = tmp_path / name
        run_table(replace(cfg, output_dir=out))
        run_curve(replace(cfg, output_dir=out))
        written[name] = {path.name: path.read_bytes()
                         for path in sorted(out.iterdir())}
    assert written["numpy"] == written["float"]
    assert "curve_sigma0_1em06.csv" in written["numpy"]
    assert cfgs["numpy"] == cfgs["float"]
    assert parse_config(serialize(cfgs["numpy"])) == cfgs["numpy"]


@pytest.mark.parametrize("field,value", [
    ("thetas_deg", (True,)), ("thetas_deg", ("10",)),
    ("thetas_deg", (10j,)), ("sigma0_ladder", (True,)),
    ("sigma0_ladder", ("1e-6",))])
def test_run_config_refuses_bools_and_non_reals(field, value):
    with pytest.raises(ValidationError, match="must be a real number"):
        RunConfig(**{field: value})


class _PathLike:
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path


@pytest.mark.parametrize("out", ["runs", _PathLike("runs")])
def test_run_config_stores_output_dir_as_a_path(tmp_path, out):
    cfg = RunConfig(output_dir=out)
    assert cfg.output_dir == Path("runs")
    assert cfg == RunConfig(output_dir=Path("runs"))
    assert parse_config(serialize(cfg)) == cfg
    cfg = RunConfig(sigma0_ladder=(1e-5,), output_dir=str(tmp_path / "t"))
    assert run_table(cfg) == tmp_path / "t" / "table.csv"


@pytest.mark.parametrize("field,value,kind", [
    ("physics", None, "PhysicsConfig"), ("physics", "I", "PhysicsConfig"),
    ("scheme", "modulus-total-current", "ArrivalScheme"),
    ("scheme", None, "ArrivalScheme"), ("quad", None, "QuadratureSpec"),
    ("quad", {"rel_tol": 1e-9}, "QuadratureSpec"),
    ("output_dir", None, "path-like"), ("output_dir", 3, "path-like"),
    ("output_dir", b"runs", "path-like")])
def test_run_config_refuses_fields_of_the_wrong_type(field, value, kind):
    with pytest.raises(ValidationError, match=f"{field} must be .*{kind}"):
        RunConfig(**{field: value})


def test_run_config_keeps_each_cell_physics():
    cfg = RunConfig(physics=PhysicsConfig(d=2.0), sigma0_ladder=(1e-6, 1e-7))
    assert cfg.cells == (PhysicsConfig(d=2.0, sigma0=1e-6),
                         PhysicsConfig(d=2.0, sigma0=1e-7))
    assert cfg.cells[0] is cfg.physics
    # derived, so neither compared nor passed on by replace
    assert replace(cfg, sigma0_ladder=(1e-8,)).cells \
        == (PhysicsConfig(d=2.0, sigma0=1e-8),)


def test_negative_zero_angle_is_stored_as_zero(tmp_path, capsys):
    (theta,) = RunConfig(thetas_deg=(-0.0,)).thetas_deg
    assert math.copysign(1.0, theta) == 1.0
    code = main(["table", "--theta-deg", "0", "--theta-deg", "-0",
                 "--sigma0", "1e-6", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "share the table column label 0.00000" in capsys.readouterr().err
    assert not (tmp_path / "table.csv").exists()
    for command in ("table", "compare"):
        assert main([command, "--theta-deg", "-0", "--sigma0", "1e-6",
                     "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "table.csv").read_text().startswith(
        "sigma0_cm,p_plus_0.00000,p_minus_0.00000\n")
    compare = tmp_path / "compare_modulus-total-current_sigma0_1em06.csv"
    assert compare.read_text().splitlines()[1].startswith("0,")


def test_run_config_refuses_the_semiclassical_delta():
    with pytest.raises(UnsupportedSchemeError, match="no finite density"):
        RunConfig(scheme=ArrivalScheme.SEMICLASSICAL_DELTA)
    with pytest.raises(UnsupportedSchemeError, match="no finite density"):
        parse_config("scheme = semiclassical-delta\n")


def test_replace_passes_the_stored_angles_on():
    # the derived angles are stored, so replace keeps the old physics's;
    # empty angles derive them from the new physics
    moved = PhysicsConfig(d=2.0)
    assert replace(RunConfig(), physics=moved).thetas_deg \
        == default_thetas_deg(PhysicsConfig())
    assert replace(RunConfig(), physics=moved, thetas_deg=()).thetas_deg \
        == default_thetas_deg(moved) == RunConfig(physics=moved).thetas_deg


def test_validate_subcommand(capsys):
    assert main(["validate", "--preset", "I"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "configuration OK" in out
    assert "34.94767" in out


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for line, message in (("nonsense = 1", "unknown key"),
                          ("panel_order = 16.5", "not an integer"),
                          ("max_depth = inf", "not an integer"),
                          ("max_depth = nan", "not an integer"),
                          ("scheme = bogus", "unknown scheme")):
        bad.write_text(f"# integer keys take integers only\n{line}\n")
        assert main(["validate", "--config", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 2" in err and message in err


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for line, message in (("d = -1", "d must be positive"),
                          ("panel_order = 65", "panel_order must be"),
                          ("sigma0 = 1e-160", "2*m0*sigma0^2 underflows")):
        bad.write_text(f"{line}\n")
        assert main(["validate", "--config", str(bad)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err


def test_exit_code_non_utf8_config(tmp_path, capsys):
    cfgfile = tmp_path / "latin1.cfg"
    cfgfile.write_bytes("sigma0 = 1e-6\n# café\n".encode("latin-1"))
    assert main(["validate", "--config", str(cfgfile)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err and str(cfgfile) in err and "UTF-8" in err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # some editors write one; it is not part of the first key
    text = "sigma0 = 1e-6, 1e-7\nthetas_deg = 10, 20\nB = 12\n".encode()
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    configs = [cli._assemble(cli._parser().parse_args(
        ["validate", "--config", str(path)])) for path in (plain, marked)]
    assert configs[1] == configs[0]
    assert configs[1].sigma0_ladder == (1e-6, 1e-7)
    assert main(["validate", "--config", str(marked)]) == EXIT_OK
    # a bad byte after the mark is still named by its line and file offset
    marked.write_bytes(codecs.BOM_UTF8 + "sigma0 = 1e-6\n# café\n".encode(
        "latin-1"))
    capsys.readouterr()
    assert main(["validate", "--config", str(marked)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err and "at byte 22" in err and str(marked) in err


def test_exit_code_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["validate", "--config", str(missing)]) == 5
    assert "error" in capsys.readouterr().err


def test_exit_code_delta_scheme_curve(tmp_path, capsys):
    for command in ("curve", "table", "validate"):
        code = main([command, "--scheme", "semiclassical-delta",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "closed-form" in capsys.readouterr().err


def test_exit_code_convergence(tmp_path, capsys):
    # a tolerance below the integrand's evaluation-noise floor cannot be
    # met at any depth: two levels run out of depth, and at the default
    # depth the live-panel cap stops the doubling long before memory does
    cfgfile = tmp_path / "shallow.cfg"
    cfgfile.write_text("sigma0 = 1e-5\nrel_tol = 1e-14\nmax_depth = 2\n")
    for args in (["--config", str(cfgfile)],
                 ["--sigma0", "1e-5", "--rel-tol", "1e-14"]):
        start = time.perf_counter()
        code = main(["table", *args, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "table.csv").exists()


def test_table_refuses_a_ladder_with_no_first_turn_mass(tmp_path, capsys):
    # the supports start at phi = 164 and 84 rad: the packet arrives after
    # the spin has turned many times, so [0, 2*pi) holds no mass
    cfgfile = tmp_path / "late.cfg"
    cfgfile.write_text("preset = I\nu = 1e4\nB = 100\nsigma0 = 1e-5, 1e-6\n")
    code = main(["table", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "density integrates to 0.0; nothing to normalize" in err
    assert not (tmp_path / "table.csv").exists()


def test_curve_refuses_a_peak_at_the_cut(tmp_path, capsys):
    # the density still rises at one full turn and nearly all of its mass
    # lies beyond it: its largest value on the grid is not a peak
    cfgfile = tmp_path / "rising.cfg"
    cfgfile.write_text("d = 3.353\nu = 4.22e4\nB = 36.4\nsigma0 = 2.26e-8\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="discarded rotation-angle mass"):
        code = main(["curve", "--config", str(cfgfile), "--out", str(out)])
    assert code == 1
    assert "2*pi cut" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_table_single_cell(tmp_path, capsys):
    theta = f"{34.94767:.5f}"
    code = main(["table", "--sigma0", "1e-5", "--theta-deg", theta,
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    text = (tmp_path / "table.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == f"sigma0_cm,p_plus_{theta},p_minus_{theta}"
    assert lines[1] == "1e-05,1.00000,0.00000"


def test_table_full_preset_i(tmp_path):
    code = main(["table", "--preset", "I", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "table.csv").read_text().splitlines()
    assert len(rows) == 5
    assert rows[1].startswith("1e-05,1.00000,0.00000,0.75000,0.25000,0.50000,0.50000")
    assert rows[4].startswith("1e-08,0.99887,0.00113,0.75242,0.24758,0.50345,0.49655")


TABLE_CSV = {
    "I": """\
sigma0_cm,p_plus_34.94767,p_minus_34.94767,p_plus_94.94767,p_minus_94.94767,p_plus_124.94767,p_minus_124.94767
1e-05,1.00000,0.00000,0.75000,0.25000,0.50000,0.50000
1e-06,1.00000,0.00000,0.75000,0.25000,0.50000,0.50000
1e-07,0.99999,0.00001,0.75002,0.24998,0.50003,0.49997
1e-08,0.99887,0.00113,0.75242,0.24758,0.50345,0.49655
""",
    "II": """\
sigma0_cm,p_plus_69.89534,p_minus_69.89534,p_plus_129.89534,p_minus_129.89534,p_plus_159.89534,p_minus_159.89534
1e-05,1.00000,0.00000,0.75000,0.25000,0.50000,0.50000
1e-06,1.00000,0.00000,0.75000,0.25000,0.50000,0.50000
1e-07,0.99996,0.00004,0.75004,0.24996,0.50007,0.49993
1e-08,0.99548,0.00452,0.75359,0.24641,0.50675,0.49325
""",
}


@pytest.mark.parametrize("preset", sorted(TABLE_CSV))
def test_table_bytes_pinned(tmp_path, preset):
    # 5 decimals are far above any install's last-digit noise, so the full
    # text of both preset tables is fixed
    assert main(["table", "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "table.csv").read_bytes() == TABLE_CSV[preset].encode()


@pytest.mark.parametrize("second", ["10", "10.000001"])
def test_table_rejects_angles_sharing_a_column_label(tmp_path, capsys, second):
    code = main(["table", "--theta-deg", "10", "--theta-deg", second,
                 "--sigma0", "1e-6", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "10.0 and " + repr(float(second)) in err and "10.00000" in err
    assert not (tmp_path / "table.csv").exists()


def test_outputs_byte_identical_across_runs(tmp_path):
    runs = (["table", "--sigma0", "1e-7", "--sigma0", "1e-8"],
            ["curve", "--sigma0", "1e-6"],
            ["compare", "--sigma0", "1e-7"])
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs.append({path.name: path.read_bytes()
                        for path in sorted(out.iterdir())})
    assert sorted(outputs[0]) == sorted([
        "table.csv", "curve_sigma0_1em06.csv",
        "curve_sigma0_1em06_summary.txt",
        "compare_modulus-total-current_sigma0_1em07.csv",
        "compare_modulus-schrodinger-current_sigma0_1em07.csv"])
    assert outputs[0] == outputs[1]


class _FailsPartway:
    """File stand-in that writes half its text, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    partial = []

    def open_then_fail(path, *args, **kwargs):
        partial.append(path)
        return _FailsPartway(open(path, *args, **kwargs))

    monkeypatch.setattr(distribution, "open", open_then_fail, raising=False)
    for command in ("curve", "compare"):
        out = tmp_path / command
        assert main([command, "--sigma0", "1e-6", "--out", str(out)]) == EXIT_IO
        assert "No space left" in capsys.readouterr().err
        assert partial[-1].parent == out  # the failure hit a file in out
        assert list(out.iterdir()) == []


def test_curve_outputs(tmp_path):
    code = main(["curve", "--sigma0", "1e-5", "--sigma0", "1e-4",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    curves = sorted(tmp_path.glob("curve_sigma0_*.csv"))
    summaries = sorted(tmp_path.glob("curve_sigma0_*_summary.txt"))
    assert len(curves) == 2 and len(summaries) == 2

    peaks, variances = {}, {}
    for summary in summaries:
        entries = dict(line.split(" = ") for line in
                       summary.read_text().splitlines())
        key = summary.name
        peaks[key] = float(entries["peak_phi_deg"])
        variances[key] = float(entries["variance_rad2"])
        assert float(entries["truncated_tail_mass"]) < 1e-6
    for peak in peaks.values():
        assert peak == pytest.approx(34.94767, abs=1e-3)
    v_small = variances["curve_sigma0_1em05_summary.txt"]
    v_large = variances["curve_sigma0_0_0001_summary.txt"]
    assert v_small > v_large  # variance grows as sigma0 shrinks


def test_compare_outputs(tmp_path):
    code = main(["compare", "--sigma0", "1e-8", "--out", str(tmp_path)])
    assert code == EXIT_OK
    files = sorted(tmp_path.glob("compare_*.csv"))
    assert len(files) == 2  # one per current scheme
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == "theta_deg,p_plus,p_minus,p_plus_sc,delta"
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(34.94767, abs=1e-9)
        assert abs(float(first[4])) == pytest.approx(0.0011344, abs=5e-5)


def test_compare_rejects_scheme_flag(tmp_path):
    # compare always writes both current schemes; a --scheme would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scheme", "modulus-total-current",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("scheme", ["semiclassical-delta",
                                    "modulus-total-current"])
def test_compare_rejects_scheme_key(tmp_path, capsys, scheme):
    # the config key would be ignored just like the missing --scheme flag
    cfgfile = tmp_path / "scheme.cfg"
    cfgfile.write_text(f"scheme = {scheme}\nsigma0 = 1e-7\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfgfile),
                 "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 1" in err and "both current schemes" in err
    assert not out.exists()
    # validate takes the key, and refuses the delta as table and curve do
    assert main(["validate", "--config", str(cfgfile)]) == (
        EXIT_VALIDATION if scheme == "semiclassical-delta" else EXIT_OK)


# key: (config line, flag, read from the run, then the value from
# --preset II, from the file on top of it and from the flag on top of both)
PRECEDENCE = {
    "d": ("d = 1.5", [], lambda cfg: cfg.physics.d, 2.0, 1.5, None),
    "sigma0": ("sigma0 = 1e-6", ["--sigma0", "1e-7"],
               lambda cfg: cfg.sigma0_ladder,
               (1e-5, 1e-6, 1e-7, 1e-8), (1e-6,), (1e-7,)),
    "thetas_deg": ("thetas_deg = 42", ["--theta-deg", "10"],
                   lambda cfg: cfg.thetas_deg,
                   default_thetas_deg(PhysicsConfig(d=2.0)), (42.0,), (10.0,)),
    "scheme": ("scheme = modulus-schrodinger-current",
               ["--scheme", "modulus-total-current"], lambda cfg: cfg.scheme,
               ArrivalScheme.MODULUS_TOTAL_CURRENT,
               ArrivalScheme.MODULUS_SCHRODINGER_CURRENT,
               ArrivalScheme.MODULUS_TOTAL_CURRENT),
    "rel_tol": ("rel_tol = 1e-9", ["--rel-tol", "1e-8"],
                lambda cfg: cfg.quad.rel_tol, 1e-10, 1e-9, 1e-8),
    "out": ("out = from_file", ["--out", "from_flag"],
            lambda cfg: cfg.output_dir,
            Path("."), Path("from_file"), Path("from_flag")),
}


@pytest.mark.parametrize("key", sorted(PRECEDENCE))
def test_flag_overrides_config(tmp_path, key):
    # --preset, then --config, then the other flags, whatever their order
    # on the command line
    line, flag, read, *expected = PRECEDENCE[key]
    cfgfile = tmp_path / "base.cfg"
    cfgfile.write_text(line + "\n")
    sources = [["--preset", "II"], ["--config", str(cfgfile)], flag]
    for n, value in enumerate(expected, start=1):
        if value is not None:
            argv = [arg for source in reversed(sources[:n]) for arg in source]
            args = cli._parser().parse_args(["validate", *argv])
            assert read(cli._assemble(args)) == value


def test_only_the_merged_config_is_validated(tmp_path, capsys):
    # the file alone fails the exit-width guard at the default sigma0
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("d = 2e-5\n")
    assert main(["validate", "--config", str(cfgfile)]) == EXIT_VALIDATION
    assert "exit instant" in capsys.readouterr().err
    for command in ("validate", "table"):
        assert main([command, "--config", str(cfgfile), "--sigma0", "1e-7",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / "table.csv").read_text().startswith(
        "sigma0_cm,p_plus_0.00070,")


@pytest.mark.parametrize("command,name", [
    ("curve", "curve_sigma0_1em06.csv"),
    ("compare", "compare_modulus-total-current_sigma0_1em06.csv")])
def test_sigma0_sharing_a_file_tag_is_refused(tmp_path, capsys, monkeypatch,
                                              command, name):
    # the second cell would silently overwrite the first cell's files
    calls = []
    monkeypatch.setattr(distribution, "exit_current_grid",
                        lambda cfg, t: calls.append(t))
    out = tmp_path / "out"
    code = main([command, "--sigma0", "1e-6", "--sigma0", "0.000001",
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "1e-06 and 1e-06" in err and name in err
    assert calls == []  # refused before any cell is computed
    assert not out.exists()


def test_curve_computes_every_cell_before_writing(tmp_path, capsys,
                                                  monkeypatch):
    # the order+2 norm check runs on first read; it must still run inside
    # each cell, so a failure in the last cell leaves no file behind
    integrate = distribution.integrate
    check_order = QuadratureSpec().panel_order + 2
    checks = []

    def failing_second_check(f, a, b, spec=None, split_hints=()):
        if spec is not None and spec.panel_order == check_order:
            checks.append(spec)
            if len(checks) == 2:
                raise ConvergenceError("injected norm-check failure",
                                       best_estimate=1.0, error_estimate=1.0)
        return integrate(f, a, b, spec, split_hints)

    monkeypatch.setattr(distribution, "integrate", failing_second_check)
    code = main(["curve", "--sigma0", "1e-5", "--sigma0", "1e-6",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONVERGENCE
    assert "injected" in capsys.readouterr().err
    assert len(checks) == 2
    assert list(tmp_path.iterdir()) == []


def test_curve_tabulates_every_cell_before_writing(tmp_path, capsys,
                                                  monkeypatch):
    # peak_phi reads no tabulation, so the cell reads it itself: a failure
    # tabulating the last cell leaves no file behind
    tabulate = distribution.AngularDistribution.density.func
    reads = []

    def failing_second_tabulation(dist):
        reads.append(dist)
        if len(reads) == 2:
            raise ValidationError("injected tabulation failure")
        return tabulate(dist)

    density = functools.cached_property(failing_second_tabulation)
    density.__set_name__(distribution.AngularDistribution, "density")
    monkeypatch.setattr(distribution.AngularDistribution, "density", density)
    code = main(["curve", "--sigma0", "1e-5", "--sigma0", "1e-6",
                 "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "injected" in capsys.readouterr().err
    assert len(reads) == 2
    assert list(tmp_path.iterdir()) == []


def test_successive_main_calls_share_no_state(tmp_path):
    # the parser is built once; each call still starts from its defaults
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["table", "--sigma0", "1e-6", "--sigma0", "1e-7",
                 "--out", str(first)]) == EXIT_OK
    assert main(["table", "--sigma0", "1e-6", "--out", str(second)]) == EXIT_OK
    assert len((first / "table.csv").read_text().splitlines()) == 3
    assert len((second / "table.csv").read_text().splitlines()) == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scheme", "modulus-total-current",
              "--out", str(tmp_path / "compare")])
    assert exc.value.code == 2


def test_curve_writes_each_curve_through_the_cli_attribute(tmp_path,
                                                           monkeypatch):
    # the benchmark's tracer times the curve writer by rebinding this name
    written = []
    write = cli.write_distribution_csv

    def counting_write(dist, path):
        written.append(path.name)
        write(dist, path)

    monkeypatch.setattr(cli, "write_distribution_csv", counting_write)
    assert main(["curve", "--sigma0", "1e-5", "--sigma0", "1e-6",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert written == ["curve_sigma0_1em05.csv", "curve_sigma0_1em06.csv"]


def test_only_curve_formats_the_uniform_phi_labels(tmp_path):
    # table and compare write no curve, so they pay neither the time nor
    # the memory of the cached labels
    labels = distribution._uniform_phi_labels
    labels.cache_clear()
    assert main(["table", "--sigma0", "1e-6",
                 "--out", str(tmp_path / "table")]) == EXIT_OK
    assert main(["compare", "--sigma0", "1e-6",
                 "--out", str(tmp_path / "compare")]) == EXIT_OK
    assert labels.cache_info().currsize == 0
    assert main(["curve", "--sigma0", "1e-6",
                 "--out", str(tmp_path / "curve")]) == EXIT_OK
    assert labels.cache_info().currsize == 1


# Full-precision values that table.csv rounds away: any last-bit change in
# the quadrature shows here.
COMPARE_1EM07 = {
    "compare_modulus-total-current_sigma0_1em07.csv": """\
theta_deg,p_plus,p_minus,p_plus_sc,delta
34.947670000000009,0.99998974784608341,1.0252153916590068e-05,1,-1.0252153916590068e-05
94.947670000000016,0.75002396573838759,0.24997603426161236,0.74999999999999989,2.3965738387698998e-05
124.94767000000002,0.50003359233484246,0.49996640766515754,0.50000000000000011,3.3592334842347249e-05
""",
    "compare_modulus-schrodinger-current_sigma0_1em07.csv": """\
theta_deg,p_plus,p_minus,p_plus_sc,delta
34.947670000000009,0.99998974784608341,1.0252153916590068e-05,1,-1.0252153916590068e-05
94.947670000000016,0.75002396573838759,0.24997603426161236,0.74999999999999989,2.3965738387698998e-05
124.94767000000002,0.50003359233484246,0.49996640766515754,0.50000000000000011,3.3592334842347249e-05
""",
}


def test_compare_bytes_pinned(tmp_path):
    assert main(["compare", "--sigma0", "1e-7", "--out", str(tmp_path)]) \
        == EXIT_OK
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert written == {name: text.encode()
                       for name, text in COMPARE_1EM07.items()}


CURVE_SUMMARIES = {
    "I": {
        "curve_sigma0_1em05_summary.txt": """\
peak_phi_deg = 34.947669230327449
variance_rad2 = 4.1340443058286414e-09
truncated_tail_mass = 0
""",
        "curve_sigma0_1em06_summary.txt": """\
peak_phi_deg = 34.947593033080572
variance_rad2 = 4.0968796222151217e-07
truncated_tail_mass = 0
""",
        "curve_sigma0_1em07_summary.txt": """\
peak_phi_deg = 34.939976662477882
variance_rad2 = 4.1004523247280738e-05
truncated_tail_mass = 0
""",
        "curve_sigma0_1em08_summary.txt": """\
peak_phi_deg = 34.210140687789703
variance_rad2 = 0.0044964173108714483
truncated_tail_mass = 3.8278544255857102e-18
""",
    },
    "II": {
        "curve_sigma0_1em05_summary.txt": """\
peak_phi_deg = 69.895338460654898
variance_rad2 = 1.6424564820650574e-08
truncated_tail_mass = 0
""",
        "curve_sigma0_1em06_summary.txt": """\
peak_phi_deg = 69.895186066161145
variance_rad2 = 1.6387507327582189e-06
truncated_tail_mass = 0
""",
        "curve_sigma0_1em07_summary.txt": """\
peak_phi_deg = 69.879953324955764
variance_rad2 = 0.00016401809297795708
truncated_tail_mass = 0
""",
        "curve_sigma0_1em08_summary.txt": """\
peak_phi_deg = 68.420281375579407
variance_rad2 = 0.017985669243237228
truncated_tail_mass = 7.9961047783153811e-15
""",
    },
}


@pytest.mark.parametrize("preset", sorted(CURVE_SUMMARIES))
def test_curve_summaries_pinned(tmp_path, preset):
    assert main(["curve", "--preset", preset, "--out", str(tmp_path)]) \
        == EXIT_OK
    written = {path.name: path.read_bytes()
               for path in tmp_path.glob("*_summary.txt")}
    assert written == {name: text.encode()
                       for name, text in CURVE_SUMMARIES[preset].items()}


# a ladder whose first two cells keep most of their mass beyond one turn
# (a tail warning each) and whose third cell has none within it (refused)
REFUSED_THIRD = ("preset = I\nB = 108\n"
                 "sigma0 = 1e-8, 1e-7, 1e-6, 1e-5\n")


def cell_by_cell(cfg):
    """The warnings, and the first error, of building and measuring each
    cell of ``cfg`` in turn, as ``run_table`` did cell by cell."""
    thetas = [math.radians(t) for t in cfg.thetas_deg]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for physics in cfg.cells:
                dist = distribution.pi_of_phi(physics, cfg.scheme, cfg.quad)
                for theta in thetas:
                    measure(dist, theta)
        except QClockError as exc:
            return [str(w.message) for w in caught], exc
    raise AssertionError("no cell failed")


@pytest.mark.parametrize("inject", [False, True])
def test_a_ladder_fails_as_the_cell_by_cell_loop(tmp_path, capsys,
                                                 monkeypatch, inject):
    text = REFUSED_THIRD
    if inject:
        # the third cell's pass raises instead, deep in the quadrature,
        # after a heavy-tailed cell that warns
        text = "preset = I\nsigma0 = 2.2e-9, 1e-8, 1e-6\n"

        def failing_third(cfg, t, sigma0=None):
            jx, jz = kernel(cfg, t, sigma0)
            widths = cfg.sigma0 if sigma0 is None else sigma0
            return np.where(widths == 1e-6, np.inf, jx), jz

        kernel = distribution.exit_current_grid
        monkeypatch.setattr(distribution, "exit_current_grid", failing_third)
    cfgfile = tmp_path / "ladder.cfg"
    cfgfile.write_text(text)
    expected_warnings, expected = cell_by_cell(parse_config(text))
    assert expected_warnings
    assert ("non-finite" if inject else "nothing to normalize") \
        in str(expected)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["table", "--config", str(cfgfile), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert [str(w.message) for w in caught] == expected_warnings
    assert not (out / "table.csv").exists()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_preset_table_makes_one_kernel_call_for_its_norm_passes(
        tmp_path, monkeypatch, preset):
    calls = []
    kernel = distribution.exit_current_grid

    def counting_kernel(cfg, t, sigma0=None):
        calls.append(None if sigma0 is None else np.unique(sigma0).size)
        return kernel(cfg, t, sigma0)

    monkeypatch.setattr(distribution, "exit_current_grid", counting_kernel)
    assert main(["table", "--preset", preset, "--out", str(tmp_path)]) \
        == EXIT_OK
    # the four norm passes, then the sigma0 = 1e-8 cell's tail pass alone,
    # resolved at depth 2 (d = 1) or 3 (d = 2); the m1 passes make none
    assert calls == [4] + [None] * {"I": 2, "II": 3}[preset]


def test_measuring_a_long_ladder_builds_no_layout(tmp_path, monkeypatch):
    # the ladder's norm and tail batches build every first-level layout;
    # each m1 pass is given its cell's kept layout and builds none
    ladder = tuple(10.0 ** (-5.0 - 3.0 * k / 11) for k in range(12))
    cfg = RunConfig(sigma0_ladder=ladder, output_dir=tmp_path)
    events = []
    build, m1 = quadrature._first_layouts, measurement._first_moment

    def counting_build(spans, order):
        events.append(len(spans))
        return build(spans, order)

    def counting_m1(dist):
        events.append("m1")
        return m1(dist)

    monkeypatch.setattr(quadrature, "_first_layouts", counting_build)
    monkeypatch.setattr(measurement, "_first_moment", counting_m1)
    run_table(cfg)
    first = events.index("m1")
    # the 12 norm passes, then the tail passes of the cells that reach
    # past one turn; then 3 angles of every cell
    assert events[0] == 12 and len(events[1:first]) == 1
    assert events[first:] == ["m1"] * 12 * 3
