"""Command-line driver: single cases, parameter sweeps, table/curve/compare files.

Configs are plain-text key=value documents ('#' starts a comment).  Angles
cross this boundary in degrees and are converted to radians exactly once on
the way in; output files report degrees again.  Identical configs produce
byte-identical output files.

Exit codes: 0 success, 1 any other typed error (such as an ambiguous
peak), 2 config parse error, 3 validation error, 4 quadrature convergence
failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import codecs
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .distribution import (ArrivalScheme, peak_phi, pi_of_phi, scheme_weight,
                           variance_phi, write_distribution_csv)
from .distribution import write_text_atomic as _write_text
from .errors import (ConfigParseError, ConvergenceError,
                     DegenerateDistributionError, DomainError, QClockError,
                     UnsupportedSchemeError, ValidationError, as_number,
                     check_type)
from .measurement import (deviation_report, measure, round_half_away,
                          write_deviation_csv)
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .wavepacket import PhysicsConfig

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5

DEFAULT_SIGMA0_LADDER = (1e-5, 1e-6, 1e-7, 1e-8)

#: Rotator lengths (cm) of the two built-in presets; everything else is
#: shared: u=3e5 cm/s, B=10 gauss, calibrated moment.
PRESETS = {"I": 1.0, "II": 2.0}

_PHYSICS_KEYS = ("hbar", "m0", "mu", "u", "d", "B")
_QUAD_KEYS = ("rel_tol", "panel_order", "max_depth")


def default_thetas_deg(physics: PhysicsConfig) -> tuple[float, ...]:
    """Analyzer angles used by the built-in sweeps: the packet peak's
    rotation angle plus 60 and 90 degree offsets, wrapped into [0, 360)."""
    base = math.degrees(physics.phi_peak)
    return tuple(theta % 360.0 for theta in (base, base + 60.0, base + 90.0))


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs: physics, scheme, sweep axes, output.

    ``physics`` is stored with the ladder's first sigma0, every sigma0 and
    angle as a Python float (an angle of -0.0 as 0.0), and ``output_dir``
    (a ``str`` or path-like) as a ``Path``, so equal runs compare and
    serialize equal.  A field of any other type raises ``ValidationError``
    before any cell runs, and ``SEMICLASSICAL_DELTA``, which has no
    density to compute, raises ``UnsupportedSchemeError`` as
    ``pi_of_phi`` does.  ``cells`` holds each ladder sigma0's validated
    ``PhysicsConfig``, in ladder order; it is derived, not a field.
    Empty ``thetas_deg`` (the default) stores ``default_thetas_deg`` of
    that physics.  The stored angles are a field like any other, so
    ``dataclasses.replace(cfg, physics=...)`` passes them on unchanged,
    still following the old physics; pass ``thetas_deg=()`` as well to
    derive them from the new one.
    """

    physics: PhysicsConfig = PhysicsConfig()
    scheme: ArrivalScheme = ArrivalScheme.MODULUS_TOTAL_CURRENT
    thetas_deg: tuple[float, ...] = ()
    sigma0_ladder: tuple[float, ...] = DEFAULT_SIGMA0_LADDER
    quad: QuadratureSpec = DEFAULT_SPEC
    output_dir: Path = Path(".")

    def __post_init__(self):
        check_type("physics", self.physics, PhysicsConfig)
        check_type("quad", self.quad, QuadratureSpec)
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValidationError(
                f"output_dir must be a str or path-like, not "
                f"{type(self.output_dir).__name__}")
        if not self.sigma0_ladder:
            raise ValidationError("sigma0_ladder must not be empty")
        # each cell's physics runs the validity guard on its sigma0
        cells = tuple(replace(self.physics, sigma0=s0)
                      for s0 in self.sigma0_ladder)
        # refuses what pi_of_phi refuses: a non-scheme, and the delta
        scheme_weight(cells[0], self.scheme)
        # -0.0 + 0.0 is 0.0, so -0 gets the column label of 0
        thetas = tuple(as_number("thetas_deg", t) + 0.0
                       for t in self.thetas_deg) \
            or default_thetas_deg(cells[0])
        for theta in thetas:
            if not 0.0 <= theta < 360.0:
                raise ValidationError(
                    f"thetas_deg must lie in [0, 360); got {theta!r}")
        object.__setattr__(self, "physics", cells[0])
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "sigma0_ladder",
                           tuple(cell.sigma0 for cell in cells))
        object.__setattr__(self, "thetas_deg", thetas)
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _parse_number(raw: str, key: str, line_no: int, kind=float):
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigParseError(f"value for {key!r} is not {noun}: {raw!r}",
                               line=line_no) from None


def _parse_float_list(raw: str, key: str, line_no: int) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigParseError(f"{key!r} needs at least one value", line=line_no)
    return tuple(_parse_number(item, key, line_no) for item in items)


def _read_config(text: str, allow_scheme: bool) -> dict:
    """The typed settings of a key=value document, in document order;
    ``preset = X`` sets ``d``."""
    settings = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw_line!r}",
                                   line=line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if not value:
            raise ConfigParseError(f"empty value for {key!r}", line=line_no)

        if key == "preset":
            if value not in PRESETS:
                raise ConfigParseError(f"unknown preset {value!r}; choose I or II",
                                       line=line_no)
            settings["d"] = PRESETS[value]
        elif key in _PHYSICS_KEYS or key == "rel_tol":
            settings[key] = _parse_number(value, key, line_no)
        elif key in ("sigma0", "thetas_deg"):
            settings[key] = _parse_float_list(value, key, line_no)
        elif key == "scheme":
            if not allow_scheme:
                raise ConfigParseError(
                    "compare writes both current schemes; remove the "
                    "'scheme' key", line=line_no)
            try:
                settings[key] = ArrivalScheme.from_name(value)
            except ValidationError as exc:
                raise ConfigParseError(str(exc), line=line_no) from None
        elif key in ("panel_order", "max_depth"):
            settings[key] = _parse_number(value, key, line_no, int)
        elif key == "out":
            settings[key] = Path(value)
        else:
            raise ConfigParseError(f"unknown key {key!r}", line=line_no)
    return settings


def _build(settings: dict) -> RunConfig:
    """The validated RunConfig of merged settings; omitted keys keep the
    d=1 cm preset and its standard ladder, and omitted analyzer angles
    follow the final physics."""
    ladder = settings.get("sigma0", DEFAULT_SIGMA0_LADDER)
    physics = PhysicsConfig(sigma0=ladder[0], **{
        key: settings[key] for key in _PHYSICS_KEYS if key in settings})
    quad = QuadratureSpec(**{key: settings[key] for key in _QUAD_KEYS
                             if key in settings})
    return RunConfig(
        physics=physics, quad=quad, thetas_deg=settings.get("thetas_deg", ()),
        sigma0_ladder=ladder,
        scheme=settings.get("scheme", ArrivalScheme.MODULUS_TOTAL_CURRENT),
        output_dir=settings.get("out", Path(".")))


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document into a validated RunConfig.

    Unknown keys are rejected with their line number.  Omitted keys keep
    the d=1 cm preset with its standard sweep axes.
    """
    return _build(_read_config(text, allow_scheme=True))


def serialize(cfg: RunConfig) -> str:
    """Emit a config document that parses back to an equal RunConfig;
    ``ValidationError`` for an ``output_dir`` that a config value cannot
    carry ('#', a line break, or whitespace at either end)."""
    out = str(cfg.output_dir)
    if "#" in out or out != out.strip() or len(out.splitlines()) > 1:
        raise ValidationError(f"output_dir {out!r} cannot be written to a "
                              f"config: '#', line break or edge whitespace")
    lines = ["# qclock run configuration"]
    for key in _PHYSICS_KEYS:
        lines.append(f"{key} = {getattr(cfg.physics, key)!r}")
    lines.append("sigma0 = " + ", ".join(repr(s) for s in cfg.sigma0_ladder))
    lines.append("thetas_deg = " + ", ".join(repr(t) for t in cfg.thetas_deg))
    lines.append(f"scheme = {cfg.scheme.value}")
    lines.append(f"rel_tol = {cfg.quad.rel_tol!r}")
    lines.append(f"panel_order = {cfg.quad.panel_order}")
    lines.append(f"max_depth = {cfg.quad.max_depth}")
    lines.append(f"out = {out}")
    return "\n".join(lines) + "\n"


def _sigma_tag(sigma0: float) -> str:
    return repr(sigma0).replace("-", "m").replace("+", "p").replace(".", "_")


def _distinct_labels(values, label, noun: str, unit: str,
                     target: str) -> list[str]:
    """Each value's label, in order; two values sharing one are refused,
    since one would silently overwrite the other's column or file."""
    seen: dict[str, float] = {}
    for value in values:
        key = label(value)
        if key in seen:
            raise ValidationError(
                f"{noun} {seen[key]!r} and {value!r} {unit} share the "
                f"{target} {key}")
        seen[key] = value
    return list(seen)


def run_table(cfg: RunConfig) -> Path:
    """Channel probabilities for every (sigma0, theta) cell, 5 decimals.

    Layout mirrors the reference tables: one row per sigma0, a
    (p_plus, p_minus) column pair per analyzer angle.
    """
    labels = _distinct_labels(cfg.thetas_deg, lambda theta: f"{theta:.5f}",
                              "analyzer angles", "deg", "table column label")
    thetas_rad = [math.radians(t) for t in cfg.thetas_deg]

    def cell(physics: PhysicsConfig):
        dist = pi_of_phi(physics, cfg.scheme, cfg.quad)
        return [measure(dist, theta) for theta in thetas_rad]

    rows = [cell(physics) for physics in cfg.cells]

    header = ["sigma0_cm"]
    for label in labels:
        header.append(f"p_plus_{label}")
        header.append(f"p_minus_{label}")
    lines = [",".join(header)]
    for sigma0, results in zip(cfg.sigma0_ladder, rows):
        cells = [repr(sigma0)]
        for res in results:
            cells.append(f"{round_half_away(res.p_plus):.5f}")
            cells.append(f"{round_half_away(res.p_minus):.5f}")
        lines.append(",".join(cells))

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / "table.csv"
    _write_text(path, "\n".join(lines) + "\n")
    return path


def run_curve(cfg: RunConfig) -> list[Path]:
    """Angular density curve per sigma0, plus a summary sidecar each."""
    _distinct_labels(cfg.sigma0_ladder,
                     lambda sigma0: f"curve_sigma0_{_sigma_tag(sigma0)}.csv",
                     "sigma0 values", "cm", "output file")

    def cell(physics: PhysicsConfig):
        dist = pi_of_phi(physics, cfg.scheme, cfg.quad)
        # the norm check and the tabulation run on first read: read both
        # here, so that a failure in either comes before any file is
        # written
        dist.norm_check
        dist.density
        return dist, peak_phi(dist), variance_phi(dist)

    results = [cell(physics) for physics in cfg.cells]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for sigma0, (dist, peak, variance) in zip(cfg.sigma0_ladder, results):
        tag = _sigma_tag(sigma0)
        curve_path = cfg.output_dir / f"curve_sigma0_{tag}.csv"
        write_distribution_csv(dist, curve_path)
        summary_path = cfg.output_dir / f"curve_sigma0_{tag}_summary.txt"
        _write_text(summary_path, "\n".join([
            f"peak_phi_deg = {math.degrees(peak):.17g}",
            f"variance_rad2 = {variance:.17g}",
            f"truncated_tail_mass = {dist.truncated_tail_mass:.17g}",
        ]) + "\n")
        paths.extend([curve_path, summary_path])
    return paths


_COMPARE_SCHEMES = (ArrivalScheme.MODULUS_TOTAL_CURRENT,
                    ArrivalScheme.MODULUS_SCHRODINGER_CURRENT)


def run_compare(cfg: RunConfig) -> list[Path]:
    """Quantum-scheme vs semiclassical deviations; one CSV per scheme and
    sigma0."""
    first = _COMPARE_SCHEMES[0].value
    _distinct_labels(
        cfg.sigma0_ladder,
        lambda sigma0: f"compare_{first}_sigma0_{_sigma_tag(sigma0)}.csv",
        "sigma0 values", "cm", "output file")
    thetas_rad = [math.radians(t) for t in cfg.thetas_deg]
    cells = [(scheme, physics) for scheme in _COMPARE_SCHEMES
             for physics in cfg.cells]

    reports = [deviation_report(physics, scheme, thetas_rad, cfg.quad)
               for scheme, physics in cells]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for (scheme, physics), rows in zip(cells, reports):
        path = cfg.output_dir / \
            f"compare_{scheme.value}_sigma0_{_sigma_tag(physics.sigma0)}.csv"
        write_deviation_csv(rows, path)
        paths.append(path)
    return paths


def run_validate(cfg: RunConfig) -> None:
    """Config check only; constructing RunConfig already ran every guard."""
    phys = cfg.physics
    print("configuration OK")
    print(f"  d = {phys.d} cm, u = {phys.u} cm/s, B = {phys.B} gauss")
    print(f"  mu = {phys.mu} erg/gauss, omega = {phys.omega:.6f} rad/s")
    print(f"  peak rotation = {math.degrees(phys.phi_peak):.5f} deg")
    print(f"  sigma0 ladder = {', '.join(repr(s) for s in cfg.sigma0_ladder)} cm")
    print(f"  analyzer angles = {', '.join(f'{t:.5f}' for t in cfg.thetas_deg)} deg")
    print(f"  scheme = {cfg.scheme.value}")
    print(f"  quadrature: rel_tol={cfg.quad.rel_tol}, "
          f"order={cfg.quad.panel_order}, max_depth={cfg.quad.max_depth}")


def _add_common_flags(parser: argparse.ArgumentParser,
                      with_scheme: bool) -> None:
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in parameter set (rotator length)")
    parser.add_argument("--sigma0", action="append", type=float, metavar="CM",
                        help="initial packet width; repeat for a ladder")
    parser.add_argument("--theta-deg", action="append", type=float,
                        metavar="DEG", help="analyzer angle; repeatable")
    if with_scheme:
        parser.add_argument("--scheme",
                            choices=[s.value for s in ArrivalScheme],
                            help="arrival-time scheme")
    else:
        parser.set_defaults(scheme=None)
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--rel-tol", type=float, help="quadrature tolerance")


def _config_text(path: Path) -> str:
    """A config file's text, without one leading UTF-8 byte-order mark (as
    some editors write); ``ConfigParseError``, naming the file and line,
    for bytes that are not UTF-8."""
    data = path.read_bytes()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        start = bom + exc.start
        raise ConfigParseError(
            f"{path} is not UTF-8 text ({exc.reason} at byte {start})",
            line=data.count(b"\n", 0, start) + 1) from None


def _assemble(args: argparse.Namespace) -> RunConfig:
    """One RunConfig from --preset, then --config, then the other flags;
    a later source wins, and only the merged settings are validated."""
    settings = {"d": PRESETS[args.preset]} if args.preset else {}
    if args.config is not None:
        # compare writes both current schemes and has no --scheme flag either
        settings.update(_read_config(_config_text(args.config),
                                     allow_scheme=args.command != "compare"))
    flags = {"sigma0": args.sigma0, "thetas_deg": args.theta_deg,
             "scheme": args.scheme and ArrivalScheme.from_name(args.scheme),
             "rel_tol": args.rel_tol, "out": args.out}
    settings.update((key, value) for key, value in flags.items()
                    if value is not None)
    return _build(settings)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Spin-rotator quantum clock: angular distributions of "
                    "emergent spins and Stern-Gerlach probabilities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("table", "channel probabilities per (sigma0, theta), 5 decimals"),
            ("curve", "angular density curves plus summary sidecars"),
            ("compare", "quantum schemes vs the semiclassical baseline"),
            ("validate", "check a configuration and exit")):
        # compare always writes both current schemes
        _add_common_flags(sub.add_parser(name, help=text),
                          with_scheme=name != "compare")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _assemble(args)
        if args.command == "validate":
            run_validate(cfg)
        elif args.command == "table":
            print(f"wrote {run_table(cfg)}")
        elif args.command == "curve":
            for path in run_curve(cfg):
                print(f"wrote {path}")
        else:
            for path in run_compare(cfg):
                print(f"wrote {path}")
    except ConfigParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, DomainError, UnsupportedSchemeError,
            DegenerateDistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QClockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
