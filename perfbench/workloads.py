"""The four workloads: seeded op streams and how one op is run and checked.

Every op is built from the seed alone.  CLI ops reach the program the way
its users do, as ``qclock.cli.main([...])`` on a generated config file;
the off-preset op uses the library API.  A *cell* is one (config, sigma0,
scheme); a *theta* is one analyzer angle evaluated on one cell.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import qclock
from qclock import cli, distribution, measurement

TOTAL = "modulus-total-current"
SCHRODINGER = "modulus-schrodinger-current"
PRESET_D = {"I": 1.0, "II": 2.0}
PAPER_SIGMA0 = (1e-5, 1e-6, 1e-7, 1e-8)
PAPER_OFFSETS_DEG = (0.0, 60.0, 90.0)

#: Seeded analyzer angles per theta-scan cell, on top of peak+0/60/90.
SCAN_ANGLES = 61

#: Success in the off-preset workload: discarded tail mass at most this.
TAIL_OK = 1e-6

#: p+ + p- must equal 1 to this, read back from full-precision files.
SUM_TOL = 1e-12

#: table.csv rounds each probability to 5 decimals, so its sum may be off
#: by the two half-units of rounding.
TABLE_SUM_TOL = 1e-5 + 1e-12


class CheckFailed(Exception):
    """An output of the program is wrong; the run must not report a result."""


@dataclass(frozen=True)
class Cell:
    """One (config, sigma0, scheme) plus the analyzer angles taken on it."""

    physics: tuple  # sorted (key, value) pairs for qclock.PhysicsConfig
    scheme: str
    thetas_rad: tuple = ()

    def config(self):
        return qclock.PhysicsConfig(**dict(self.physics))


@dataclass(frozen=True)
class Op:
    index: int
    command: str | None  # CLI subcommand, or None for a library op
    config_lines: tuple  # config document for CLI ops, without ``out``
    cells: tuple
    redraws: int = 0

    @property
    def thetas(self) -> int:
        return sum(len(c.thetas_rad) for c in self.cells)


@dataclass
class Outcome:
    success: bool
    error: str | None = None  # class name of a typed QClockError
    truncated: bool = False
    thetas: int = 0  # analyzer angles evaluated
    peak: float | None = None  # the angle a library op measured at
    record: str = ""  # results of a library op, as written to result.txt


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _peak_deg(d: float) -> float:
    return math.degrees(qclock.PhysicsConfig(d=d).phi_peak)


def _physics(preset: str, sigma0: float) -> tuple:
    return (("d", PRESET_D[preset]), ("sigma0", sigma0))


def cli_op(index, command, preset, ladder, thetas_deg=None, schemes=(TOTAL,)):
    lines = [f"preset = {preset}", "sigma0 = " + ", ".join(map(repr, ladder))]
    if thetas_deg is None:
        thetas_deg = tuple(_peak_deg(PRESET_D[preset]) + off for off in PAPER_OFFSETS_DEG)
    else:
        lines.append("thetas_deg = " + ", ".join(map(repr, thetas_deg)))
    thetas = tuple(math.radians(t) for t in thetas_deg) if command != "curve" else ()
    cells = tuple(Cell(_physics(preset, s0), scheme, thetas)
                  for scheme in schemes for s0 in ladder)
    return Op(index, command, tuple(lines), cells)


def ladder_ops(rng: random.Random):
    """``qclock table``: the paper's two 4-row ladders, then seeded
    log-spaced ladders of 4-12 rows in [1e-8, 1e-5] cm, presets alternating,
    at the default peak+0/60/90 angles."""
    yield cli_op(0, "table", "I", PAPER_SIGMA0)
    yield cli_op(1, "table", "II", PAPER_SIGMA0)
    index = 2
    while True:
        rows = rng.randint(4, 12)
        top, bottom = rng.uniform(-6.5, -5.0), rng.uniform(-8.0, -6.5)
        ladder = tuple(10.0 ** (top + (bottom - top) * k / (rows - 1)) for k in range(rows))
        yield cli_op(index, "table", "I" if index % 2 == 0 else "II", ladder)
        index += 1


def theta_ops(rng: random.Random):
    """``qclock compare``: one sigma0 per op under both density schemes, at
    peak+0/60/90 plus SCAN_ANGLES seeded angles.  The first eight ops are
    the paper's (preset, sigma0) cells; later sigma0 are log-uniform in
    [1e-8, 1e-5] cm."""
    index = 0
    while True:
        if index < 8:
            preset, sigma0 = ("I", "II")[index // 4], PAPER_SIGMA0[index % 4]
        else:
            preset, sigma0 = ("I", "II")[index % 2], _log_uniform(rng, 1e-8, 1e-5)
        peak = _peak_deg(PRESET_D[preset])
        thetas = tuple(peak + off for off in PAPER_OFFSETS_DEG) + tuple(
            rng.uniform(0.0, 360.0) for _ in range(SCAN_ANGLES))
        yield cli_op(index, "compare", preset, (sigma0,), thetas, (TOTAL, SCHRODINGER))
        index += 1


def curve_ops(rng: random.Random):
    """``qclock curve``: one log-uniform sigma0 in [1e-8, 1e-5] cm per op,
    presets alternating."""
    index = 0
    while True:
        preset = ("I", "II")[index % 2]
        yield cli_op(index, "curve", preset, (_log_uniform(rng, 1e-8, 1e-5),))
        index += 1


def fuzz_ops(rng: random.Random):
    """Library ``pi_of_phi`` + ``measure`` at ``peak_phi`` on configs drawn
    from d 0.1-5 cm, u 1e4-1e6 cm/s, B 1-100 G, sigma0 1e-9-1e-3 cm;
    configs that ``PhysicsConfig`` rejects are drawn again and counted."""
    index = 0
    while True:
        redraws = 0
        while True:
            physics = (("B", _log_uniform(rng, 1.0, 100.0)), ("d", rng.uniform(0.1, 5.0)),
                       ("sigma0", _log_uniform(rng, 1e-9, 1e-3)),
                       ("u", _log_uniform(rng, 1e4, 1e6)))
            try:
                qclock.PhysicsConfig(**dict(physics))
                break
            except qclock.ValidationError:
                redraws += 1
        yield Op(index, None, (), (Cell(physics, TOTAL),), redraws)
        index += 1


WORKLOADS = {
    "ladder-sweep": ladder_ops,
    "theta-scan": theta_ops,
    "curve-files": curve_ops,
    "offpreset-fuzz": fuzz_ops,
}


def op_stream(workload: str, seed: int):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def prepare(op: Op, out_dir: Path, cfg_path: Path):
    """Write the op's inputs; return the zero-argument call to be timed."""
    if op.command is None:
        cell = op.cells[0]
        return lambda: _run_library(cell)
    cfg_path.write_text("\n".join(op.config_lines + (f"out = {out_dir}",)) + "\n",
                        encoding="utf-8")
    argv = [op.command, "--config", str(cfg_path)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return call


def _run_library(cell: Cell):
    """The timed library op: its results, or the typed error it raised."""
    try:
        dist = distribution.pi_of_phi(cell.config(), distribution.ArrivalScheme(cell.scheme))
        peak = distribution.peak_phi(dist)
        return dist, peak, measurement.measure(dist, peak)
    except qclock.QClockError as exc:
        return exc


def _library_outcome(cell: Cell, returned) -> Outcome:
    if isinstance(returned, qclock.QClockError):
        return Outcome(False, error=type(returned).__name__,
                       record=f"error {type(returned).__name__}")
    dist, peak, result = returned
    # A truncated result is renormalised from the mass left inside one turn
    # and the program warns that it is biased; it counts as unsuccessful,
    # and only the results it presents as usable must sum to one.
    truncated = dist.truncated_tail_mass > TAIL_OK
    if not truncated and abs(result.p_plus + result.p_minus - 1.0) > SUM_TOL:
        raise CheckFailed(f"p+ + p- = {result.p_plus + result.p_minus!r} for {cell}")
    record = " ".join(repr(v) for v in (peak, result.p_plus, result.p_minus,
                                        dist.norm_check, dist.truncated_tail_mass))
    return Outcome(not truncated, truncated=truncated, thetas=1, peak=peak, record=record)


def finish(op: Op, returned, out_dir: Path) -> Outcome:
    """Check one op's result and written files; raise CheckFailed if wrong.

    A library op's results are written to ``result.txt`` at ``repr``
    precision, so the output gate covers them too.
    """
    if op.command is None:
        outcome = _library_outcome(op.cells[0], returned)
        (out_dir / "result.txt").write_text(outcome.record + "\n", encoding="utf-8")
        return outcome
    if returned != cli.EXIT_OK:
        raise CheckFailed(f"op {op.index}: qclock {op.command} exited {returned}")
    files = sorted(p.name for p in out_dir.iterdir())
    if op.command == "table":
        _check_sums(out_dir / "table.csv", TABLE_SUM_TOL)
    elif op.command == "compare":
        if len(files) != 2:
            raise CheckFailed(f"op {op.index}: expected 2 compare files, got {files}")
        for name in files:
            _check_sums(out_dir / name, SUM_TOL)
    elif len(files) != 2 * len(op.cells):
        raise CheckFailed(f"op {op.index}: expected a curve and a sidecar per cell, got {files}")
    return Outcome(True, thetas=op.thetas)


def _check_sums(path: Path, tol: float) -> None:
    """Every (p+, p-) column pair of a CSV sums to 1 within ``tol``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    plus = [i for i, h in enumerate(header) if h.startswith("p_plus") and not h.endswith("_sc")]
    if not plus:
        raise CheckFailed(f"{path.name}: no p_plus column")
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        for i in plus:
            if not abs(values[i] + values[i + 1] - 1.0) <= tol:
                raise CheckFailed(f"{path.name}: p+ + p- = {values[i] + values[i + 1]!r}")
