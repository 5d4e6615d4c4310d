"""Print a seeded transcript of the library's results, one line per value.

For each cell (a physics config and a current scheme) it prints the
``repr`` of ``norm_constant``, ``truncated_tail_mass``, ``peak_phi``,
``measure`` at the peak and at a seeded angle, ``density_matrix``,
``mean_phi`` and ``variance_phi``, or the class and message of the typed
error a step raised.  A warning that a step emits is printed too.  The
cells are the 8 preset cells under both current schemes, then a
fixed-seed set of off-preset configs.  After them come 12 seeded
densities normalized by ``AngularDistribution.from_density``, von Mises
bumps with and without split hints, each with the ``repr`` of its
``norm_constant``, m1 (``first_moment``), ``mean_phi``,
``variance_phi`` and ``peak_phi``.  Two trees, or two environments,
compute the same values when their transcripts are equal::

    PYTHONPATH=src python tests/library_transcript.py > transcript.txt

``--configs N`` sets the number of off-preset configs (default 200) and
``--seed S`` their seed and that of the densities (default 0).
``--against FILE`` prints, instead of the transcript, every line that
differs from the transcript in FILE, under the line of its cell, with
both sides, and exits with status 1 if any line differs::

    PYTHONPATH=src python tests/library_transcript.py --against transcript.txt
"""

from __future__ import annotations

import argparse
import difflib
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np

from qclock import (AngularDistribution, ArrivalScheme, PhysicsConfig,
                    bracketing_hints, density_matrix, measure, peak_phi,
                    pi_of_phi)
from qclock.distribution import TWO_PI, first_moment, mean_phi, variance_phi
from qclock.errors import QClockError

SCHEMES = (ArrivalScheme.MODULUS_TOTAL_CURRENT,
           ArrivalScheme.MODULUS_SCHRODINGER_CURRENT)

#: The number of seeded ``from_density`` cells.
DENSITY_CELLS = 12


def preset_cells():
    """The (physics keywords, scheme) of the 8 preset cells, both schemes."""
    for d in (1.0, 2.0):
        for sigma0 in (1e-5, 1e-6, 1e-7, 1e-8):
            for scheme in SCHEMES:
                yield {"d": d, "sigma0": sigma0}, scheme


def offpreset_cells(count: int, seed: int):
    """``count`` seeded configs over d 0.1-5 cm, u 1e4-1e6 cm/s, B 1-100 G
    and sigma0 1e-9-1e-3 cm, each under a seeded current scheme."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    for _ in range(count):
        physics = {"d": rng.uniform(0.1, 5.0), "u": log_uniform(1e4, 1e6),
                   "B": log_uniform(1.0, 100.0),
                   "sigma0": log_uniform(1e-9, 1e-3)}
        yield physics, rng.choice(SCHEMES)


def density_cells(count: int, seed: int):
    """``count`` seeded (kappa, center, hinted) of von Mises bumps
    exp(kappa*(cos(phi - center) - 1)): center uniform in [0, 2*pi), and
    every other bump split at ``bracketing_hints`` of its width
    1/sqrt(kappa), with kappa log-uniform in 1-1e8, the others in 1-1e3."""
    rng = random.Random(seed)
    for k in range(count):
        hinted = k % 2 == 0
        kappa = 10.0 ** rng.uniform(0.0, 8.0 if hinted else 3.0)
        yield kappa, rng.uniform(0.0, TWO_PI), hinted


def _step(lines, name, thunk, quiet=False):
    """``thunk()``, or None on a typed error; appends its transcript lines
    (its value unless ``quiet``, or its error, then any warning it
    emitted) to ``lines``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = thunk()
            if not quiet:
                lines.append(f"  {name} = {value!r}")
        except QClockError as exc:
            value = None
            lines.append(f"  {name} ! {type(exc).__name__}: {exc}")
    lines.extend(f"  {name} warns {w.category.__name__}: {w.message}"
                 for w in caught)
    return value


def transcript(cells, seed: int) -> list[str]:
    """The transcript lines of ``cells``; ``seed`` draws each cell's
    extra analyzer angle."""
    rng = random.Random(seed)
    lines = []
    for physics, scheme in cells:
        theta = rng.uniform(0.0, TWO_PI)
        lines.append(f"{scheme.value} {physics!r}")
        cfg = _step(lines, "config", lambda: PhysicsConfig(**physics), True)
        dist = cfg and _step(lines, "pi_of_phi",
                             lambda: pi_of_phi(cfg, scheme), True)
        if dist is None:
            continue
        lines.append(f"  norm_constant = {dist.norm_constant!r}")
        lines.append(f"  truncated_tail_mass = {dist.truncated_tail_mass!r}")
        peak = _step(lines, "peak_phi", lambda: peak_phi(dist))
        if peak is not None:
            _step(lines, "measure(peak)", lambda: measure(dist, peak))
        _step(lines, f"measure({theta!r})", lambda: measure(dist, theta))
        _step(lines, "density_matrix", lambda: density_matrix(dist).tolist())
        _step(lines, "mean_phi", lambda: mean_phi(dist))
        _step(lines, "variance_phi", lambda: variance_phi(dist))
    return lines


def density_transcript(cells) -> list[str]:
    """The transcript lines of the ``from_density`` ``cells``
    (``density_cells``)."""
    lines = []
    for kappa, center, hinted in cells:
        lines.append(f"from_density kappa={kappa!r} center={center!r} "
                     f"hinted={hinted}")
        hints = bracketing_hints(center, kappa ** -0.5) if hinted else ()

        def bump(phi, kappa=kappa, center=center):
            # kappa*(cos(x) - 1), without cos(x) rounding to 1 near x = 0
            return np.exp(-2.0 * kappa * np.sin(0.5 * (phi - center)) ** 2)

        dist = _step(lines, "from_density",
                     lambda: AngularDistribution.from_density(
                         bump, split_hints=hints), True)
        if dist is None:
            continue
        lines.append(f"  norm_constant = {dist.norm_constant!r}")
        _step(lines, "first_moment", lambda: first_moment(dist))
        _step(lines, "mean_phi", lambda: mean_phi(dist))
        _step(lines, "variance_phi", lambda: variance_phi(dist))
        _step(lines, "peak_phi", lambda: peak_phi(dist))
    return lines


def differences(theirs: list[str], ours: list[str]) -> list[str]:
    """Each run of lines that differs between two transcripts, as the
    line of its cell in ``ours``, then ``- `` and ``+ `` lines for
    ``theirs`` and ``ours``."""
    out = []
    matcher = difflib.SequenceMatcher(None, theirs, ours, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        cell = next((line for line in reversed(ours[:j1])
                     if not line.startswith(" ")), "")
        out.append(cell)
        out.extend(f"- {line}" for line in theirs[i1:i2])
        out.extend(f"+ {line}" for line in ours[j1:j2])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    cells = [*preset_cells(), *offpreset_cells(args.configs, args.seed)]
    lines = transcript(cells, args.seed)
    lines += density_transcript(density_cells(DENSITY_CELLS, args.seed))
    if args.against is None:
        print("\n".join(lines))
        return 0
    theirs = args.against.read_text(encoding="utf-8").splitlines()
    diff = differences(theirs, lines)
    if diff:
        print("\n".join(diff))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
