"""Write the preset output files and print one ``sha256  path`` line each.

By default this runs ``table``, ``curve`` under both current schemes and
``compare`` for presets I and II on their default ladders: 50 files.
``--ladders N --seed S`` adds N seeded ladders of 4-12 sigma0 in
[1e-8, 1e-5] cm, log-spaced as the benchmark's ladder sweep draws them,
presets alternating, each through the same runs: long ladders and cells
whose current reaches past one turn.  Two trees, or two environments,
write the same bytes when their listings are equal::

    PYTHONPATH=src python tests/output_digests.py OUT_DIR > digests.txt

Paths are relative to ``OUT_DIR``: ``<preset>/<run>/<file>``, where
``<run>`` is ``table``, ``compare`` or ``curve-<scheme>``, and
``ladder<k>-<preset>/<run>/<file>`` for the seeded ladders.  ``--preset``,
``--sigma0`` and ``--command`` narrow the set.  ``--against FILE``
prints, instead of the listing, every path whose digest differs from
the listing in FILE, or that only one of them has, with both sides, and
exits with status 1 if any path differs::

    PYTHONPATH=src python tests/output_digests.py OUT_DIR --against digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

from qclock.cli import main as qclock_main

#: Each run as (directory name, qclock arguments).
RUNS = {
    "table": [("table", ["table"])],
    "curve": [(f"curve-{scheme}", ["curve", "--scheme", scheme])
              for scheme in ("modulus-total-current",
                             "modulus-schrodinger-current")],
    "compare": [("compare", ["compare"])],
}


def seeded_ladders(count: int, seed: int):
    """``count`` (name, preset, ladder) of 4-12 log-spaced sigma0 in
    [1e-8, 1e-5] cm, presets alternating."""
    rng = random.Random(seed)
    for k in range(count):
        rows = rng.randint(4, 12)
        top, bottom = rng.uniform(-6.5, -5.0), rng.uniform(-8.0, -6.5)
        preset = ("I", "II")[k % 2]
        yield f"ladder{k}-{preset}", preset, tuple(
            10.0 ** (top + (bottom - top) * j / (rows - 1))
            for j in range(rows))


def write_outputs(out_dir: Path, presets=("I", "II"),
                  commands=tuple(RUNS), sigma0=(),
                  ladders=()) -> dict[str, str]:
    """Run each command per preset, and per (name, preset, ladder) of
    ``ladders``, into ``out_dir``, which must be new or empty, and return
    the sha256 of every file written, keyed by its path relative to
    ``out_dir``."""
    if out_dir.exists() and any(out_dir.iterdir()):
        raise FileExistsError(f"{out_dir} is not empty")
    runs = [(preset, preset, sigma0) for preset in presets] + list(ladders)
    for directory, preset, ladder in runs:
        flags = [arg for s in ladder for arg in ("--sigma0", repr(s))]
        for command in commands:
            for name, args in RUNS[command]:
                run_dir = out_dir / directory / name
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qclock_main([*args, "--preset", preset, *flags,
                                        "--out", str(run_dir)])
                if code != 0:
                    raise RuntimeError(f"qclock {' '.join(args)} --preset "
                                       f"{preset} {' '.join(flags)} exited "
                                       f"with {code}")
    return {path.relative_to(out_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def differences(theirs: dict[str, str], ours: dict[str, str]) -> list[str]:
    """``path: against <digest>, this <digest>`` for every path whose
    digests differ, with ``missing`` for a side that has no such path."""
    return [f"{path}: against {theirs.get(path, 'missing')}, "
            f"this {ours.get(path, 'missing')}"
            for path in sorted(theirs.keys() | ours.keys())
            if theirs.get(path) != ours.get(path)]


def read_listing(text: str) -> dict[str, str]:
    """The {path: digest} of a listing that ``main`` printed."""
    return {path: digest for digest, path
            in (line.split("  ", 1) for line in text.splitlines() if line)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--preset", action="append", choices=("I", "II"))
    parser.add_argument("--command", action="append", choices=tuple(RUNS))
    parser.add_argument("--sigma0", action="append", type=float, default=[])
    parser.add_argument("--ladders", type=int, default=0, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--against", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    digests = write_outputs(args.out_dir, tuple(args.preset or ("I", "II")),
                            tuple(args.command or RUNS), tuple(args.sigma0),
                            tuple(seeded_ladders(args.ladders, args.seed)))
    if args.against is None:
        for path, digest in digests.items():
            print(f"{digest}  {path}")
        return 0
    diff = differences(
        read_listing(args.against.read_text(encoding="utf-8")), digests)
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
