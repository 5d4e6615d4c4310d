"""Write the preset output files and print one ``sha256  path`` line each.

By default this runs ``table``, ``curve`` under both current schemes and
``compare`` for presets I and II on their default ladders: 50 files.
Two trees, or two environments, write the same bytes when their listings
are equal::

    PYTHONPATH=src python tests/output_digests.py OUT_DIR > digests.txt

Paths are relative to ``OUT_DIR``: ``<preset>/<run>/<file>``, where
``<run>`` is ``table``, ``compare`` or ``curve-<scheme>``.  ``--preset``,
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


def write_outputs(out_dir: Path, presets=("I", "II"),
                  commands=tuple(RUNS), sigma0=()) -> dict[str, str]:
    """Run each command per preset into ``out_dir``, which must be new or
    empty, and return the sha256 of every file written, keyed by its path
    relative to ``out_dir``."""
    if out_dir.exists() and any(out_dir.iterdir()):
        raise FileExistsError(f"{out_dir} is not empty")
    ladder = [arg for s in sigma0 for arg in ("--sigma0", repr(s))]
    for preset in presets:
        for command in commands:
            for name, args in RUNS[command]:
                run_dir = out_dir / preset / name
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qclock_main([*args, "--preset", preset, *ladder,
                                        "--out", str(run_dir)])
                if code != 0:
                    raise RuntimeError(f"qclock {' '.join(args)} --preset "
                                       f"{preset} exited with {code}")
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
    parser.add_argument("--against", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    digests = write_outputs(args.out_dir, tuple(args.preset or ("I", "II")),
                            tuple(args.command or RUNS), tuple(args.sigma0))
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
