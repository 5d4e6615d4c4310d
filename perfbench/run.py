#!/usr/bin/env python3
"""Layered benchmark of qclock sweep cells.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload's seeded op stream for ``--seconds``
seconds and prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of ops twice, untraced and then with a span at every layer
boundary, and prints the per-layer metrics.  Every timing is in
calibrated seconds (see ``calibration.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits 1 when an output of the program is wrong, and 2
without a result when the program's sources are missing.

This module imports nothing but the standard library before ``qclock``,
because a setup child (``--setup-child``) times that import.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("ladder-sweep", "theta-scan", "curve-files", "offpreset-fuzz")


def import_qclock():
    """Import qclock from this checkout's sources, never from elsewhere."""
    if not (SRC / "qclock" / "__init__.py").is_file():
        print(f"error: no qclock sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qclock
    import qclock.cli
    if Path(qclock.__file__).resolve().parent != (SRC / "qclock").resolve():
        print(f"error: imported qclock from {qclock.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return qclock


def setup_child(workload: str, seed: int, work: Path) -> None:
    """One fresh interpreter: import, build inputs, run one warm-up op."""
    start = time.perf_counter()
    import_qclock()
    imported = time.perf_counter()
    import workloads as wl
    op = next(wl.op_stream(workload, seed))
    out = work / "out"
    call = wl.prepare(op, out, work / "op.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        returned = call()
    warm = time.perf_counter()
    wl.finish(op, returned, out)
    print(json.dumps({"import_s": imported - start, "warm_s": warm - imported}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is not None:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0
    qclock = import_qclock()
    import harness
    import workloads as wl
    try:
        result = harness.measure(qclock, args)
    except wl.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
