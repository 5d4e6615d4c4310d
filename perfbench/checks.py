"""Correctness checks made outside the timed region of every run.

- The output gate: the run's first op is repeated at the end and every
  file it wrote must come back byte-identical.
- The reference tables: ``qclock table`` on the paper's two ladders,
  compared with the 48 published values; the largest difference is
  reported as it is, including the known criterion-2 gap.
- The oracle: P+, variance and norm of sampled cells against
  ``scipy.integrate.quad`` over the public ``density_fn`` with
  ``split_hints`` as breakpoints.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
from qclock import distribution, measurement

import workloads as wl

#: Published Tables I (d = 1 cm) and II (d = 2 cm): (p+, p-) at analyzer
#: angles peak+0, +60 and +90 degrees for each sigma0 (cm).
TABLES = {
    "I": {
        1e-5: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
        1e-6: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
        1e-7: ((0.99998, 0.00002), (0.75002, 0.24998), (0.50003, 0.49997)),
        1e-8: ((0.99886, 0.00114), (0.75242, 0.24758), (0.50345, 0.49655)),
    },
    "II": {
        1e-5: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
        1e-6: ((1.00000, 0.00000), (0.75000, 0.25000), (0.50000, 0.50000)),
        1e-7: ((0.99995, 0.00005), (0.75004, 0.24996), (0.50006, 0.49994)),
        1e-8: ((0.99546, 0.00454), (0.75355, 0.24645), (0.50672, 0.49328)),
    },
}

#: The oracle fails the run above this (the property-suite tolerance).
ORACLE_TOL = 1e-10


class GateError(wl.CheckFailed):
    """The repeated first op wrote different bytes."""


def tree_digest(directory: Path) -> dict:
    """sha256 of every file under ``directory``, by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def combined_digest(digests: dict) -> str:
    h = hashlib.sha256()
    for name, digest in sorted(digests.items()):
        h.update(f"{name} {digest}\n".encode())
    return h.hexdigest()


def compare_trees(first: Path, repeat: Path) -> None:
    """Raise GateError unless both trees hold the same files, byte for byte."""
    a, b = tree_digest(first), tree_digest(repeat)
    if not a:
        raise GateError(f"the first op wrote no files under {first}")
    if a.keys() != b.keys():
        raise GateError(f"file sets differ: {sorted(a.keys() ^ b.keys())}")
    changed = sorted(name for name in a if a[name] != b[name])
    if changed:
        raise GateError(f"repeating the first op changed the bytes of {changed}")


def reference_deviation(table_csv: Path, preset: str) -> float:
    """Largest |written - published| over one table.csv of a paper ladder."""
    lines = table_csv.read_text(encoding="utf-8").splitlines()
    rows = {float(line.split(",")[0]): [float(v) for v in line.split(",")[1:]]
            for line in lines[1:]}
    published = TABLES[preset]
    if set(rows) != set(published):
        raise wl.CheckFailed(f"{table_csv}: rows {sorted(rows)} are not the paper ladder")
    worst = 0.0
    for sigma0, pairs in published.items():
        ref = [p for pair in pairs for p in pair]
        if len(rows[sigma0]) != len(ref):
            raise wl.CheckFailed(f"{table_csv}: sigma0={sigma0!r} has {len(rows[sigma0])} values")
        worst = max(worst, max(abs(got - want) for got, want in zip(rows[sigma0], ref)))
    return worst


def oracle_deviation(cell: wl.Cell) -> float:
    """Largest |program - scipy quad| over norm, variance and P+ of one cell."""
    # Imported here so that peak_rss_mb, taken before the checks, excludes scipy.
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        dist = distribution.pi_of_phi(cell.config(), distribution.ArrivalScheme(cell.scheme))
    density = dist.density_fn

    def integral(g) -> float:
        value, _err = quad(lambda x: g(x) * float(density(np.array([x]))[0]),
                           0.0, 2.0 * math.pi, points=dist.split_hints,
                           limit=2000, epsabs=1e-15, epsrel=1e-13)
        return value

    norm = integral(lambda x: 1.0)
    mean = integral(lambda x: x)
    variance = integral(lambda x: (x - mean) ** 2)
    devs = [abs(dist.norm_check - norm),
            abs(distribution.variance_phi(dist) - variance)]
    for theta in cell.thetas_rad:
        p_plus = integral(lambda x: math.cos(0.5 * (theta - x)) ** 2)
        devs.append(abs(measurement.measure(dist, theta).p_plus - p_plus))
    return max(devs)


def paper_cells() -> list:
    """The 8 (preset, sigma0) cells of the tables, at their three angles."""
    return [cell for preset in ("I", "II")
            for cell in wl.cli_op(0, "table", preset, wl.PAPER_SIGMA0).cells]
