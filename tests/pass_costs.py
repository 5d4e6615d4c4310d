"""Print the best-of-N cost in microseconds of fixed quadrature passes.

Each case is one call of the library, timed in one process:

- ``integrate_full(np.sin, 0, 3)``;
- ``measure`` at the peak of each of the 8 preset cells under both
  current schemes, on a distribution built beforehand: one m1 pass
  accepted at its kept first level;
- ``_distributions`` over the paper's preset-I ladder (sigma0 1e-5 to
  1e-8 cm, total current): one norm batch and one tail batch;
- ``pi_of_phi`` of the first seeded off-preset cell of
  ``library_transcript.py`` (seed 0), whose tail pass refines 6 levels;
- ``variance_phi`` on preset II at sigma0 = 1e-8 cm, a curve cell whose
  variance pass makes one level below the kept one;
- cells that share their keys, as one batch and one by one: both
  schemes of preset I at sigma0 = 1e-7 cm (the cells of ``compare``),
  and the tail passes over [2*pi, 8*pi] of the paper's preset-I ladder
  under both schemes (``compare`` on that ladder).

A round times every case once, as the best of ``--repeat`` timeit runs
of a loop sized to take about ``--target`` seconds; the printed figure
is the best over ``--rounds`` rounds::

    PYTHONPATH=src python tests/pass_costs.py

``--against SRC`` also imports the package found in the directory SRC
(the ``src`` of another tree) side by side, and interleaves the rounds
of both sides, alternating which goes first.  Each line then holds the
other tree's figure, this tree's and their ratio, and a last line gives
the median ratio over the measure cases::

    PYTHONPATH=src python tests/pass_costs.py --against ../parent/src
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import timeit
import warnings
from pathlib import Path

import numpy as np

import qclock
from library_transcript import offpreset_cells

PRESET_SIGMA0 = (1e-5, 1e-6, 1e-7, 1e-8)
SCHEME_NAMES = ("modulus-total-current", "modulus-schrodinger-current")


def load_package(src: Path, name: str = "qclock_against"):
    """The ``qclock`` package under ``src``, imported as ``name``."""
    init = src / "qclock" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def cases(pkg) -> dict:
    """{name: callable} of every case, on the package ``pkg``."""
    scheme = {name: pkg.ArrivalScheme(name) for name in SCHEME_NAMES}
    total = scheme[SCHEME_NAMES[0]]
    out = {"integrate_full(sin, 0, 3)":
           lambda: pkg.integrate_full(np.sin, 0.0, 3.0)}
    for d in (1.0, 2.0):
        for sigma0 in PRESET_SIGMA0:
            cfg = pkg.PhysicsConfig(d=d, sigma0=sigma0)
            for name in SCHEME_NAMES:
                dist = pkg.pi_of_phi(cfg, scheme[name])
                out[f"measure d={d:g} s0={sigma0:g} {name.split('-')[1]}"] = (
                    lambda dist=dist, theta=cfg.phi_peak:
                    pkg.measure(dist, theta))
    ladder = [(pkg.PhysicsConfig(sigma0=s), total) for s in PRESET_SIGMA0]
    out["_distributions(paper ladder I)"] = lambda: list(
        pkg.distribution._distributions(ladder, pkg.QuadratureSpec()))
    physics, fuzz_scheme = next(offpreset_cells(1, 0))
    fuzz = pkg.PhysicsConfig(**physics)
    out["pi_of_phi(fuzz seed 0 #0, tail)"] = (
        lambda s=pkg.ArrivalScheme(fuzz_scheme.value): pkg.pi_of_phi(fuzz, s))
    curve = pkg.pi_of_phi(pkg.PhysicsConfig(d=2.0, sigma0=1e-8), total)
    out["variance_phi(II, s0=1e-8)"] = lambda: pkg.variance_phi(curve)
    both = [(pkg.PhysicsConfig(sigma0=1e-7), scheme[name])
            for name in SCHEME_NAMES]
    out["compare cells, one batch"] = lambda: list(
        pkg.distribution._distributions(both, pkg.QuadratureSpec()))
    out["compare cells, one by one"] = lambda: [
        pkg.pi_of_phi(*cell) for cell in both]
    dist, quad = pkg.distribution, pkg.QuadratureSpec()
    tails = [(cfg, scheme[name]) for name in SCHEME_NAMES
             for cfg, _total in ladder if dist.TWO_PI < 2.0 * cfg.omega
             * pkg.current.exit_current_support(cfg)[1]]
    weights = [dist.scheme_weight(*cell) for cell in tails]
    span = (dist.TWO_PI, dist.TWO_PI * dist._TAIL_HORIZON_TURNS, ())
    out[f"ladder tails ({len(tails)}), one batch"] = (
        lambda f=dist._ladder_weight(tails, weights): dist._integrate_batch(
            f, [span] * len(tails), quad))
    out[f"ladder tails ({len(tails)}), one by one"] = lambda: [
        dist._integrate_batch(w, [span], quad) for w in weights]
    return out


def best_us(fn, repeat: int, target: float) -> float:
    """The best of ``repeat`` timeit runs of ``fn``, in us per call."""
    timer = timeit.Timer(fn)
    number = max(1, math.ceil(target / max(timer.timeit(1), 1e-7)))
    return 1e6 * min(timer.repeat(repeat, number)) / number


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="SRC")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--target", type=float, default=0.02,
                        metavar="SECONDS")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the fuzz cell's tail warning
        sides = [cases(qclock)]
        if args.against is not None:
            sides.insert(0, cases(load_package(args.against)))
        best = [dict.fromkeys(sides[0], math.inf) for _side in sides]
        for r in range(args.rounds):
            for name in sides[0]:
                for k in (range(len(sides)) if r % 2 == 0
                          else reversed(range(len(sides)))):
                    best[k][name] = min(best[k][name], best_us(
                        sides[k][name], args.repeat, args.target))
    width = max(map(len, best[0]))
    if args.against is None:
        for name, us in best[0].items():
            print(f"{name:<{width}}  {us:9.2f} us")
        return 0
    print(f"{'case':<{width}}  {'against':>9}  {'this':>9}  ratio")
    for name, theirs in best[0].items():
        ours = best[1][name]
        print(f"{name:<{width}}  {theirs:9.2f}  {ours:9.2f}  "
              f"{ours / theirs:.3f}")
    ratios = [best[1][n] / best[0][n] for n in best[0]
              if n.startswith("measure")]
    print(f"{'median ratio, measure':<{width}}  {'':>9}  {'':>9}  "
          f"{statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
