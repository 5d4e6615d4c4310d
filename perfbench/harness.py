"""Measurement: setup children, timed op loop, traced pass, kernel probe, checks.

Imported by ``run.py`` only after ``qclock`` is, so that a setup child
can time the import of ``qclock`` and numpy from a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import calibration
import checks
import metrics
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Worker threads for the end-to-end runs: the core count of the host the
#: benchmark was defined on.  The traced pass runs single-threaded.
THREADS = 2

#: Fresh interpreters timed for setup_s, after one that warms file caches.
SETUP_RUNS = 9

#: Ops in the traced run; fixed, so its counts repeat exactly per seed.
TRACE_OPS = {"ladder-sweep": 40, "theta-scan": 24, "curve-files": 60,
             "offpreset-fuzz": 400}

#: Throughput is the median over this many consecutive blocks of ops, so a
#: transient stall moves one block instead of the whole figure.
THROUGHPUT_BLOCKS = 10

#: Seeded ops checked against the scipy oracle, besides the 8 paper cells.
ORACLE_SAMPLES = 3

#: Analyzer angles per sampled cell that the oracle re-integrates.
ORACLE_THETAS = 5

#: Kernel probe sizes in points: a one-point call as peak_phi makes, and
#: the batch sizes the quadrature passes.
PROBE_SIZES = (1, 256, 768, 4608)

#: Rounds of the kernel probe; each times every size once, then the
#: reference op once, so each size is compared with the reference in the
#: same machine phase.
PROBE_ROUNDS = 600


def measure_setup(workload: str, seed: int, work: Path) -> dict:
    """Calibrated medians over SETUP_RUNS fresh interpreters, one at a time.

    The reference loop is sampled in this process between the children: in
    a fresh interpreter its time is bimodal (two modes about 1.8x apart on
    the defining host), which made per-child calibration noisier than raw
    time.
    """
    cal = calibration.Calibrator()
    env = dict(os.environ, QCLOCK_THREADS=str(THREADS))
    runs = []
    for i in range(SETUP_RUNS + 1):
        cal.burst(2 * calibration.BURST_OPS)
        child_dir = work / f"setup{i}"
        (child_dir / "out").mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", str(child_dir),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, env=env, cwd=ROOT)
        if proc.returncode != 0:
            raise wl.CheckFailed(f"setup child exited {proc.returncode}:\n{proc.stderr}")
        if i:
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(child_dir)
    cal.burst()
    ref = statistics.median(cal.samples)
    runs = [dict(r, setup_s=r["import_s"] + r["warm_s"]) for r in runs]
    return {key: calibration.calibrate(statistics.median(r[key] for r in runs), ref)
            for key in runs[0]}


class Session:
    """Runs ops of one workload, checks each, and keeps the gate snapshot."""

    def __init__(self, work: Path, cal):
        self.work = work
        self.cal = cal
        self.out = work / "out"
        self.first = work / "first"

    def run(self, ops, tracer=None) -> dict:
        """Run ``ops`` in order; times, outcomes and counts of the pass."""
        timed, counts, errors = [], Counter(), Counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            for op in ops:
                shutil.rmtree(self.out, ignore_errors=True)
                self.out.mkdir(parents=True)
                call = wl.prepare(op, self.out, self.work / "op.cfg")
                root = tracer.open("bench", "op") if tracer else None
                start = time.perf_counter()
                returned = call()
                end = time.perf_counter()
                if tracer:
                    tracer.close(root)
                outcome = wl.finish(op, returned, self.out)
                self.cal.tick(end - start)
                timed.append((op, start, end, outcome))
                counts["success"] += outcome.success
                counts["truncated"] += outcome.truncated
                counts["redraws"] += op.redraws
                counts["cells"] += len(op.cells)
                counts["thetas"] += outcome.thetas
                counts["bytes"] += sum(p.stat().st_size for p in self.out.iterdir()) \
                    if op.command else 0
                if outcome.error:
                    errors[outcome.error] += 1
                if op.index == 0 and not self.first.exists():
                    shutil.copytree(self.out, self.first)
        counts["tail_warnings"] = sum(issubclass(w.category, UserWarning) for w in caught)
        return {"timed": timed, "counts": counts, "errors": errors}

    def calibrated_times(self, timed) -> list:
        return [self.cal.calibrated(end - start, start, end) for _op, start, end, _o in timed]

    def gate(self, first_op) -> str:
        """Repeat the first op; its files must match byte for byte."""
        self.run([first_op])
        checks.compare_trees(self.first, self.out)
        return checks.combined_digest(checks.tree_digest(self.first))


def timed_loop(session, stream, seconds: float):
    """Ops from ``stream`` until ``seconds`` have passed and p90 has enough tail."""
    ops, deadline = [], time.perf_counter() + seconds
    need = metrics.min_samples()
    results = {"timed": [], "counts": Counter(), "errors": Counter()}
    while time.perf_counter() < deadline or len(ops) < need:
        if time.perf_counter() > deadline + 120.0:
            raise wl.CheckFailed(f"only {len(ops)} ops in {seconds + 120:.0f} s; p90 needs {need}")
        op = next(stream)
        ops.append(op)
        part = session.run([op])
        results["timed"] += part["timed"]
        results["counts"].update(part["counts"])
        results["errors"].update(part["errors"])
    return ops, results


def block_rate(work: list, times: list, blocks: int = THROUGHPUT_BLOCKS) -> float:
    """Median over consecutive blocks of ops of work done per calibrated second."""
    size = len(times) // blocks
    if size < 1:
        raise ValueError(f"{len(times)} ops cannot fill {blocks} blocks")
    return statistics.median(
        sum(work[i:i + size]) / sum(times[i:i + size]) for i in range(0, size * blocks, size))


def common_checks(session, ops, outcomes, seed: int) -> dict:
    """Gate, reference tables and oracle; raise CheckFailed on a wrong output."""
    digest = session.gate(ops[0])
    ref_dev = 0.0
    for preset in ("I", "II"):
        op = wl.cli_op(0, "table", preset, wl.PAPER_SIGMA0)
        session.run([op])
        ref_dev = max(ref_dev, checks.reference_deviation(session.out / "table.csv", preset))
    rng = random.Random(f"oracle:{seed}")
    usable = []
    for op, outcome in zip(ops, outcomes):
        if outcome.success:
            cell = op.cells[0]
            thetas = cell.thetas_rad[:ORACLE_THETAS] if op.command else (outcome.peak,)
            usable.append(wl.Cell(cell.physics, cell.scheme, thetas))
    sampled = [rng.choice(usable) for _ in range(ORACLE_SAMPLES)] if usable else []
    paper_dev = max(checks.oracle_deviation(cell) for cell in checks.paper_cells())
    sampled_dev = max((checks.oracle_deviation(cell) for cell in sampled), default=0.0)
    for dev in (paper_dev, sampled_dev):
        if not dev <= checks.ORACLE_TOL:
            raise wl.CheckFailed(f"oracle deviation {dev!r} exceeds {checks.ORACLE_TOL}")
    # The reported figure covers the fixed paper cells only: the maximum over
    # seeded samples of a roundoff-sized difference varies 2x between seeds.
    return {"sha256": digest, "ref_max_dev": ref_dev, "oracle_max_dev": paper_dev,
            "oracle_sampled_max_dev": sampled_dev}


def kernel_probe(qclock) -> dict:
    """Calibrated ns per point of the active kernel at the sizes the program passes."""
    cfg = qclock.PhysicsConfig()
    spike = qclock.width(cfg, cfg.transit_time).sigma_t / cfg.u
    grid = qclock.current.exit_current_grid
    arrays = {n: cfg.transit_time + spike * np.linspace(-64.0, 64.0, n) if n > 1
              else np.array([cfg.transit_time]) for n in PROBE_SIZES}
    ratios = {n: [] for n in PROBE_SIZES}
    for _ in range(PROBE_ROUNDS):
        raw = {}
        for n, t in arrays.items():
            start = time.perf_counter()
            grid(cfg, t)
            raw[n] = time.perf_counter() - start
        start = time.perf_counter()
        calibration.reference_op()
        ref = time.perf_counter() - start
        for n in PROBE_SIZES:
            ratios[n].append(raw[n] / ref)
    out = {}
    for n in PROBE_SIZES:
        ns = calibration.calibrate(statistics.median(ratios[n]), 1.0) * 1e9
        out["kernels.one_point_call_ns" if n == 1 else f"kernels.ns_per_point_{n}"] = ns / n
    jx, jz = grid(cfg, arrays[768])
    out["kernels.bytes_per_point_computed"] = (arrays[768].nbytes + jx.nbytes + jz.nbytes) / 768
    return out


def layer_metrics(tracer, session, traced, untraced_s: float) -> dict:
    """Per-layer counts, stage times and self-time shares of the traced pass."""
    cal = session.cal
    counts, tc = traced["counts"], tracer.counts
    cells, thetas, n_ops = counts["cells"], tc["thetas"], len(traced["timed"])
    by_stage, self_by_layer = {}, Counter()
    for span in tracer.spans:
        factor = cal.calibrated(1.0, span.start, span.end)
        by_stage.setdefault(span.stage, []).append(span.duration * factor)
        self_by_layer[span.layer] += span.self_s * factor
    total_self = sum(self_by_layer.values())

    def per_call_ms(stage):
        return statistics.median(by_stage[stage]) * 1e3 if stage in by_stage else 0.0

    traced_s = sum(by_stage["op"])
    out = {
        "kernels.calls_per_cell": tc["kernel_calls"] / cells,
        "kernels.points_per_cell": tc["kernel_points"] / cells,
        "kernels.scalar_calls_per_cell": tc["kernel_scalar_calls"] / cells,
        "quadrature.integrals_per_cell": tc["integrals"] / cells,
        "quadrature.evals_per_cell": tc["evals"] / cells,
        "quadrature.panels_per_cell": tc["panels_accepted"] / cells,
        "quadrature.accept_ratio": tc["panels_accepted"] / max(tc["panels_evaluated"], 1),
        "distribution.pi_of_phi_ms": per_call_ms("pi_of_phi"),
        "distribution.variance_phi_ms": per_call_ms("variance_phi"),
        "distribution.peak_phi_ms": per_call_ms("peak_phi"),
        "distribution.truncated_ops": counts["truncated"],
        "distribution.tail_warnings": counts["tail_warnings"],
        "measurement.integrals_per_theta": tc["measure_integrals"] / thetas if thetas else 0.0,
        "measurement.measure_ms_per_theta":
            sum(by_stage.get("measure", ())) * 1e3 / thetas if thetas else 0.0,
        "cli.format_write_ms": sum(by_stage.get("format_write", ())) * 1e3 / n_ops,
        "cli.bytes_written_per_op": counts["bytes"] / n_ops,
        "errors.degenerate": traced["errors"]["DegenerateDistributionError"],
        "errors.convergence": traced["errors"]["ConvergenceError"],
        "errors.validation": traced["errors"]["ValidationError"] + traced["errors"]["DomainError"],
        "wavepacket.redraws": counts["redraws"],
        "bench.trace_overhead": traced_s / untraced_s,
    }
    out["errors.other"] = sum(traced["errors"].values()) - out["errors.degenerate"] \
        - out["errors.convergence"] - out["errors.validation"]
    for layer in ("kernels", "quadrature", "distribution", "measurement", "cli"):
        out[f"{layer}.self_share"] = self_by_layer[layer] / total_self
    return out


def measure(qclock, args) -> dict:
    """One run of ``args.workload`` in a work directory that is removed after."""
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure_in(qclock, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _measure_in(qclock, args, work: Path) -> dict:
    setup = measure_setup(args.workload, args.seed, work)
    os.environ["QCLOCK_THREADS"] = str(1 if args.trace else THREADS)
    cal = calibration.Calibrator()
    cal.burst()
    session = Session(work, cal)
    stream = wl.op_stream(args.workload, args.seed)
    wall_start = time.perf_counter()
    if args.trace:
        ops = [next(stream) for _ in range(TRACE_OPS[args.workload])]
        result = session.run(ops)
    else:
        ops, result = timed_loop(session, stream, args.seconds)
    wall_s = time.perf_counter() - wall_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal.burst()
    timed, counts = result["timed"], result["counts"]
    times = session.calibrated_times(timed)
    raw = [end - start for _op, start, end, _o in timed]
    cells = [len(op.cells) for op, *_ in timed]

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(qclock)
        try:
            traced = session.run(ops, tracer)
        finally:
            tracer.uninstall()
        cal.burst()
        values = layer_metrics(tracer, session, traced, sum(times))
        values.update(kernel_probe(qclock))

    checked = common_checks(session, ops, [o for *_, o in timed], args.seed)
    if args.trace:
        values.update({
            "setup.import_s": setup["import_s"], "setup.warm_s": setup["warm_s"],
            "bench.wall_s": wall_s, "bench.machine_slowdown": cal.slowdown(),
            "measurement.thetas_per_s": counts["thetas"] / sum(times),
        })
        units, tail = metrics.PER_LAYER, ""
    else:
        p90 = metrics.percentile(times, metrics.TAIL_PERCENTILE)
        values = {
            "setup_s": setup["setup_s"],
            "cells_per_s": block_rate(cells, times),
            "op_ms_p50": metrics.percentile(times, 50) * 1e3,
            "op_ms_p90": p90 * 1e3,
            "success_rate": counts["success"] / len(ops),
            "peak_rss_mb": rss_mb,
            "ref_max_dev": checked["ref_max_dev"],
            "oracle_max_dev": checked["oracle_max_dev"],
        }
        units = metrics.END_TO_END
        tail = (f" p90_samples={len(times)} beyond_p90={sum(t > p90 for t in times)}"
                f" raw_cells_per_s={block_rate(cells, raw):.4g}"
                f" raw_op_ms_p50={metrics.percentile(raw, 50) * 1e3:.4g}")
    backend = qclock.backend_name() if hasattr(qclock, "backend_name") else "?"
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} backend={backend} "
          f"ops={len(ops)} cells={counts['cells']} thetas={counts['thetas']}{tail}")
    print(f"# raw wall_s={wall_s:.3f} machine_slowdown={cal.slowdown():.4f} "
          f"cal_ref_s={calibration.CAL_REF_S!r} errors={dict(result['errors'])} "
          f"redraws={counts['redraws']} tail_warnings={counts['tail_warnings']} "
          f"oracle_sampled_max_dev={checked['oracle_sampled_max_dev']:.3e}")
    print(f"# outputs_sha256={checked['sha256']}")
    return {"correct": True, "attempted": len(ops), "failed": 0,
            "metrics": metrics.render(values, units)}
