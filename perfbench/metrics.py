"""Metric names, units and the percentile rule the benchmark reports by.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics that
``BENCHMARK.json`` declares; a test holds the two in step.
"""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The highest latency percentile reported.
TAIL_PERCENTILE = 90

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "ref_max_dev": "prob",
    "oracle_max_dev": "abs",
}

PER_LAYER = {
    "kernels.calls_per_cell": "count",
    "kernels.points_per_cell": "count",
    "kernels.scalar_calls_per_cell": "count",
    "kernels.ns_per_point_256": "ns",
    "kernels.ns_per_point_768": "ns",
    "kernels.ns_per_point_4608": "ns",
    "kernels.one_point_call_ns": "ns",
    "kernels.bytes_per_point_computed": "B",
    "kernels.self_share": "share",
    "quadrature.integrals_per_cell": "count",
    "quadrature.evals_per_cell": "count",
    "quadrature.panels_per_cell": "count",
    "quadrature.accept_ratio": "ratio",
    "quadrature.self_share": "share",
    "distribution.pi_of_phi_ms": "ms",
    "distribution.variance_phi_ms": "ms",
    "distribution.peak_phi_ms": "ms",
    "distribution.truncated_ops": "count",
    "distribution.tail_warnings": "count",
    "distribution.self_share": "share",
    "measurement.integrals_per_theta": "count",
    "measurement.measure_ms_per_theta": "ms",
    "measurement.thetas_per_s": "1/s",
    "measurement.self_share": "share",
    "cli.format_write_ms": "ms",
    "cli.bytes_written_per_op": "B",
    "cli.self_share": "share",
    "errors.degenerate": "count",
    "errors.convergence": "count",
    "errors.validation": "count",
    "errors.other": "count",
    "wavepacket.redraws": "count",
    "setup.import_s": "s",
    "setup.warm_s": "s",
    "bench.wall_s": "s",
    "bench.machine_slowdown": "ratio",
    "bench.trace_overhead": "ratio",
}


def min_samples(percentile: float = TAIL_PERCENTILE) -> int:
    """Fewest samples that leave MIN_TAIL_SAMPLES beyond ``percentile``."""
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - percentile) - 1e-9)


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile of ``values`` (inclusive interpolation).

    Refuses a sample too small to leave MIN_TAIL_SAMPLES beyond it.
    """
    if len(values) < min_samples(pct):
        raise ValueError(f"p{pct} needs {min_samples(pct)} samples, got {len(values)}")
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def render(values: dict, units: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names in ``units``."""
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}
