"""Spans and counts at the program's layer boundaries, without editing it.

``Tracer.install`` rebinds the module attributes through which callers
reach each layer's public functions (``qclock.cli.measure``,
``qclock.distribution.integrate_full`` and so on) to thin wrappers that
record a span per call; ``uninstall`` puts the originals back.  The layers
are the package's modules.  The traced pass runs single-threaded, so a
span never includes time spent waiting for the interpreter lock held by
another worker.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    stage: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part its child spans cover."""
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def open(self, layer: str, stage: str) -> Span:
        span = Span(layer, stage, time.perf_counter())
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("spans closed out of order; is the traced pass threaded?")
        if self._stack:
            self._stack[-1].child_s += span.duration
        self.spans.append(span)

    def within(self, stage: str) -> bool:
        return any(span.stage == stage for span in self._stack)

    def _wrap(self, fn, layer, stage, on_call=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = self.open(layer, stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def rebind(self, module, name, layer, stage, **hooks) -> None:
        """Route ``module.name`` through a span; skipped if the name is absent."""
        original = getattr(module, name, None)
        if original is None:
            return
        setattr(module, name, self._wrap(original, layer, stage, **hooks))
        self._undo.append((module, name, original))

    def install(self, qclock) -> None:
        """Trace every layer boundary of the imported ``qclock`` package."""
        cli, dist, meas, quad = (qclock.cli, qclock.distribution,
                                 qclock.measurement, qclock.quadrature)
        counts = self.counts

        def kernel_call(args, kwargs):
            n = int(getattr(args[1], "size", 1))
            counts["kernel_calls"] += 1
            counts["kernel_points"] += n
            counts["kernel_scalar_calls"] += n <= 4

        def integral_started(args, kwargs):
            counts["integrals"] += 1
            if self.within("measure"):
                counts["measure_integrals"] += 1

        def integral_done(args, kwargs, result):
            spec = kwargs.get("spec", args[3] if len(args) > 3 else None)
            order = spec.panel_order if spec is not None else quad.QuadratureSpec().panel_order
            counts["evals"] += result.n_evals
            counts["panels_accepted"] += result.n_panels
            counts["panels_evaluated"] += result.n_evals // order

        def theta_measured(args, kwargs):
            counts["thetas"] += 1

        self.rebind(dist, "exit_current_grid", "kernels", "kernel", on_call=kernel_call)
        for module in (quad, dist):
            self.rebind(module, "integrate_full", "quadrature", "integrate",
                        on_call=integral_started, on_result=integral_done)
        for module in (dist, cli, meas):
            self.rebind(module, "pi_of_phi", "distribution", "pi_of_phi")
        for module in (dist, cli):
            self.rebind(module, "peak_phi", "distribution", "peak_phi")
            self.rebind(module, "variance_phi", "distribution", "variance_phi")
        for module in (meas, cli):
            self.rebind(module, "measure", "measurement", "measure",
                        on_call=theta_measured)
            self.rebind(module, "deviation_report", "measurement", "deviation_report")
        self.rebind(cli, "write_distribution_csv", "distribution", "format_write")
        self.rebind(cli, "write_deviation_csv", "measurement", "format_write")
        self.rebind(cli, "_write_text", "cli", "format_write")
        self.rebind(cli, "main", "cli", "main")

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)
