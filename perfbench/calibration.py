"""Calibrated seconds: wall time normalised by a frozen reference loop.

The machine this benchmark runs on switches between fast and slow phases
lasting about 10-30 s, so raw wall time of the same work can differ by
2x between runs.  The time of a fixed reference loop, measured interleaved
with the work, moves with those phases, while the ratio of a workload's
time to it stays nearly constant.  Every timing the benchmark reports is
therefore::

    calibrated = raw * CAL_REF_S / local median of the reference loop

where the local median covers reference samples taken within
``WINDOW_S`` of the timed interval.  The reference loop is a frozen copy of
the exit-current arithmetic on a fixed 768-point array plus a short
pure-Python loop that formats 64 rows at ``%.17g``: the numpy calls and
interpreter work of a sweep cell, and the formatting of its CSV files.
It imports only numpy and shares no code with the program under test, so
no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Reference-loop time that one calibrated second is scaled to: about the
#: median of ``reference_op`` on a 2-core x86-64 host in a fast phase.
#: Fixed once; changing it rescales every calibrated timing.
CAL_REF_S = 3.0e-4

#: Reference samples within this many seconds of an interval calibrate it.
#: The reference time flips between two modes (one about 1.8x the other
#: on the defining host) within a second, so the window is short.
WINDOW_S = 0.25

#: Run a reference burst once this much work time has passed since the last.
BURST_EVERY_S = 0.05

#: Reference ops per burst.
BURST_OPS = 8

# Preset-I physics in CGS units, frozen here so the loop never changes.
_HBAR = 1.054571817e-27
_M0 = 1.67492749804e-24
_U = 3.0e5
_D = 1.0
_SIGMA0 = 1.0e-7
_OMEGA = 9.143e4
_T = np.linspace(0.999 * _D / _U, 1.001 * _D / _U, 768)
_ROWS = 64


def reference_op() -> int:
    """One fixed unit of numpy arithmetic plus CSV-style float formatting."""
    t = _T
    spread = (_HBAR / (2.0 * _M0 * _SIGMA0 * _SIGMA0)) * t
    sigma_t2 = (_SIGMA0 * _SIGMA0) * (1.0 + spread * spread)
    miss = _D - _U * t
    arg = -(miss * miss) / (2.0 * sigma_t2)
    dens = np.where(arg < -700.0, 0.0, np.exp(arg) / np.sqrt(2.0 * np.pi * sigma_t2))
    denom = 4.0 * (_M0 * _M0) * _SIGMA0 ** 4 + (_HBAR * _HBAR) * (t * t)
    jx = dens * (_U + miss * (_HBAR * _HBAR) * t / denom)
    jz = dens * (_HBAR * -miss / (2.0 * _M0 * sigma_t2)) * np.sin(2.0 * _OMEGA * t)
    density = np.hypot(jx, jz)
    text = "\n".join(f"{p:.17g},{v:.17g}" for p, v in zip(t[:_ROWS], density[:_ROWS]))
    return len(text)


def calibrate(raw_s: float, ref_s: float) -> float:
    """Raw seconds expressed in calibrated seconds, given the local reference."""
    if not ref_s > 0.0:
        raise ValueError("reference time must be positive")
    return raw_s * CAL_REF_S / ref_s


class Calibrator:
    """Reference-loop samples of one run, and the local medians they give.

    ``tick`` is called after every timed op; it runs a burst of reference
    ops whenever ``BURST_EVERY_S`` of work has accumulated, so the samples
    follow the machine's phases.  ``local_ref`` returns the median of the
    samples taken within ``WINDOW_S`` of an interval.
    """

    def __init__(self, op=reference_op):
        self._op = op
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def burst(self, n: int = BURST_OPS) -> None:
        for _ in range(n):
            start = time.perf_counter()
            self._op()
            end = time.perf_counter()
            self.stamps.append(0.5 * (start + end))
            self.samples.append(end - start)
        self._due = 0.0

    def tick(self, work_s: float) -> None:
        self._due += work_s
        if self._due >= BURST_EVERY_S:
            self.burst()

    def local_ref(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """Median reference time within ``window`` of [start, end].

        Falls back to the ``BURST_OPS`` samples nearest the interval when
        the window holds fewer, as at the edges of a run.
        """
        stamps = self.stamps
        if not stamps:
            raise ValueError("no reference samples recorded")
        need = min(BURST_OPS, len(stamps))
        lo = bisect.bisect_left(stamps, start - window)
        hi = bisect.bisect_right(stamps, end + window)
        if hi - lo < need:
            mid = 0.5 * (start + end)
            lo = hi = bisect.bisect_left(stamps, mid)
            while hi - lo < need:
                if lo > 0 and (hi == len(stamps) or mid - stamps[lo - 1] <= stamps[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
        return statistics.median(self.samples[lo:hi])

    def calibrated(self, raw_s: float, start: float, end: float) -> float:
        return calibrate(raw_s, self.local_ref(start, end))

    def slowdown(self) -> float:
        """Median reference time of the run over ``CAL_REF_S``."""
        return statistics.median(self.samples) / CAL_REF_S
