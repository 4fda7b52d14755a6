"""Machine-speed reference for the benchmark's calibrated timings.

On a shared host the same op can take twice as long from one minute to
the next, because other tenants load the same cores.  The benchmark times
this fixed kernel right before and right after every op it times, and
rescales the op's wall time to the speed at which the kernel takes
``NOMINAL_S``:

    calibrated = wall * NOMINAL_S / median(kernel timings near the op)

"Near" means taken within max(WINDOW_S, wall) of the op's start or end: a
short op is judged by the timings that bracket it, a long one by the
timings around it, since the host's speed changes within a long op.

The kernel is small dense numpy eigenvalue and solve calls.  Timed next to
treegibbs ops on a loaded 2-vCPU host, it tracked the slowdowns of the
pure-Python tail ops as well as of the numpy-heavy pipelines better than a
pure-Python float loop did.  It never calls treegibbs, so no change to the
program moves it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# kernel seconds (best of REPEATS) on a quiet 2.0 GHz Xeon vCPU, so that a
# calibrated second is about a wall second on that machine when it is idle
NOMINAL_S = 0.0045
REPEATS = 3
WINDOW_S = 1.0

_A = np.random.default_rng(0).random((64, 64))
_B = _A + 64.0 * np.eye(64)


def _kernel():
    for _ in range(5):
        np.linalg.eigvals(_A)
        np.linalg.solve(_B, _A[0])


def kernel_seconds():
    """Best of REPEATS back-to-back timings of the reference kernel."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times calls with the kernel timed before and after each one."""

    def __init__(self):
        self._kernel = []  # (start, kernel seconds)
        self._spans = []  # (start, end) of each timed call

    def _sample(self):
        self._kernel.append((time.perf_counter(), kernel_seconds()))

    def time(self, fn):
        """Run ``fn()``; returns (span id, result).  A call that raises
        leaves no span."""
        self._sample()
        t0 = time.perf_counter()
        result = fn()
        self._spans.append((t0, time.perf_counter()))
        self._sample()
        return len(self._spans) - 1, result

    def wall(self, span):
        t0, t1 = self._spans[span]
        return t1 - t0

    def calibrated(self, span):
        """The span's wall time at reference speed; call once every kernel
        timing after the span has been taken."""
        t0, t1 = self._spans[span]
        reach = max(WINDOW_S, t1 - t0)
        near = [k for t, k in self._kernel if t0 - reach <= t <= t1 + reach]
        return (t1 - t0) * NOMINAL_S / statistics.median(near)
