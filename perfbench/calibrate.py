"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the same code runs up to about 1.8 times slower for
seconds to minutes at a time, and the process's CPU time slows with its
wall time, so neither clock alone compares two runs.  The worker runs this
kernel right after set-up, at the ends of the stages of a workload and,
from a timer, every MARK_EVERY_S seconds in between.  Each interval is
scaled by the kernel times around it: an interval of ``t`` seconds between
kernel times ``a`` and ``b`` counts as ``t * REF_S / ((a + b) / 2)``, the
time it would have taken on a host where the kernel takes ``REF_S``.

The kernel uses numpy and plain Python, never memflow, so a change to
memflow does not move it.  It mixes the kinds of work the workloads do:
interpreted Python, many small numpy calls, single-thread BLAS on
moderate matrices and a pass over a few megabytes of memory.  The first two
take about 80 % of its time: weighting them more tracked the workloads'
slowdowns better than a BLAS-heavy mix (over 16 repeats per workload the
spread of scaled wall time fell from 0.041-0.066 to 0.030-0.048 of its
mean, against 0.11-0.22 unscaled).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# The kernel's typical time on the 2-core x86-64 VM the benchmark was
# sized on; any fixed value would do, since only ratios are compared.
REF_S = 0.015
# A kernel run costs about REF_S; one run per MARK_EVERY_S keeps the
# kernel under about a tenth of a repeat.
MARK_EVERY_S = 0.25

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.uniform(-1.0, 1.0, size=(4, 8))
_MAT = _RNG.uniform(-1.0, 1.0, size=(96, 96)) / 96.0
_BULK = _RNG.uniform(-1.0, 1.0, size=1 << 18)  # 2 MB


def _kernel():
    acc = 0.0
    for i in range(60000):  # the interpreter
        acc += (i % 7) * 0.5
    x = _SMALL
    for _ in range(3000):  # numpy call overhead on tiny arrays
        x = np.tanh(x * 0.9 + 0.01)
    m = _MAT
    for _ in range(45):  # single-thread BLAS
        m = np.tanh(m @ _MAT)
    bulk = sum(float(_BULK @ _BULK) for _ in range(10))  # memory bandwidth
    return acc + float(x.sum()) + float(m.sum()) + bulk


def measure():
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class ScaledClock:
    """Wall time between kernel runs, scaled to the reference host speed.

    Create it where timing starts: it runs the kernel three times and
    keeps the median as the speed at the start.  ``mark()``
    closes the open interval and runs the kernel again; kernel time is in
    no interval.  Inside ``sampling()`` a timer also marks every
    MARK_EVERY_S seconds, so that long calls are split where the host may
    have changed speed.
    """

    def __init__(self):
        self.kernel_s = [statistics.median(measure() for _ in range(3))]
        self.intervals = []
        self._sampling = False
        self._busy = False
        self._last = time.perf_counter()

    def mark(self, min_gap_s=0.0):
        """Close the open interval unless it is shorter than ``min_gap_s``."""
        if self._busy or time.perf_counter() - self._last < min_gap_s:
            return
        self._busy = True  # a timer signal that lands in here does nothing
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.intervals.append(time.perf_counter() - self._last)
        self.kernel_s.append(measure())
        self._last = time.perf_counter()
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, MARK_EVERY_S)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Mark from a SIGALRM timer, MARK_EVERY_S after each mark."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, MARK_EVERY_S)
        try:
            yield
        finally:
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, first=0, end=None):
        """Raw and scaled seconds of the closed intervals ``first:end``."""
        end = len(self.intervals) if end is None else end
        raw = scaled = 0.0
        for i in range(first, end):
            raw += self.intervals[i]
            scaled += self.intervals[i] * REF_S / (
                0.5 * (self.kernel_s[i] + self.kernel_s[i + 1]))
        return raw, scaled
