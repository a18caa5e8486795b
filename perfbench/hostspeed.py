"""Host-speed reference: fixed numpy computations timed between passes.

On a shared host the speed of the CPU the benchmark runs on changes by up
to 50% within seconds and stays changed for seconds to minutes.  CPU time
stays at 0.99 of wall time and the hypervisor steals almost nothing, so
the process is not waiting: the core runs slower while other machines'
work competes for it.  Wall times of runs made minutes apart then differ
by more than a change to the program would.

The benchmark therefore samples a reference before every pass and
set-up and, within a pass, between calls once 0.1 s has gone by since the
last sample, and reports each call's time scaled to the nominal host, on
which every part of the reference takes its nominal time::

    sample   = median over 3 runs of
               mean over the parts of (part time / part nominal time)
    slowness = median of the samples within 2 s of the call
    scaled   = wall / slowness

The parts use numpy and the Python interpreter only, never curvcheck, so
a change to the program moves the scaled time exactly as it moves the wall
time.  Contention does not slow every kind of code alike, so each workload
is scaled by the parts that resemble its own work (``workloads.REFERENCE``).
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

_rng = np.random.default_rng(20110604)
_QR = _rng.standard_normal((160, 80))
_SQUARE = _rng.standard_normal((150, 150))
_VECTORS = _rng.standard_normal((300, 120))
_GEMV = _rng.standard_normal((600, 600))
_X = _rng.standard_normal(600)
_ELIM = _rng.standard_normal((400, 400)) + 50.0 * np.eye(400)


def _interp():
    """Plain interpreter work: dispatch and bookkeeping."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _numpy_loop():
    """Small-vector numpy calls in a Python loop, as gradient callbacks make."""
    acc = np.zeros(_VECTORS.shape[1])
    for v in _VECTORS:
        acc += v * (v @ acc + 1.0)
        acc /= np.linalg.norm(acc) + 1.0
    return acc


def _lapack():
    """A small QR and SVD, as basis and rank-guard factorizations make."""
    np.linalg.qr(_QR)
    return np.linalg.svd(_QR, compute_uv=False)


def _gemm():
    """Small cache-resident matrix products."""
    for _ in range(8):
        out = _SQUARE @ _SQUARE
    return out


def _gemv():
    """Matrix-vector products on a matrix larger than the L2 cache."""
    y = _X
    for _ in range(10):
        y = _GEMV @ y
        y /= np.abs(y).max()
    return y


def _rank1():
    """Rank-1 eliminations on a large matrix, as the elimination and
    bordered-LU kernels make."""
    W = _ELIM.copy()
    for k in range(4):
        W[k + 1:, k + 1:] -= np.outer(W[k + 1:, k], W[k, k + 1:]) / W[k, k]
    return W


# part -> (function, nominal seconds).  The nominal times are about the
# fastest each part ran on an idle core of the 2-core x86_64 VM the bounds
# were set on; they fix the scale, so scaled and wall seconds are close
# there.
PARTS = {
    "interp": (_interp, 1.25e-3),
    "numpy_loop": (_numpy_loop, 1.25e-3),
    "lapack": (_lapack, 1.1e-3),
    "gemm": (_gemm, 1.2e-3),
    "gemv": (_gemv, 1.15e-3),
    "rank1": (_rank1, 3.0e-3),
}


class Reference:
    """Callable that returns the slowness of the host: 1.0 on the nominal
    host, 1.5 when the parts take 50% longer.

    One sample is the median of three runs of the chosen parts, so that a
    single preemption does not distort the calls scaled by it.
    """

    REPEATS = 3

    def __init__(self, parts):
        self.parts = tuple(parts)
        self()  # first calls load LAPACK paths and fault pages in

    def _once(self) -> float:
        total = 0.0
        for name in self.parts:
            work, nominal = PARTS[name]
            t0 = time.perf_counter()
            work()
            total += (time.perf_counter() - t0) / nominal
        return total / len(self.parts)

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(self.REPEATS))


# Within a pass, a sample is taken between calls once this much time has
# gone by since the last one.
SAMPLE_EVERY_S = 0.1
# A call's slowness is the median of the samples within this time of it.  A
# single sample, a few milliseconds long, differs by 10-20% from the next
# one; the median over a few seconds follows the host's slower changes.
HALF_WINDOW_S = 2.0


class Timeline:
    """Host slowness samples over time, and the slowness around an interval."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.times = []
        self.values = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        value = self.reference()
        self._last = time.perf_counter()
        self.times.append(0.5 * (t0 + self._last))
        self.values.append(value)

    def tick(self) -> None:
        """Sample if SAMPLE_EVERY_S seconds have gone by since the last one."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def slowness(self, begin: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, begin - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + HALF_WINDOW_S)
        return statistics.median(self.values[lo:hi])
