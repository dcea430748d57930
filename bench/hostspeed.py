"""Host-speed reference for the benchmark's timings.

On the 2-vCPU VMs this benchmark was built on, a fixed kernel runs at
speeds that change by up to 1.8 times from one second to the next: the two
vCPUs differ in speed, and each one's speed drifts.  The process CPU time
stretches with the wall time, so it is the vCPU that slows, not the
scheduler.  A run's raw median then depends on how much of the run fell in
a slow stretch, and ten runs of the same code spread by a third of their
median.

So every workload runs a fixed reference kernel between its timed
operations, and scales the time of each operation by ``nominal_ms / r``,
where ``r`` is the mean of the reference times taken just before and just
after it.  A reported time is the time the operation would take on a host
that runs the kernel in ``nominal_ms``.  The kernels are frozen benchmark
code that makes the same kind of numpy calls as the workload they serve, so
they slow down with the host and never with cartannet.  The run's record
line keeps the raw medians next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20250721)


def _spd(count, n):
    A = _RNG.normal(size=(count, n, n))
    return A @ np.swapaxes(A, -1, -2) + n * np.eye(n)


_STACK_32 = _spd(32, 6)
_STACK_512 = _spd(512, 18)
_SMALL = _spd(40, 4)


def _crout(M):
    """Upper-triangular L with M = L L^T, column by column over a stack."""
    n = M.shape[-1]
    L = np.zeros_like(M)
    for i in range(n - 1, -1, -1):
        L[:, i, i] = np.sqrt(M[:, i, i] - np.sum(L[:, i, i + 1:] ** 2, axis=-1))
        for j in range(i - 1, -1, -1):
            L[:, j, i] = (M[:, j, i] - np.sum(L[:, j, i + 1:] * L[:, i, i + 1:],
                                              axis=-1)) / L[:, i, i]
    return L


def small():
    """Many numpy calls on small arrays: factorisations of a 32-matrix stack
    and 4x4 solves, as a training step on 32 points, a solver iteration or a
    single-point oracle check makes them."""
    for _ in range(12):
        _crout(_STACK_32)
    for m in _SMALL:
        np.linalg.solve(m, m[0])


def wide():
    """Few numpy calls on large arrays: one factorisation of 512 18x18
    matrices, as batched inference through H^17 makes them."""
    return _crout(_STACK_512)


# name -> (kernel, its time in ms on the host the bounds were set on, in
# that host's fast phase)
KERNELS = {
    "small": (small, 3.2),
    "wide": (wide, 6.5),
}


class Probe:
    """Reference times along a run.  Call ``scale()`` right after each
    timed operation; the probe before it is the previous call's."""

    def __init__(self, kernel):
        self.kernel, self.nominal_ms = KERNELS[kernel]
        self.kernel()  # the first call in a process runs cold
        self.samples_ms = []
        self.last_ms = statistics.median(self.measure() for _ in range(3))

    def measure(self):
        t0 = time.perf_counter()
        self.kernel()
        ms = 1000.0 * (time.perf_counter() - t0)
        self.samples_ms.append(ms)
        return ms

    def scale(self):
        """``nominal_ms`` over the mean of the previous and a fresh reference
        time."""
        before, self.last_ms = self.last_ms, self.measure()
        return self.nominal_ms / (0.5 * (before + self.last_ms))
