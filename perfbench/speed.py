"""Machine-speed reference: a fixed kernel timed on the CPUs a round uses.

The benchmark's machine is shared.  Other tenants slow a core by up to
about 1.8x, in phases of seconds to minutes, each core on its own.  A round
time taken in a slow phase and one taken in a fast phase then differ by
that factor although the program did the same work.

`reference_s` times a fixed kernel that does not call rpentropy: a pure
Python loop and small complex numpy products and eigensolves, the mix the
workloads spend their time in.  A `Gauge` times it on a round's CPUs just
before and just after each timed part, and the part's seconds are scaled by
NOMINAL_S / (mean of the two).  A scaled time is what the part would have
taken with the kernel at NOMINAL_S, that is at one fixed machine speed.  A
slower program makes every scaled time longer, because the kernel's cost
does not depend on the program.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# kernel time, in seconds, at the reference speed: about its median on the
# 2-core x86_64 VM the benchmark was built on (Python 3.11, numpy 2.4, one
# BLAS thread)
NOMINAL_S = 0.0075
# repeats per CPU; their median is taken, so a preemption inside one repeat
# does not count
REPEATS = 8

_MATRICES = np.random.default_rng(0).standard_normal((2, 16, 16, 2)).view(complex)[..., 0]


def _kernel() -> float:
    total = 0
    for i in range(30000):
        total += i * i % 7
    a, b = _MATRICES
    for _ in range(120):
        h = a @ b
        h = h @ h.conj().T
        total += float(np.linalg.eigvalsh(h)[-1])
        total += float(np.einsum("ij,ji->", a, b).real)
    return total


def reference_s(cpus) -> float:
    """Mean over `cpus` of the kernel's least time out of REPEATS on that CPU.

    The process is pinned to each CPU in turn and to its former set after.
    """
    former = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            repeats = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                _kernel()
                repeats.append(time.perf_counter() - start)
            times.append(statistics.median(repeats))
    finally:
        os.sched_setaffinity(0, former)
    return sum(times) / len(times)


class Gauge:
    """Reference-kernel times on fixed CPUs around consecutive timed parts.

    The kernel time taken after one part serves as the time before the next.
    """

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.last = reference_s(self.cpus)

    def scale(self) -> float:
        """NOMINAL_S over the mean kernel time before and after the part just timed."""
        before, self.last = self.last, reference_s(self.cpus)
        return NOMINAL_S * 2 / (before + self.last)
