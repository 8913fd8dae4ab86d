"""A fixed reference workload that measures the host's speed during a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-20% over tens of seconds to minutes, as other tenants come and go. Every
job time of a run moves with that drift. The reference work is timed after
each job, in the same process; it does not touch subsel, so no change to the
program can make it faster or slower. Scaling a run's times by

    NOMINAL_S / (mean reference time of the run)

gives seconds at the host's nominal speed. The mean, not the median, of the
reference times is used: a stall of the host lands in a job or in a
reference run in proportion to their lengths, and the mean counts it the
same way. Over ten 20-second runs of one seed on a 2-vCPU VM, the scaling
cut the run-to-run spread (interquartile range / median) of the mean job
time from 0.13 to 0.04 on ``al`` and from 0.08 to 0.02 on ``select``. The
raw times are kept in every record beside the scaled ones.

The work mixes the three kinds of work the jobs do: a pure-Python loop (the
greedy heap and the CLI), small numpy operations in a loop (the gradient
steps of the logistic-regression fit), and BLAS products like a dense
kernel build, each about a third of the time. Its arrays take about 2 MB, so
that it barely moves the peak memory of the jobs.
"""

from __future__ import annotations

import time

import numpy as np

# Median over 20 runs of the mean time of Reference.time() between jobs, on a
# 2-vCPU Intel Xeon VM with OpenBLAS 0.3.31 using 2 threads: the speed the
# scaled times are quoted at.
NOMINAL_S = 0.086


class Reference:
    """Fixed inputs for the reference work; ``time()`` runs it once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((60, 128))
        self.weights = np.zeros((128, 8))
        self.tall = rng.standard_normal((400, 64))

    def time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        w = self.weights.copy()
        for _ in range(1_000):
            z = self.small @ w
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            w -= 1e-3 * (self.small.T @ p)
        for _ in range(40):
            kernel = self.tall @ self.tall.T
            kernel.max()
        return time.perf_counter() - start
