"""Fixed reference computations that measure the host's current speed.

The host this benchmark was written on gives a process a share of two vCPUs
of a shared machine, and the speed of that share moves by up to 1.6x within
minutes: identical work, CPU time included, takes longer while the
neighbours are busy.  How much longer depends on the kind of work, so each
workload names the parts below that resemble what it spends its time in, and
``slowdown(parts)`` times those parts and divides by their reference times.
No part calls condshap, so no change to the program moves a probe.

``run.py`` probes before and after every batch of set-ups, between the
operations of a round and after it, and divides each set-up and round time
by the mean slowdown around and within it: a time metric then reads as it
would on a host that runs each part in its reference time.  The reference
times are fixed constants, about the parts' times on the machine the
benchmark was written on; changing one rescales every time metric of the
workloads that use it, so they never change.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special, stats

_rng = np.random.default_rng(0)
_COLUMN = _rng.standard_normal(200_000)
_SPD = np.full((10, 10), 0.5) + 0.5 * np.eye(10)
_CHOL = np.linalg.cholesky(_SPD)


def _python() -> int:
    """A tight interpreted loop."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def _numpy() -> float:
    """Normal draws through a Cholesky factor, the normal CDF and quantile on
    1000 x 10 arrays, and a small solve."""
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(7):
        z = rng.standard_normal((1000, 10)) @ _CHOL.T
        u = special.ndtr(z)
        acc += float(special.ndtri(np.clip(u, 1e-12, 1 - 1e-12)).sum())
        acc += float(np.linalg.solve(_SPD, z[:10].T).sum())
    return acc


def _memory() -> float:
    """A sort and a cumulative sum over 200,000 floats."""
    return float(np.sort(_COLUMN)[0] + np.cumsum(_COLUMN)[-1])


def _calls() -> float:
    """Many small calls, as in per-coalition conditioning: submatrix
    indexing, a small solve, and scipy.stats' normal CDF and quantile."""
    rng = np.random.default_rng(3)
    acc = 0.0
    for k in range(60):
        given, rest = np.arange(k % 9 + 1), np.arange(k % 9 + 1, 10)
        mean = _SPD[np.ix_(rest, given)] @ np.linalg.solve(_SPD[np.ix_(given, given)],
                                                           rng.standard_normal(len(given)))
        acc += float(stats.norm.ppf(stats.norm.cdf(mean)).sum())
    return acc


# part -> (computation, reference time in seconds)
PARTS = {
    "python": (_python, 0.003),
    "numpy": (_numpy, 0.003),
    "memory": (_memory, 0.002),
    "calls": (_calls, 0.008),
}


def _once(parts: tuple[str, ...]) -> float:
    start = time.perf_counter()
    for name in parts:
        PARTS[name][0]()
    return time.perf_counter() - start


def slowdown(parts: tuple[str, ...]) -> float:
    """The time of the named parts over the sum of their reference times: the
    median of three back-to-back timings, so that one preempted timing does
    not count."""
    reference = sum(PARTS[name][1] for name in parts)
    return sorted(_once(parts) for _ in range(3))[1] / reference
