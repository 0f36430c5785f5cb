"""Slow Kendall references for the exact O(n log n) count in ``condshap.grouping``.

``kendall_tau_naive`` is the definitional O(n^2) sum.  ``kendall_tau_scipy``
is the formula the package used before its own count: scipy's tau-b rescaled
to the integer concordant-minus-discordant count, divided by n(n-1)/2.
"""

import math

import numpy as np
from scipy.stats import kendalltau


def kendall_tau_naive(xj: np.ndarray, xk: np.ndarray) -> float:
    """Definitional O(n^2) tau: mean of sign products over ordered pairs."""
    xj = np.asarray(xj, float).reshape(-1)
    xk = np.asarray(xk, float).reshape(-1)
    n = xj.shape[0]
    if n < 2 or xk.shape[0] != n:
        raise ValueError("need two equal-length vectors with n >= 2")
    sj = np.sign(xj[:, None] - xj[None, :])
    sk = np.sign(xk[:, None] - xk[None, :])
    return float(np.sum(sj * sk) / (n * (n - 1)))


def _tie_pairs(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


def kendall_tau_scipy(xj: np.ndarray, xk: np.ndarray) -> float:
    """round(tau_b * sqrt((n0 - n1)(n0 - n2))) / n0; 0 for a constant column."""
    xj = np.asarray(xj, float).reshape(-1)
    xk = np.asarray(xk, float).reshape(-1)
    n = xj.shape[0]
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xj)
    n2 = _tie_pairs(xk)
    if n1 == n0 or n2 == n0:
        return 0.0
    tau_b = kendalltau(xj, xk).statistic
    return round(tau_b * math.sqrt((n0 - n1) * (n0 - n2))) / n0
