"""Slow references for the exact Shapley formula in ``condshap.coalitions``.

``reference_exact_shapley`` is the double loop the package ran before it
held one coefficient matrix per m: per feature j, it walks every coalition S
without j and accumulates |S|!(m-|S|-1)!/m! * (v(S+j) - v(S)).

``reference_coefficient_map`` is the dict of dicts the Monte Carlo oracle
propagated its variances through before: per feature j, the coefficient of
each v(S) in phi_j.  ``reference_mc_std_error`` is that propagation,
sqrt(sum over S of c_jS^2 var(S)) per feature.
"""

import math

import numpy as np

from condshap.coalitions import Coalition, _ordered_subsets


def _weights(m: int) -> list[float]:
    fact = [math.factorial(i) for i in range(m + 1)]
    return [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]


def reference_exact_shapley(v: np.ndarray) -> np.ndarray:
    """phi of the complete game ``v`` (rows of ``enumerate_coalitions(m)``)."""
    v = np.asarray(v, float)
    m = v.size.bit_length() - 1
    weight = _weights(m)
    subsets = _ordered_subsets(m)
    row = {s: i for i, s in enumerate(subsets)}
    phi = np.zeros(m)
    for j in range(m):
        acc = 0.0
        for s in subsets:
            if j not in s:
                acc += weight[len(s)] * (v[row[tuple(sorted(s + (j,)))]] - v[row[s]])
        phi[j] = acc
    return phi


def reference_coefficient_map(m: int) -> dict[int, dict[Coalition, float]]:
    """Per-feature linear coefficients of each v(S) in the exact formula."""
    weight = _weights(m)
    coeff: dict[int, dict[Coalition, float]] = {j: {} for j in range(m)}
    for j in range(m):
        table = coeff[j]
        for s in _ordered_subsets(m):
            if j in s:
                continue
            with_j = tuple(sorted(s + (j,)))
            table[with_j] = table.get(with_j, 0.0) + weight[len(s)]
            table[s] = table.get(s, 0.0) - weight[len(s)]
    return coeff


def reference_mc_std_error(m: int, var: np.ndarray) -> np.ndarray:
    """Standard error of each phi_j from the variance of each v(S) estimate."""
    coeff = reference_coefficient_map(m)
    var_of = dict(zip(_ordered_subsets(m), var))
    return np.array(
        [np.sqrt(sum(c * c * var_of[s] for s, c in coeff[j].items())) for j in range(m)]
    )
