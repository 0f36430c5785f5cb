"""Coalition enumeration, Shapley kernel weights, and the two Shapley solvers.

A coalition is a subset of feature indices (0-based tuples here).  The module
provides the full 2^m enumeration, kernel-weighted coalition sampling for
larger m, the weighted-least-squares solver with the hard equality
constraints phi0 = v(empty) and sum(phi) = v(N), and the exact combinatorial
formula used as the ground-truth reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DegenerateDesignError,
    EfficiencyViolationError,
    EnumerationTooLargeError,
    IncompleteContributionError,
    InfiniteWeightCoalitionError,
)

Coalition = tuple[int, ...]

#: Stand-in for the infinite kernel weight of the empty/full coalition.
DEFAULT_C = 1e6

#: Full enumeration is refused above this feature count (2^13 = 8192 rows).
ENUMERATION_CAP = 13

#: Relative tolerance of the efficiency identity phi0 + sum(phi) = f(x*).
EFFICIENCY_RTOL = 1e-6


def shapley_kernel_weight(m: int, s: int) -> float:
    """Kernel weight (m-1) / (binom(m,s) * s * (m-s)) for coalition size s.

    Only defined for 0 < s < m; the empty and full coalitions carry infinite
    weight and must be handled through constraints or the constant C.
    """
    if m < 1:
        raise ValueError(f"feature count must be >= 1, got {m}")
    if s < 0 or s > m:
        raise ValueError(f"coalition size {s} outside [0, {m}]")
    if s == 0 or s == m:
        raise InfiniteWeightCoalitionError(
            f"infinite-weight coalition (size {s} of {m}); use the constant C"
        )
    return (m - 1) / (math.comb(m, s) * s * (m - s))


@dataclass(frozen=True)
class CoalitionMatrix:
    """Binary coalition design Z with per-row kernel weights.

    ``z`` has shape (n_rows, m+1); column 0 is all ones and column j+1 flags
    membership of feature j.  ``weights`` holds k(m,|S|) for proper coalitions
    (or sampling multiplicities in sampled mode) and the constant C for the
    empty and full rows.
    """

    m: int
    coalitions: tuple[Coalition, ...]
    z: np.ndarray
    weights: np.ndarray
    includes_empty_and_full: bool

    @property
    def n_rows(self) -> int:
        return len(self.coalitions)


def _ordered_subsets(m: int) -> list[Coalition]:
    """All subsets of range(m), ordered by size then lexicographic members."""
    out: list[Coalition] = []
    for size in range(m + 1):
        out.extend(combinations(range(m), size))
    return out


def _build_z(m: int, coalitions: Iterable[Coalition]) -> np.ndarray:
    coalitions = list(coalitions)
    z = np.zeros((len(coalitions), m + 1))
    z[:, 0] = 1.0
    for i, s in enumerate(coalitions):
        for j in s:
            z[i, j + 1] = 1.0
    return z


def enumerate_coalitions(m: int) -> CoalitionMatrix:
    """Build the full 2^m coalition design in size-then-lexicographic order."""
    if m < 1:
        raise ValueError(f"feature count must be >= 1, got {m}")
    if m > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"enumeration too large for m={m} (cap {ENUMERATION_CAP}); use sample_coalitions"
        )
    coalitions = tuple(_ordered_subsets(m))
    weights = np.empty(len(coalitions))
    for i, s in enumerate(coalitions):
        if len(s) in (0, m):
            weights[i] = DEFAULT_C
        else:
            weights[i] = shapley_kernel_weight(m, len(s))
    return CoalitionMatrix(
        m=m,
        coalitions=coalitions,
        z=_build_z(m, coalitions),
        weights=weights,
        includes_empty_and_full=True,
    )


def sample_coalitions(m: int, n_draws: int, rng_seed: int) -> CoalitionMatrix:
    """Sample proper coalitions with probability proportional to k(m,|S|).

    Draws are with replacement; duplicate rows are merged and their
    multiplicity becomes the row weight (sampled rows enter the least-squares
    problem with equal weight per draw).  The empty and full coalitions are
    appended with weight C.  Deterministic for a fixed seed.
    """
    if m < 2:
        raise ValueError("coalition sampling needs m >= 2")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    rng = np.random.default_rng(rng_seed)

    sizes = np.arange(1, m)
    # P(S) ~ k(m,|S|), so P(size=s) ~ binom(m,s) * k(m,s).
    size_mass = np.array(
        [math.comb(m, s) * shapley_kernel_weight(m, s) for s in sizes]
    )
    size_probs = size_mass / size_mass.sum()
    drawn_sizes = rng.choice(sizes, size=n_draws, p=size_probs)

    counts: dict[Coalition, int] = {}
    for s in drawn_sizes:
        members = tuple(sorted(rng.choice(m, size=int(s), replace=False).tolist()))
        counts[members] = counts.get(members, 0) + 1

    sampled = sorted(counts, key=lambda c: (len(c), c))
    coalitions: list[Coalition] = [()] + sampled + [tuple(range(m))]
    weights = np.array(
        [DEFAULT_C] + [float(counts[c]) for c in sampled] + [DEFAULT_C]
    )
    return CoalitionMatrix(
        m=m,
        coalitions=tuple(coalitions),
        z=_build_z(m, coalitions),
        weights=weights,
        includes_empty_and_full=True,
    )


@dataclass
class ContributionVector:
    """Map from coalition to contribution value v(S)."""

    m: int
    values: dict[Coalition, float]

    @classmethod
    def from_function(cls, m: int, fn: Callable[[Coalition], float]) -> "ContributionVector":
        return cls(m=m, values={s: float(fn(s)) for s in _ordered_subsets(m)})

    @classmethod
    def from_mapping(cls, m: int, mapping: Mapping[Iterable[int], float]) -> "ContributionVector":
        vals = {tuple(sorted(k)): float(v) for k, v in mapping.items()}
        return cls(m=m, values=vals)

    def value(self, s: Iterable[int]) -> float:
        key = tuple(sorted(s))
        try:
            return self.values[key]
        except KeyError:
            raise IncompleteContributionError(
                f"incomplete contribution table: missing v({set(key) or '{}'})"
            ) from None

    def aligned_to(self, cm: CoalitionMatrix) -> np.ndarray:
        """Values ordered by the rows of ``cm``."""
        return np.array([self.value(s) for s in cm.coalitions])


@dataclass
class Explanation:
    """Additive decomposition phi0 + sum(phi) = prediction."""

    phi0: float
    phi: np.ndarray
    prediction: float
    estimator_id: str = ""
    seed: int | None = None
    sample_budget: int | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.phi0 + float(np.sum(self.phi))

    def efficiency_gap(self) -> float:
        return abs(self.total - self.prediction)

    def check_efficiency(self) -> None:
        """Raise EfficiencyViolationError unless the gap is within the tolerance (NaN is not)."""
        gap = self.efficiency_gap()
        tol = EFFICIENCY_RTOL * max(1.0, abs(self.prediction))
        if not gap <= tol:
            raise EfficiencyViolationError(
                f"efficiency violated: |phi0 + sum(phi) - f(x*)| = {gap:.3e} > {tol:.3e}"
            )


class WlsSolver:
    """Reusable weighted-least-squares Shapley solver for one coalition design.

    The equality constraints phi0 = v(empty) and sum(phi) = v(full) are
    eliminated exactly: phi0 is v(empty), phi_0..phi_{m-2} come from a
    weighted least-squares fit over the proper coalitions, and phi_{m-1} is
    what they leave of v(full) - v(empty).  The fit's factorization depends
    only on the design, so one solver instance explains any number of
    contribution vectors.
    """

    def __init__(self, cm: CoalitionMatrix):
        if not cm.includes_empty_and_full:
            raise ValueError("coalition matrix must include the empty and full rows")
        self.cm = cm
        self._empty_row = cm.coalitions.index(())
        self._full_row = cm.coalitions.index(tuple(range(cm.m)))
        m = cm.m
        proper = [i for i, s in enumerate(cm.coalitions) if 0 < len(s) < m]
        self._proper_rows = proper
        self._proper_sets = [cm.coalitions[i] for i in proper]
        self._last_in = np.array(
            [1.0 if (m - 1) in s else 0.0 for s in self._proper_sets]
        )
        if m == 1 or not proper:
            self.projection = None
            self.condition_number = 1.0
            return
        # Design over phi_0..phi_{m-2}: a_j = 1{j in S} - 1{m-1 in S}.
        a = cm.z[proper, 1:m] - self._last_in[:, None]
        w = cm.weights[proper]
        normal = a.T @ (w[:, None] * a)
        self.condition_number = float(np.linalg.cond(normal))
        if not np.isfinite(self.condition_number) or self.condition_number > 1e12:
            raise DegenerateDesignError(
                "degenerate coalition design", self.condition_number
            )
        from scipy.linalg import lu_factor, lu_solve  # on first use: cluster needs no scipy

        self.projection = lu_solve(lu_factor(normal), a.T * w[None, :])

    def solve(
        self,
        v: ContributionVector | np.ndarray,
        estimator_id: str = "",
        seed: int | None = None,
        sample_budget: int | None = None,
    ) -> Explanation:
        cm = self.cm
        vec = v.aligned_to(cm) if isinstance(v, ContributionVector) else np.asarray(v, float)
        if vec.shape != (cm.n_rows,):
            raise ValueError(
                f"contribution vector has {vec.shape} entries, design has {cm.n_rows} rows"
            )
        v_empty = vec[self._empty_row]
        v_full = vec[self._full_row]
        total = v_full - v_empty
        phi0 = float(v_empty)
        if cm.m == 1:
            phi = np.array([total])
        else:
            y = vec[self._proper_rows] - v_empty - self._last_in * total
            head = self.projection @ y if self.projection is not None else np.zeros(cm.m - 1)
            phi = np.append(head, total - head.sum())
        return Explanation(
            phi0=phi0,
            phi=phi,
            prediction=float(vec[self._full_row]),
            estimator_id=estimator_id,
            seed=seed,
            sample_budget=sample_budget,
            diagnostics={"condition_number": self.condition_number},
        )


def solve_wls(
    cm: CoalitionMatrix,
    v: ContributionVector | np.ndarray,
    **meta,
) -> Explanation:
    """One-shot WLS solve; build a :class:`WlsSolver` to reuse the factorization."""
    return WlsSolver(cm).solve(v, **meta)


def exact_shapley(v: ContributionVector, m: int | None = None) -> Explanation:
    """Exact combinatorial Shapley values from a complete contribution table.

    phi_j = sum over S not containing j of |S|!(m-|S|-1)!/m! * (v(S+j) - v(S)),
    with phi0 = v(empty).  Requires all 2^m coalition values.
    """
    m = v.m if m is None else m
    if m > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"exact formula limited to m <= {ENUMERATION_CAP}")
    fact = [math.factorial(i) for i in range(m + 1)]
    weight = [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]
    phi = np.zeros(m)
    others: dict[int, list[Coalition]] = {
        j: [s for s in _ordered_subsets(m) if j not in s] for j in range(m)
    }
    for j in range(m):
        acc = 0.0
        for s in others[j]:
            with_j = tuple(sorted(s + (j,)))
            acc += weight[len(s)] * (v.value(with_j) - v.value(s))
        phi[j] = acc
    return Explanation(
        phi0=v.value(()),
        phi=phi,
        prediction=v.value(tuple(range(m))),
        estimator_id="exact",
    )


def shapley_coefficient_map(m: int) -> dict[int, dict[Coalition, float]]:
    """Per-feature linear coefficients of each v(S) in the exact formula.

    Used to propagate per-coalition Monte Carlo variances into the phi vector.
    """
    fact = [math.factorial(i) for i in range(m + 1)]
    weight = [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]
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
