"""Coalition enumeration, Shapley kernel weights, and the two Shapley solvers.

A coalition is a subset of feature indices (0-based tuples here).  The module
provides the full 2^m enumeration, kernel-weighted coalition sampling for
larger m, the weighted-least-squares solver and the exact combinatorial
formula used as the ground-truth reference.  A game is one float vector of
v(S) over a design's rows.  The empty and full coalitions carry infinite
kernel weight: the solver imposes them exactly, as the constraints
phi0 = v(empty) and phi0 + sum(phi) = v(N).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .errors import (
    DegenerateDesignError,
    EfficiencyViolationError,
    EnumerationTooLargeError,
    InfiniteWeightCoalitionError,
)

Coalition = tuple[int, ...]

#: Full enumeration is refused above this feature count (2^13 = 8192 rows).
ENUMERATION_CAP = 13

#: Relative tolerance of the efficiency identity phi0 + sum(phi) = f(x*).
EFFICIENCY_RTOL = 1e-6


def shapley_kernel_weight(m: int, s: int) -> float:
    """Kernel weight (m-1) / (binom(m,s) * s * (m-s)) for coalition size s.

    Only defined for 0 < s < m; the empty and full coalitions carry infinite
    weight and are imposed as constraints.
    """
    if m < 1:
        raise ValueError(f"feature count must be >= 1, got {m}")
    if s < 0 or s > m:
        raise ValueError(f"coalition size {s} outside [0, {m}]")
    if s == 0 or s == m:
        raise InfiniteWeightCoalitionError(
            f"infinite-weight coalition (size {s} of {m}); impose it as a constraint"
        )
    return (m - 1) / (math.comb(m, s) * s * (m - s))


@dataclass(frozen=True)
class CoalitionMatrix:
    """Coalition design: the rows of the least-squares problem and their weights.

    A game on this design is a vector of v(S), one value per row of
    ``coalitions``.  ``weights`` holds k(m,|S|) for proper coalitions (or
    sampling multiplicities in sampled mode) and ``math.inf``, the kernel's
    own value, for the empty and full rows, which the solver imposes exactly.
    """

    m: int
    coalitions: tuple[Coalition, ...]
    weights: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.coalitions)


def _ordered_subsets(m: int) -> list[Coalition]:
    """All subsets of range(m), ordered by size then lexicographic members."""
    out: list[Coalition] = []
    for size in range(m + 1):
        out.extend(combinations(range(m), size))
    return out


def enumerate_coalitions(m: int) -> CoalitionMatrix:
    """Build the full 2^m coalition design in size-then-lexicographic order."""
    if m < 1:
        raise ValueError(f"feature count must be >= 1, got {m}")
    if m > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"enumeration too large for m={m} (cap {ENUMERATION_CAP}); use sample_coalitions"
        )
    coalitions = tuple(_ordered_subsets(m))
    weights = np.array(
        [math.inf if len(s) in (0, m) else shapley_kernel_weight(m, len(s)) for s in coalitions]
    )
    return CoalitionMatrix(m=m, coalitions=coalitions, weights=weights)


def sample_coalitions(m: int, n_draws: int, rng_seed: int) -> CoalitionMatrix:
    """Sample proper coalitions with probability proportional to k(m,|S|).

    Draws are with replacement; duplicate rows are merged and their
    multiplicity becomes the row weight (sampled rows enter the least-squares
    problem with equal weight per draw).  The empty and full coalitions are
    added first and last with infinite weight.  Deterministic for a fixed seed.
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
    weights = np.array([math.inf] + [float(counts[c]) for c in sampled] + [math.inf])
    return CoalitionMatrix(m=m, coalitions=tuple(coalitions), weights=weights)


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

    A game is a vector of v(S) over the design's rows.  The empty and full
    rows carry infinite weight, so the equality constraints phi0 = v(empty)
    and sum(phi) = v(full) - v(empty) are eliminated exactly: phi0 is
    v(empty), phi_0..phi_{m-2} come from a weighted least-squares fit over
    the proper coalitions, and phi_{m-1} is what they leave of
    v(full) - v(empty).  The fit's factorization depends only on the design,
    so one solver instance explains any number of games.
    """

    def __init__(self, cm: CoalitionMatrix):
        if () not in cm.coalitions or tuple(range(cm.m)) not in cm.coalitions:
            raise ValueError("coalition matrix must include the empty and full rows")
        self.cm = cm
        self._empty_row = cm.coalitions.index(())
        self._full_row = cm.coalitions.index(tuple(range(cm.m)))
        m = cm.m
        proper = [i for i, s in enumerate(cm.coalitions) if 0 < len(s) < m]
        self._proper_rows = proper
        sets = [cm.coalitions[i] for i in proper]
        sizes = [len(s) for s in sets]
        # Membership of feature j in proper coalition i, set in one assignment.
        member = np.zeros((len(sets), m))
        member[np.repeat(np.arange(len(sets)), sizes), np.fromiter(chain(*sets), np.intp)] = 1.0
        self._last_in = member[:, m - 1]
        if not proper:  # as at m == 1: the fit gives phi_0..phi_{m-2} = 0
            self.projection = np.zeros((m - 1, 0))
            self.condition_number = 1.0
            return
        # Design over phi_0..phi_{m-2}: a_j = 1{j in S} - 1{m-1 in S}.
        a = member[:, : m - 1] - self._last_in[:, None]
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
        v: np.ndarray,
        estimator_id: str = "",
        seed: int | None = None,
        sample_budget: int | None = None,
    ) -> Explanation:
        """Explain the game ``v``, one value of v(S) per row of the design."""
        cm = self.cm
        vec = np.asarray(v, float)
        if vec.shape != (cm.n_rows,):
            raise ValueError(
                f"contribution vector has {vec.shape} entries, design has {cm.n_rows} rows"
            )
        v_empty = vec[self._empty_row]
        v_full = vec[self._full_row]
        total = v_full - v_empty
        head = self.projection @ (vec[self._proper_rows] - v_empty - self._last_in * total)
        phi = np.append(head, total - head.sum())
        return Explanation(
            phi0=float(v_empty),
            phi=phi,
            prediction=float(v_full),
            estimator_id=estimator_id,
            seed=seed,
            sample_budget=sample_budget,
            diagnostics={"condition_number": self.condition_number},
        )


@functools.lru_cache(maxsize=None)
def shapley_matrix(m: int) -> np.ndarray:
    """The (m, 2^m) coefficient matrix C of the exact formula: phi = C @ v.

    Column i belongs to row i of ``enumerate_coalitions(m)``.  For each S not
    holding j, C[j, S + j] = |S|!(m-|S|-1)!/m! and C[j, S] is its negative.
    Built once per m and shared by every caller, so it is read-only.
    """
    if m < 1:
        raise ValueError(f"feature count must be >= 1, got {m}")
    if m > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"exact formula limited to m <= {ENUMERATION_CAP}")
    subsets = _ordered_subsets(m)
    sizes = np.array([len(s) for s in subsets])
    codes = np.array([sum(1 << j for j in s) for s in subsets])
    row_of = np.empty(2 ** m, np.intp)
    row_of[codes] = np.arange(2 ** m)
    weight = np.array(
        [math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m) for s in range(m)]
    )
    c = np.zeros((m, 2 ** m))
    for j in range(m):
        without = np.flatnonzero((codes & (1 << j)) == 0)
        c[j, without] = -weight[sizes[without]]
        c[j, row_of[codes[without] | (1 << j)]] = weight[sizes[without]]
    c.flags.writeable = False
    return c


def exact_shapley(v: np.ndarray) -> Explanation:
    """Exact combinatorial Shapley values of a complete game.

    ``v`` holds all 2^m values of v(S), in the row order of
    ``enumerate_coalitions(m).coalitions``; m is read off its length.
    phi_j = sum over S not containing j of |S|!(m-|S|-1)!/m! * (v(S+j) - v(S)),
    with phi0 = v(empty); phi is ``shapley_matrix(m) @ v``.
    """
    v = np.asarray(v, float)
    m = v.size.bit_length() - 1
    if v.ndim != 1 or m < 1 or v.size != 2 ** m:
        raise ValueError(f"a complete game has 2^m entries for some m >= 1, got {v.shape}")
    return Explanation(
        phi0=float(v[0]),
        phi=shapley_matrix(m) @ v,
        prediction=float(v[-1]),
        estimator_id="exact",
    )
