"""Feature grouping for dependent features.

Rank dependence (Kendall's tau without tie correction) feeds a dissimilarity
matrix 1 - |tau|.  Tau is the exact integer count of Knight's method (W. R.
Knight, JASA 61, 1966), in O(n log n) with numpy alone: order the rows by
the dense ranks of both columns, count the inversions of the second
column's ranks by bottom-up merging, and correct the pair count for ties.
Complete-linkage agglomeration builds the dendrogram, and a
Kelley-Gardner-Sutcliffe-style penalty picks the cut.  Group Shapley values
are the sums of their members' values, which preserves efficiency exactly;
:func:`aggregate_shapley` returns an ``Explanation`` with one phi per group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .coalitions import Explanation
from .errors import ConfigError, DiagnosticWarning, SchemaError
from .samplers import TrainingMatrix


def _tie_pairs(counts: np.ndarray) -> int:
    return int(np.sum(counts * (counts - 1) // 2))


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by bottom-up merging.

    With the ranks sorted within blocks of w, one sort of the keys (pair,
    rank, side) merges each pair of blocks, side 1 marking the right block so
    that a left rank sorts before an equal right one.  A right element then
    moves left by g, the number of left ranks above its own, so the merge
    lowers the index sum of the right elements by the level's inversions.
    """
    n = ranks.size
    pos = np.arange(n)
    count, level = 0, 0
    while 1 << level < n:
        base = (pos >> (level + 1)) * (n + 1)
        right = (pos >> level) & 1
        merged = np.sort((base + ranks) << 1 | right)
        count += int(pos @ (right - (merged & 1)))
        ranks = (merged >> 1) - base
        level += 1
    return count


def kendall_tau(xj: np.ndarray, xk: np.ndarray) -> float:
    """Kendall's tau (no tie correction) in O(n log n), by Knight's count.

    Equals the definitional sum with sign(0) = 0: ties in either variable
    contribute nothing and the denominator stays n(n-1).  The rows are
    sorted by the dense ranks (rj, rk); a pair of rows is then discordant
    exactly when its rk are strictly inverted, since rows tied in xj are in
    ascending rk order.  With n0 = n(n-1)/2 pairs, n1 and n2 tied in xj and
    in xk, n3 tied in both and D inversions, C - D = n0 - n1 - n2 + n3 - 2D,
    and the result is the integer ratio (C - D) / n0; a constant column
    gives 0.  Non-finite input raises ``ValueError``.
    """
    xj = np.asarray(xj, float).reshape(-1)
    xk = np.asarray(xk, float).reshape(-1)
    n = xj.shape[0]
    if n < 2 or xk.shape[0] != n:
        raise ValueError("need two equal-length vectors with n >= 2")
    if not (np.all(np.isfinite(xj)) and np.all(np.isfinite(xk))):
        raise ValueError("kendall_tau input is not finite")
    _, rj, counts_j = np.unique(xj, return_inverse=True, return_counts=True)
    _, rk, counts_k = np.unique(xk, return_inverse=True, return_counts=True)
    joint, counts_jk = np.unique(rj * n + rk, return_counts=True)
    n0 = n * (n - 1) // 2
    n1, n2, n3 = _tie_pairs(counts_j), _tie_pairs(counts_k), _tie_pairs(counts_jk)
    return (n0 - n1 - n2 + n3 - 2 * _inversions(np.repeat(joint % n, counts_jk))) / n0


@dataclass
class DissimilarityMatrix:
    """Entries 1 - |tau|; zero diagonal by definition."""

    d: np.ndarray
    column_names: tuple[str, ...]

    @property
    def m(self) -> int:
        return self.d.shape[0]


def dissimilarity(train: TrainingMatrix) -> DissimilarityMatrix:
    """Pairwise 1 - |tau| over the training columns.

    A constant column has undefined rank correlation; its entries are set to
    the maximal dissimilarity 1 with a diagnostic.
    """
    data = train.data
    n, m = data.shape
    if n < 2:
        raise SchemaError("need at least two rows")
    constant = [j for j in range(m) if np.ptp(data[:, j]) == 0.0]
    if constant:
        warnings.warn(
            f"constant column(s) {tuple(constant)}: tau undefined, "
            "dissimilarity set to 1",
            DiagnosticWarning,
            stacklevel=2,
        )
    d = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            tau = kendall_tau(data[:, j], data[:, k])  # 0 for a constant column
            d[j, k] = d[k, j] = 1.0 - abs(tau)
    return DissimilarityMatrix(d=np.clip(d, 0.0, 1.0), column_names=train.column_names)


@dataclass
class Dendrogram:
    """Merge sequence (a, b, height) with scipy-style cluster indexing.

    Original features are clusters 0..m-1; merge t creates cluster m+t.
    """

    m: int
    merges: list[tuple[int, int, float]]
    leaf_labels: tuple[str, ...]

    def heights(self) -> np.ndarray:
        return np.array([h for _, _, h in self.merges])

    def members(self, cluster: int) -> tuple[int, ...]:
        """Leaf indices under a cluster id, in leaf order."""
        if cluster < self.m:
            return (cluster,)
        a, b, _ = self.merges[cluster - self.m]
        return self.members(a) + self.members(b)

    def leaf_order(self) -> tuple[int, ...]:
        if not self.merges:
            return tuple(range(self.m))
        return self.members(self.m + len(self.merges) - 1)

    def cut(self, n_clusters: int) -> list[tuple[int, ...]]:
        """Partition into n_clusters groups by undoing the last merges."""
        if not (1 <= n_clusters <= self.m):
            raise ValueError(f"cannot cut {self.m} leaves into {n_clusters} clusters")
        active = [self.m + len(self.merges) - 1] if self.merges else list(range(self.m))
        while len(active) < n_clusters:
            # Split the most recent merge among active clusters.
            splittable = max(c for c in active if c >= self.m)
            a, b, _ = self.merges[splittable - self.m]
            active.remove(splittable)
            active.extend([a, b])
        groups = [tuple(sorted(self.members(c))) for c in active]
        return sorted(groups, key=lambda g: g[0])


def complete_linkage(dmatrix: DissimilarityMatrix) -> Dendrogram:
    """Agglomerate by the maximum pairwise dissimilarity between clusters.

    Ties break on the smallest cluster ids, making the merge order
    deterministic; merge heights are non-decreasing.
    """
    m = dmatrix.m
    dist: dict[tuple[int, int], float] = {}
    for j in range(m):
        for k in range(j + 1, m):
            dist[(j, k)] = float(dmatrix.d[j, k])
    active = list(range(m))
    merges: list[tuple[int, int, float]] = []
    next_id = m
    while len(active) > 1:
        best = None
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                key = (min(a, b), max(a, b))
                cand = (dist[key], key)
                if best is None or cand < best:
                    best = cand
        height, (a, b) = best
        merges.append((a, b, height))
        active.remove(a)
        active.remove(b)
        for c in active:
            da = dist[(min(a, c), max(a, c))]
            db = dist[(min(b, c), max(b, c))]
            dist[(min(next_id, c), max(next_id, c))] = max(da, db)
        active.append(next_id)
        next_id += 1
    return Dendrogram(m=m, merges=merges, leaf_labels=dmatrix.column_names)


@dataclass
class ClusterAssignment:
    """A partition of the features with labels in dendrogram leaf order."""

    groups: list[tuple[int, ...]]
    labels: list[str]
    column_names: tuple[str, ...]
    penalty_table: list[dict] = field(default_factory=list)
    alpha: float = 1.0

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_members(self) -> dict[str, tuple[str, ...]]:
        return {
            label: tuple(self.column_names[j] for j in group)
            for label, group in zip(self.labels, self.groups)
        }

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "groups": [
                {"label": label, "members": list(group), "member_names": list(names)}
                for (label, group), names in zip(
                    zip(self.labels, self.groups), self.group_members().values()
                )
            ],
            "penalty_table": self.penalty_table,
        }


def _mean_within(d: np.ndarray, group: tuple[int, ...]) -> float | None:
    if len(group) < 2:
        return None
    idx = list(group)
    sub = d[np.ix_(idx, idx)]
    s = len(idx)
    return float(np.sum(np.triu(sub, 1)) / (s * (s - 1) / 2))


def _order_groups(groups: list[tuple[int, ...]], dendrogram: Dendrogram) -> list[tuple[int, ...]]:
    position = {leaf: i for i, leaf in enumerate(dendrogram.leaf_order())}
    return sorted(groups, key=lambda g: min(position[j] for j in g))


def check_alpha(alpha: float) -> None:
    """Reject a KGS penalty scale that is not positive (NaN included)."""
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")


def kgs_cut(
    dendrogram: Dendrogram, alpha: float = 1.0, *, dmatrix: DissimilarityMatrix
) -> ClusterAssignment:
    """Cut by minimizing the Kelley-Gardner-Sutcliffe penalty.

    For each level with c clusters (2 <= c <= m-1) the penalty is the average
    within-cluster mean pairwise dissimilarity, min-max rescaled across levels
    onto [1, m-2], plus alpha * c.  The full per-level table is returned so
    the cut can be audited or overridden.  Degenerate trees (every merge at
    height zero) collapse to a single cluster; m < 3 has no level to scan and
    returns its only nontrivial cut.
    """
    check_alpha(alpha)
    m = dendrogram.m
    d = dmatrix.d

    def finish(groups: list[tuple[int, ...]], table: list[dict]) -> ClusterAssignment:
        ordered = _order_groups(groups, dendrogram)
        labels = [f"g{i + 1}" for i in range(len(ordered))]
        return ClusterAssignment(
            groups=ordered,
            labels=labels,
            column_names=dendrogram.leaf_labels,
            penalty_table=table,
            alpha=alpha,
        )

    if m == 1:
        return finish([(0,)], [])
    if float(np.max(dendrogram.heights())) == 0.0:
        # No structure to cut: all features are mutually indistinguishable.
        return finish([dendrogram.cut(1)[0]], [])
    if m == 2:
        return finish(dendrogram.cut(2), [])

    levels = list(range(2, m))  # cluster counts considered by the penalty
    spreads = []
    partitions = []
    for c in levels:
        groups = dendrogram.cut(c)
        partitions.append(groups)
        within = [w for g in groups if (w := _mean_within(d, g)) is not None]
        spreads.append(float(np.mean(within)) if within else 0.0)
    spreads = np.array(spreads)
    lo, hi = float(spreads.min()), float(spreads.max())
    if hi > lo:
        scaled = 1.0 + (m - 3.0) * (spreads - lo) / (hi - lo)
    else:
        scaled = np.ones_like(spreads)
    penalties = scaled + alpha * np.array(levels, float)
    table = [
        {
            "n_clusters": int(c),
            "spread": float(s),
            "scaled_spread": float(z),
            "penalty": float(p),
        }
        for c, s, z, p in zip(levels, spreads, scaled, penalties)
    ]
    best = int(np.argmin(penalties))
    return finish(partitions[best], table)


def aggregate_shapley(explanation: Explanation, assignment: ClusterAssignment) -> Explanation:
    """The explanation with ``phi`` summed per group, in ``assignment.groups`` order,
    and a copy of its diagnostics; everything else carries over."""
    m = explanation.phi.shape[0]
    covered = sorted(j for g in assignment.groups for j in g)
    if covered != list(range(m)):
        raise ValueError(
            f"cluster assignment does not partition the {m} features: {assignment.groups}"
        )
    group_phi = np.array(
        [float(explanation.phi[list(g)].sum()) for g in assignment.groups]
    )
    return replace(explanation, phi=group_phi, diagnostics=dict(explanation.diagnostics))
