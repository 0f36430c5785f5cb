"""Sampling models y|x and the two built-in predictors.

The piecewise response sums three step functions with fixed breakpoints
(``fun1``-``fun3``).  Both predictors
satisfy the package-wide contract: a deterministic vectorized map from an
(n, m) matrix to n reals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import DiagnosticWarning, SchemaError
from ..samplers import TrainingMatrix


def fun1(x: np.ndarray) -> np.ndarray:
    """Steps -1 / 0 / 1 with breaks at -0.5 and 0.5."""
    x = np.asarray(x, float)
    return np.where(x < -0.5, -1.0, np.where(x < 0.5, 0.0, 1.0))


def fun2(x: np.ndarray) -> np.ndarray:
    """Single step 0 / 2 at the origin."""
    x = np.asarray(x, float)
    return np.where(x < 0.0, 0.0, 2.0)


def fun3(x: np.ndarray) -> np.ndarray:
    """Steps -0.5 / 0.5 / 1.5 with breaks at -1 and 1."""
    x = np.asarray(x, float)
    return np.where(x < -1.0, -0.5, np.where(x < 1.0, 0.5, 1.5))


PIECEWISE_FUNS = (fun1, fun2, fun3)

#: Feature groups each step function applies to, by dimension.
PIECEWISE_GROUPS = {
    3: ((0,), (1,), (2,)),
    10: ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
}

LINEAR_ACTIVE = {3: (0, 1, 2), 10: tuple(range(9))}

NOISE_SD = 0.1

#: Boosting settings of the stump-ensemble predictor.
N_ROUNDS = 50
MAX_DEPTH = 3
LEARNING_RATE = 0.1
N_BINS = 256
MIN_LEAF = 5


def _check_dim(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, float))
    if x.shape[1] not in (3, 10):
        raise ValueError(f"sampling models are defined for 3 or 10 features, got {x.shape[1]}")
    return x


def linear_sampling_model(x: np.ndarray, rng_seed, noise_sd: float = NOISE_SD) -> np.ndarray:
    """y = sum of the active features plus Gaussian noise.

    In ten dimensions the last feature is inert by construction.
    """
    x = _check_dim(x)
    active = LINEAR_ACTIVE[x.shape[1]]
    rng = np.random.default_rng(rng_seed)
    return x[:, list(active)].sum(axis=1) + noise_sd * rng.standard_normal(len(x))


def piecewise_sampling_model(x: np.ndarray, rng_seed, noise_sd: float = NOISE_SD) -> np.ndarray:
    """Sum of step functions applied to feature groups plus Gaussian noise."""
    x = _check_dim(x)
    groups = PIECEWISE_GROUPS[x.shape[1]]
    rng = np.random.default_rng(rng_seed)
    y = np.zeros(len(x))
    for fun, group in zip(PIECEWISE_FUNS, groups):
        for j in group:
            y += fun(x[:, j])
    return y + noise_sd * rng.standard_normal(len(x))


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------


@dataclass
class OlsModel:
    """Linear predictor fitted by least squares."""

    beta0: float
    beta: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.beta0 + np.atleast_2d(np.asarray(x, float)) @ self.beta


def fit_ols(train: TrainingMatrix | np.ndarray, y: np.ndarray) -> OlsModel:
    """Least-squares fit with an intercept; pivoted solve via lstsq."""
    x = train.data if isinstance(train, TrainingMatrix) else np.asarray(train, float)
    y = np.asarray(y, float).reshape(-1)
    n, m = x.shape
    if n <= m:
        raise SchemaError(f"need more rows ({n}) than features ({m}) to fit")
    design = np.column_stack([np.ones(n), x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < m + 1:
        warnings.warn(
            f"rank-deficient design (rank {rank} of {m + 1}); pivoted solve used",
            DiagnosticWarning,
            stacklevel=2,
        )
    return OlsModel(beta0=float(coef[0]), beta=coef[1:])


# ---------------------------------------------------------------------------
# Histogram gradient-boosted regression trees
# ---------------------------------------------------------------------------


@dataclass
class _TreeNode:
    feature: int = -1  # -1 marks a leaf
    bin_threshold: int = 0  # go left when bin <= threshold
    left: int = -1
    right: int = -1
    value: float = 0.0


class StumpEnsembleModel:
    """Gradient-boosted shallow regression trees on binned features.

    Squared-error boosting: each round fits a depth-limited tree to the
    current residuals on quantile-binned features, and the prediction
    accumulates LEARNING_RATE times the leaf means.  Fully deterministic.
    """

    def __init__(self, bin_edges: list[np.ndarray], base: float):
        self.bin_edges = bin_edges
        self.base = base
        self.trees: list[list[_TreeNode]] = []

    def _bin(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        binned = np.empty(x.shape, dtype=np.int32)
        for j, edges in enumerate(self.bin_edges):
            binned[:, j] = np.searchsorted(edges, x[:, j], side="right")
        return binned

    def _tree_predict(self, nodes: list[_TreeNode], binned: np.ndarray) -> np.ndarray:
        out = np.empty(len(binned))
        stack = [(0, np.arange(len(binned)))]
        while stack:
            node_id, idx = stack.pop()
            node = nodes[node_id]
            if node.feature < 0:
                out[idx] = node.value
                continue
            go_left = binned[idx, node.feature] <= node.bin_threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        binned = self._bin(x)
        pred = np.full(len(binned), self.base)
        for nodes in self.trees:
            pred += LEARNING_RATE * self._tree_predict(nodes, binned)
        return pred


def _best_split(
    binned: np.ndarray, residual: np.ndarray, idx: np.ndarray
) -> tuple[int, int, float] | None:
    """Greedy variance-reduction split over all features and bin cuts."""
    total_sum = residual[idx].sum()
    total_cnt = len(idx)
    best_gain, best = 1e-12, None
    base_score = total_sum * total_sum / total_cnt
    for j in range(binned.shape[1]):
        cnt = np.bincount(binned[idx, j], minlength=N_BINS)
        sm = np.bincount(binned[idx, j], weights=residual[idx], minlength=N_BINS)
        c_cnt = np.cumsum(cnt)[:-1]
        c_sum = np.cumsum(sm)[:-1]
        valid = (c_cnt >= MIN_LEAF) & (total_cnt - c_cnt >= MIN_LEAF)
        if not np.any(valid):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (
                c_sum * c_sum / c_cnt
                + (total_sum - c_sum) ** 2 / (total_cnt - c_cnt)
                - base_score
            )
        gain[~valid] = -np.inf
        g = int(np.argmax(gain))
        if gain[g] > best_gain:
            best_gain = float(gain[g])
            best = (j, g)
    if best is None:
        return None
    return best[0], best[1], best_gain


def _grow_tree(binned: np.ndarray, residual: np.ndarray) -> list[_TreeNode]:
    nodes: list[_TreeNode] = [_TreeNode()]
    work = [(0, np.arange(len(binned)), 0)]
    while work:
        node_id, idx, depth = work.pop()
        node = nodes[node_id]
        if depth >= MAX_DEPTH or len(idx) < 2 * MIN_LEAF:
            node.value = float(residual[idx].mean())
            continue
        split = _best_split(binned, residual, idx)
        if split is None:
            node.value = float(residual[idx].mean())
            continue
        feature, cut, _ = split
        node.feature = feature
        node.bin_threshold = cut
        go_left = binned[idx, feature] <= cut
        node.left = len(nodes)
        nodes.append(_TreeNode())
        node.right = len(nodes)
        nodes.append(_TreeNode())
        work.append((node.left, idx[go_left], depth + 1))
        work.append((node.right, idx[~go_left], depth + 1))
    return nodes


def fit_stump_ensemble(train: TrainingMatrix | np.ndarray, y: np.ndarray) -> StumpEnsembleModel:
    """Boosted histogram regression trees with squared-error loss."""
    x = train.data if isinstance(train, TrainingMatrix) else np.asarray(train, float)
    y = np.asarray(y, float).reshape(-1)
    n, m = x.shape
    if n <= m:
        raise SchemaError(f"need more rows ({n}) than features ({m}) to fit")
    bin_edges = []
    for j in range(m):
        qs = np.quantile(x[:, j], np.linspace(0.0, 1.0, N_BINS + 1)[1:-1])
        bin_edges.append(np.unique(qs))
    model = StumpEnsembleModel(bin_edges, base=float(y.mean()))
    binned = model._bin(x)
    pred = np.full(n, model.base)
    for _ in range(N_ROUNDS):
        residual = y - pred
        nodes = _grow_tree(binned, residual)
        model.trees.append(nodes)
        pred += LEARNING_RATE * model._tree_predict(nodes, binned)
    return model
