"""Estimators of the contribution function v(S) = E[f(x) | x_S = x_S*].

Five strategies are provided: independence (the original kernel-weighted
approach), multivariate Gaussian conditioning, Gaussian copula with empirical
margins, an empirical conditional estimator driven by kernel weights on a
scaled Mahalanobis distance, and a combined scheme that uses the empirical
estimator for small conditioning sets and a parametric backend otherwise.

All estimators depend on the predictor only through the contract: a
deterministic vectorized map from an (n, m) float matrix to n reals, called
once per v(S) by :func:`_spliced_mean` on rows with x*_S spliced in.
What x* leaves alone is one :class:`ConditioningPlan` per (covariance,
coalition), kept in the covariance's one :class:`PlanTable` with the label
its ridge and clip warnings name: the training matrix's (shared by the
Gaussian part and the empirical and AICc distances), the copula state's and
each simulation law's.  A plan is reached as ``table[s]``, built on a miss;
:meth:`PlanTable.build` builds many in one stacked LAPACK pass per
coalition size (:func:`conditional_moments`), at an explainer's first
instance or before an AICc search.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from types import ModuleType
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DiagnosticWarning, InvalidCovarianceError, ModelProtocolError, SchemaError
from .coalitions import Coalition

Predictor = Callable[[np.ndarray], np.ndarray]

DEFAULT_AICC_GRID = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
DEFAULT_N_AICC = 400
# Most rows in the synthetic batch of one blocked AICc search (one coalition).
AICC_BATCH_ROWS = 2 ** 15
# A covariance block is ridged when its condition number exceeds RIDGE_COND.
RIDGE_COND = 1e8


@cache
def _scipy(name: str) -> ModuleType:
    """``scipy.<name>``, imported on first use and then looked up in a cache.

    ``condshap cluster`` needs no scipy at all, and importing
    ``scipy.special`` or ``scipy.linalg`` loads most of scipy's shared core.
    """
    return importlib.import_module(f"scipy.{name}")


class PredictorError(RuntimeError):
    """Predictor raised on a synthetic batch; the batch head is attached."""

    def __init__(self, message: str, rows: np.ndarray):
        super().__init__(message)
        self.rows = rows


def call_predictor(predictor: Predictor, rows: np.ndarray) -> np.ndarray:
    """Invoke the predictor, validating the output shape.

    Model-protocol errors carry their own context and propagate unwrapped;
    anything else is wrapped with the offending batch attached.
    """
    rows = np.atleast_2d(np.asarray(rows, float))
    try:
        out = np.asarray(predictor(rows), float)
    except ModelProtocolError:
        raise
    except Exception as exc:
        head = rows[0] if len(rows) else rows
        raise PredictorError(
            f"predictor failed on a synthetic batch of {len(rows)} rows "
            f"(first row {np.array2string(head, precision=6)})",
            rows,
        ) from exc
    out = out.reshape(-1)
    if out.shape[0] != rows.shape[0]:
        raise PredictorError(
            f"predictor returned {out.shape[0]} values for {rows.shape[0]} rows", rows
        )
    return out


@dataclass(frozen=True)
class TrainingMatrix:
    """Training data with its exact sample mean and covariance (1/(n-1)).

    :attr:`plans` is the :class:`PlanTable` of the covariance, shared by the
    Gaussian part and the empirical distances of every sampler fitted to
    this matrix.
    """

    data: np.ndarray
    column_names: tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray

    @classmethod
    def from_data(
        cls, data: np.ndarray, column_names: Sequence[str] | None = None
    ) -> "TrainingMatrix":
        data = np.ascontiguousarray(np.asarray(data, float))
        if data.ndim != 2:
            raise ValueError("training data must be a 2-D matrix")
        n, m = data.shape
        if column_names is None:
            column_names = tuple(f"x{j + 1}" for j in range(m))
        elif len(column_names) != m:
            raise ValueError("column_names length does not match feature count")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = data.mean(axis=0)
            if n > 1:
                cov = np.cov(data, rowvar=False, ddof=1).reshape(m, m)
            else:
                cov = np.zeros((m, m))
        # A non-finite value makes its column's mean non-finite too.
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            finite = np.isfinite(data).all(axis=0)
            if not finite.all():
                raise SchemaError(f"column {column_names[int(np.argmin(finite))]!r} is not finite")
            raise SchemaError("training mean or covariance overflows float64")
        return cls(data=data, column_names=tuple(column_names), mean=mean, covariance=cov)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @cached_property
    def checked_covariance(self) -> np.ndarray:
        """The covariance, checked once to be symmetric positive semi-definite."""
        _check_psd(self.covariance)
        return self.covariance

    @cached_property
    def plans(self) -> PlanTable:
        return PlanTable(self.covariance, "training covariance")


# ---------------------------------------------------------------------------
# Gaussian conditioning
# ---------------------------------------------------------------------------


def _check_psd(cov: np.ndarray, label: str = "covariance") -> None:
    cov = np.asarray(cov, float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidCovarianceError(f"invalid {label}: not square")
    if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, np.abs(cov).max())):
        raise InvalidCovarianceError(f"invalid {label}: not symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals.size and eigvals[0] < -1e-8 * max(1.0, eigvals[-1]):
        raise InvalidCovarianceError(
            f"invalid {label}: negative eigenvalue {eigvals[0]:.3e}"
        )


def _ridge(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal ridge and condition number of each block of a (g, s, s) stack.

    One stacked ``np.linalg.cond`` call gives every Sigma_SS block its own
    condition number, and each block is decided by its own: ridged by 1e-8
    of its mean diagonal (at least 1e-12) when its cond exceeds RIDGE_COND
    or is not finite, else 0.0.  :func:`conditional_moments` decides once per
    plan, and warns for each block it ridges.
    """
    cond = np.linalg.cond(block)
    ridge = np.zeros(len(block))
    for g in np.flatnonzero(~(np.isfinite(cond) & (cond <= RIDGE_COND))):
        ridge[g] = max(1e-8 * float(np.trace(block[g])) / block.shape[-1], 1e-12)
    return ridge, cond


def _sorted_coalition(s: Iterable[int], x_s) -> tuple[Coalition, np.ndarray]:
    """``s`` in ascending order, with the values ``x_s`` of its features permuted to match."""
    s = tuple(s)
    x_s = np.asarray(x_s, float).reshape(-1)
    if x_s.shape[0] != len(s):
        raise ValueError("conditioning values do not match coalition size")
    order = sorted(range(len(s)), key=s.__getitem__)
    return tuple(s[i] for i in order), x_s[order]


@dataclass(frozen=True)
class ConditioningPlan:
    """The part of conditioning a Gaussian on coalition S that x_S leaves alone.

    That is the indices of S and of its complement, the ridge added to
    Sigma_SS when its own cond exceeds RIDGE_COND (else 0.0), the lower
    Cholesky factor ``chol`` of Sigma_SS + ridge I, the regression matrix
    ``coef`` = (Sigma_SS + ridge I)^{-1} Sigma_{S,Sbar}, the conditional
    covariance ``sigma`` and its eigen-factor.  None of it depends on x_S
    or on the Gaussian's mean, so every user of a covariance shares its
    plans through that covariance's :class:`PlanTable`.  The plan is the
    one record of its two further factors, each made on first use:
    :attr:`whiten`, W = L^{-1}, and :attr:`draw_factor`, the one factor
    F F^T = ``sigma`` that both draws and quadrature read.
    """

    s: np.ndarray
    sbar: np.ndarray
    ridge: float
    chol: np.ndarray
    coef: np.ndarray
    sigma: np.ndarray
    factor: np.ndarray

    def mean(self, mean: np.ndarray, x_s: np.ndarray) -> np.ndarray:
        """E[x_sbar | x_S = x_s] = mean_Sbar + (x_s - mean_S) coef under N(mean, Sigma)."""
        return mean[self.sbar] + (x_s - mean[self.s]) @ self.coef

    @cached_property
    def whiten(self) -> np.ndarray:
        """W = L^{-1}, |W d|^2 = d^T (Sigma_SS + ridge I)^{-1} d, by LAPACK's
        ``dtrtri``: it cannot fail on L's positive diagonal and is exactly lower triangular."""
        if not self.chol.size:
            return self.chol
        return _scipy("linalg.lapack").dtrtri(self.chol, lower=1)[0]

    @cached_property
    def draw_factor(self) -> np.ndarray:
        """F with F F^T = ``sigma``: its Cholesky factor, else the eigen-factor ``factor``."""
        try:
            return np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            return self.factor


def conditional_moments(
    cov: np.ndarray,
    coalitions: Sequence[Coalition],
    context: str = "gaussian conditional",
) -> list[ConditioningPlan]:
    """The plans for conditioning a Gaussian of covariance ``cov`` on each sorted coalition.

    L L^T = Sigma_SS + ridge I
    coef = (Sigma_SS + ridge I)^{-1} Sigma_{S,Sbar}
    Sigma_cond = Sigma_{Sbar,Sbar} - Sigma_{Sbar,S} coef = F F^T

    The coalitions are grouped by size.  Each group gathers its Sigma_SS,
    Sigma_{S,Sbar} and Sigma_{Sbar,Sbar} blocks with one fancy index and
    makes one stacked call each to ``cond``, ``cholesky``, ``solve``,
    ``matmul`` and ``eigh``; LAPACK factors every block of a stack as it
    would factor it alone, so each plan has the bytes of a plan built by
    itself.  Each block's ridge is still chosen by :func:`_ridge` from that
    block's own condition number.  The ridge and clip warnings name
    ``context`` and come in coalition order, once the plans are built.  No
    other code ridges or factors a Sigma_SS block.
    """
    cov = np.asarray(cov, float)
    m = cov.shape[0]
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(coalitions):
        by_size.setdefault(len(s), []).append(i)
    plans: list[ConditioningPlan | None] = [None] * len(coalitions)
    notes: list[tuple[int, str]] = []
    try:
        for size, rows in by_size.items():
            s = np.array([coalitions[i] for i in rows], dtype=np.intp).reshape(len(rows), size)
            outside = np.ones((len(rows), m), bool)
            outside[np.arange(len(rows))[:, None], s] = False
            sbar = np.nonzero(outside)[1].reshape(len(rows), m - size)
            block = cov[s[:, :, None], s[:, None, :]]
            ridge = np.zeros(len(rows))
            if size:
                ridge, cond = _ridge(block)
                for g in np.flatnonzero(ridge):
                    block[g] = block[g] + ridge[g] * np.eye(size)
                    notes.append((rows[g], f"near-singular covariance block in {context} "
                                           f"(cond {cond[g]:.3e}); ridge {ridge[g]:.3e} added"))
            try:
                chol = np.linalg.cholesky(block) if size else block
            except np.linalg.LinAlgError as exc:
                raise InvalidCovarianceError("covariance block factorization failed") from exc
            cross = cov[s[:, :, None], sbar[:, None, :]]
            coef = np.linalg.solve(block, cross)
            sigma = cov[sbar[:, :, None], sbar[:, None, :]] - cross.swapaxes(1, 2) @ coef
            sigma = 0.5 * (sigma + sigma.swapaxes(1, 2))
            try:
                vals, vecs = np.linalg.eigh(sigma)
            except np.linalg.LinAlgError as exc:
                raise InvalidCovarianceError("conditional covariance factorization failed") from exc
            if not np.all(np.isfinite(vals)):
                raise InvalidCovarianceError("conditional covariance factorization failed")
            if size < m:
                # F = V sqrt(max(vals, 0)); a clip beyond rounding is warned about.
                clipped = vals[:, 0] < -1e-8 * np.maximum(1.0, vals[:, -1])
                notes += [(rows[g], f"conditional covariance clipped "
                                    f"(min eigenvalue {vals[g, 0]:.3e})")
                          for g in np.flatnonzero(clipped)]
            factor = vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]
            built = map(ConditioningPlan, s, sbar, ridge.tolist(), chol, coef, sigma, factor)
            for i, plan in zip(rows, built):
                plans[i] = plan
    finally:
        # In coalition order, a plan's ridge note before its clip note; on an
        # error, the notes of the blocks checked so far.
        for _, note in sorted(notes, key=lambda note: note[0]):
            warnings.warn(note, DiagnosticWarning, stacklevel=2)
    return plans


class PlanTable(dict):
    """The :class:`ConditioningPlan` of each sorted coalition under covariance ``cov``.

    The table owns ``cov`` and the ``label`` its warnings name, so each plan
    is built once and warns in the same words whichever caller meets it
    first.  A lookup ``table[s]`` builds a missing plan alone.
    """

    def __init__(self, cov: np.ndarray, label: str):
        super().__init__()
        self.cov = cov
        self.label = label

    def build(self, coalitions: Iterable[Coalition]) -> None:
        """Build the plans of the sorted ``coalitions`` not yet in the table."""
        missing = [s for s in dict.fromkeys(coalitions) if s not in self]
        if missing:
            self.update(zip(missing, conditional_moments(self.cov, missing, self.label)))

    def __missing__(self, s: Coalition) -> ConditioningPlan:
        self.build([s])
        return dict.__getitem__(self, s)


def gaussian_conditional(
    train: TrainingMatrix, s: Iterable[int], x_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and eigen-factor of the unknown features' law under a fitted Gaussian, by s's plan."""
    train.checked_covariance  # an invalid covariance fails before its first plan
    plan = train.plans[tuple(sorted(s))]
    x_star = np.asarray(x_star, float).reshape(-1)
    return plan.mean(train.mean, x_star[plan.s]), plan.factor


def sample_gaussian_conditional(
    mean: np.ndarray, factor: np.ndarray, k: int, rng_seed
) -> np.ndarray:
    """Draw k rows from N(mean, factor factor^T) through the factor.

    ``rng_seed`` is anything ``np.random.default_rng`` takes; a generator is
    drawn from in place.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    z = np.random.default_rng(rng_seed).standard_normal((k, mean.shape[0]))
    return mean[None, :] + z @ factor.T


# ---------------------------------------------------------------------------
# Independence estimator
# ---------------------------------------------------------------------------


def _spliced_mean(
    predictor: Predictor, s: Coalition, x_star: np.ndarray, rows: np.ndarray, weights=None
) -> float:
    """v(S) as the mean, or the ``weights``-weighted mean, of f over ``rows``
    (n, m) with x*_S spliced into the features of S, in place: pass a copy."""
    rows[:, list(s)] = x_star[list(s)]
    preds = call_predictor(predictor, rows)
    if weights is None:
        return float(preds.mean())
    return float(np.dot(weights, preds) / weights.sum())


def estimate_v_independent(
    train: TrainingMatrix,
    predictor: Predictor,
    s: Iterable[int],
    x_star: np.ndarray,
    k: int,
    rng_seed,
) -> float:
    """Average f over k training rows with the known coordinates spliced in."""
    s = tuple(sorted(s))
    if not (0 < len(s) < train.m):
        raise ValueError("independence estimator needs a proper non-empty coalition")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(rng_seed)
    idx = rng.integers(0, train.n, size=k)
    x_star = np.asarray(x_star, float).reshape(-1)
    return _spliced_mean(predictor, s, x_star, train.data[idx])


def estimate_v_independent_full(
    train: TrainingMatrix, predictor: Predictor, s: Iterable[int], x_star: np.ndarray
) -> float:
    """Deterministic variant: average over every training row exactly once."""
    s = tuple(sorted(s))
    x_star = np.asarray(x_star, float).reshape(-1)
    return _spliced_mean(predictor, s, x_star, train.data.copy())


def mean_training_prediction(train: TrainingMatrix, predictor: Predictor) -> float:
    """v(empty): the global mean prediction over the training rows."""
    return float(call_predictor(predictor, train.data).mean())


# ---------------------------------------------------------------------------
# Gaussian copula with empirical margins
# ---------------------------------------------------------------------------


@dataclass
class CopulaState:
    """Sorted training columns, the latent Gaussian correlation and its plans.

    Row j of ``sorted_columns`` holds feature j's training values in
    ascending order.  :attr:`plans` is the latent correlation's
    :class:`PlanTable`, filled by :meth:`FittedSampler.build_plans` or, for
    a coalition not yet planned, by :func:`sample_copula_conditional`.
    """

    sorted_columns: np.ndarray
    latent_correlation: np.ndarray

    @cached_property
    def plans(self) -> PlanTable:
        return PlanTable(self.latent_correlation, "copula conditional")

    @property
    def n(self) -> int:
        return self.sorted_columns.shape[1]

    @property
    def m(self) -> int:
        return self.sorted_columns.shape[0]

    def cdf(self, cols: Sequence[int], x: np.ndarray) -> np.ndarray:
        """Empirical CDF of feature cols[i] at x[i]: rank/(n+1), never 0 or 1."""
        rank = [self.sorted_columns[j].searchsorted(v, side="right") for j, v in zip(cols, x)]
        return np.minimum(np.maximum(rank, 1), self.n) / (self.n + 1)

    def latent(self, x: np.ndarray) -> np.ndarray:
        """The latent value ndtri(F_n(x_j)) of every feature j of one instance x."""
        return _scipy("special").ndtri(self.cdf(range(self.m), x))

    def quantiles(self, cols: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Left-continuous inverse of feature cols[i]'s CDF on column i of u.

        With x_(1) <= ... <= x_(n) the sorted column, u in
        ((i-1)/(n+1), i/(n+1)] maps to x_(i) for i = 1..n, and u > n/(n+1)
        maps to x_(n) as well.  Under uniform u the largest order statistic
        therefore carries mass 2/(n+1) and every other one 1/(n+1).  Whether
        that top bin is intended is not settled by the method description;
        it is kept because changing it changes every copula draw.
        """
        n = self.n
        rank = np.minimum(np.maximum(np.ceil(np.asarray(u, float) * (n + 1)).astype(np.intp), 1), n)
        # One gather: row cols[i] of the row-major (m, n) matrix starts at cols[i] * n.
        return self.sorted_columns.take(rank + (np.asarray(cols) * n - 1))


def _average_ranks(col: np.ndarray) -> np.ndarray:
    """1-based average ranks: the tie run [start, stop) of the sorted column
    gets (start + stop + 1) / 2, as ``scipy.stats.rankdata(method="average")``."""
    order = np.argsort(col)
    sorted_col = col[order]
    edges = np.flatnonzero(np.concatenate(([True], sorted_col[1:] != sorted_col[:-1], [True])))
    ranks = np.empty(col.size)
    ranks[order] = np.repeat((edges[:-1] + edges[1:] + 1) / 2, np.diff(edges))
    return ranks


def fit_copula(train: TrainingMatrix) -> CopulaState:
    """Gaussianize each margin by its empirical CDF and correlate the result."""
    if train.n < 20:
        raise SchemaError(f"copula fit needs n >= 20 training rows, got {train.n}")
    n, m = train.n, train.m
    latent = np.empty((n, m))
    degenerate = []
    for j in range(m):
        col = train.data[:, j]
        if np.ptp(col) == 0.0:
            degenerate.append(j)
            latent[:, j] = 0.0
            continue
        latent[:, j] = _scipy("special").ndtri(_average_ranks(col) / (n + 1))
    corr = np.eye(m)
    active = [j for j in range(m) if j not in degenerate]
    if len(active) >= 2:
        sub = np.corrcoef(latent[:, active], rowvar=False)
        corr[np.ix_(active, active)] = sub
    if degenerate:
        warnings.warn(
            f"degenerate marginal(s) {tuple(degenerate)}: constant column, "
            "latent correlation row set to identity",
            DiagnosticWarning,
            stacklevel=2,
        )
    return CopulaState(
        sorted_columns=np.sort(train.data.T, axis=1),
        latent_correlation=corr,
    )


def sample_copula_conditional(
    state: CopulaState, s: Iterable[int], v_s: np.ndarray, k: int, rng_seed
) -> np.ndarray:
    """Sample the complement features through the latent Gaussian copula.

    ``v_s`` holds the latent values of x*_S in the order ``s`` gives its
    features (a slice of :meth:`CopulaState.latent`).  The latent
    conditional goes through the state's plan for ``s``.  Returned values
    for each feature always lie inside that feature's training range
    (inverse empirical CDF lookup).
    """
    s, v_s = _sorted_coalition(s, v_s)
    plan = state.plans[s]
    mean = plan.mean(np.zeros(state.m), v_s)
    latent = sample_gaussian_conditional(mean, plan.factor, k, rng_seed)
    return state.quantiles(plan.sbar, _scipy("special").ndtr(latent))


# ---------------------------------------------------------------------------
# Empirical conditional estimator
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalWeights:
    """Scaled Mahalanobis distances and Gaussian kernel weights per row."""

    distances: np.ndarray
    weights: np.ndarray

    @cached_property
    def ranked(self) -> np.ndarray:
        """The weights sorted non-increasing."""
        return -np.sort(-self.weights)

    def top(self, k: int) -> np.ndarray:
        """Rows of the ``k`` largest weights, heaviest first, ties by row index.

        The same rows in the same order as ``argsort(-weights, kind="stable")[:k]``,
        without ranking every row: only the rows at or above the k-th weight
        are sorted.
        """
        w = self.weights
        k = min(k, w.size)
        if k <= 0:
            return np.empty(0, dtype=np.intp)
        cut = self.ranked[k - 1]
        above = np.flatnonzero(w > cut)
        rows = np.concatenate([above, np.flatnonzero(w == cut)[: k - above.size]])
        return rows[np.argsort(-w[rows], kind="stable")]


def scaled_mahalanobis(
    train: TrainingMatrix, s: Iterable[int], x_star: np.ndarray
) -> np.ndarray:
    """sqrt((x_S* - x_S^i)^T Sigma_S^{-1} (x_S* - x_S^i) / |S|) per row."""
    s = tuple(sorted(s))
    if not s:
        raise ValueError("distance needs a non-empty conditioning set")
    x_star = np.asarray(x_star, float).reshape(-1)
    white = (train.data[:, list(s)] - x_star[list(s)][None, :]) @ train.plans[s].whiten.T
    d2 = np.sum(white ** 2, axis=1) / len(s)
    return np.sqrt(np.maximum(d2, 0.0))


def _kernel_scale(sigma: float) -> float:
    """The kernel's 2 sigma^2, in exp(-D^2 / (2 sigma^2)).

    Where 2 sigma^2 overflows (sigma above about 9.5e153) it is +inf, the
    sigma -> infinity limit: every weight is 1.
    """
    try:
        return 2.0 * float(sigma) ** 2
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def _check_bandwidth(sigma: float) -> None:
    """Raise ValueError unless the kernel's 2 sigma^2 is a positive float.

    Below about 1.6e-162, 2 sigma^2 underflows to 0 and a training row at
    distance 0 would get the weight exp(-0/0) = NaN.
    """
    if not sigma > 0:
        raise ValueError(f"bandwidth sigma must be positive, got {sigma}")
    if not _kernel_scale(sigma) > 0:
        raise ValueError(
            f"bandwidth sigma {sigma} is below about 1.6e-162, where 2 sigma^2 underflows to 0"
        )


def empirical_weights(
    train: TrainingMatrix, s: Iterable[int], x_star: np.ndarray, sigma: float
) -> EmpiricalWeights:
    """Gaussian kernel weights exp(-D^2 / (2 sigma^2)) over training rows."""
    _check_bandwidth(sigma)
    d = scaled_mahalanobis(train, s, x_star)
    w = np.exp(-(d ** 2) / _kernel_scale(sigma))
    return EmpiricalWeights(distances=d, weights=w)


def select_k(weights: EmpiricalWeights, eta: float, k_cap: int) -> int:
    """Smallest K whose top-K weight share strictly exceeds eta, capped."""
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must be in (0, 1)")
    if k_cap < 1:
        raise ValueError("k_cap must be >= 1")
    w = weights.ranked
    total = float(w.sum())
    if total <= 0.0:
        return min(k_cap, w.shape[0])
    frac = np.cumsum(w) / total
    hits = np.nonzero(frac > eta)[0]
    k = int(hits[0]) + 1 if hits.size else w.shape[0]
    return min(k, k_cap, w.shape[0])


def estimate_v_empirical(
    train: TrainingMatrix,
    predictor: Predictor,
    s: Iterable[int],
    x_star: np.ndarray,
    sigma: float,
    eta: float = 0.9,
    k_cap: int = 5000,
) -> float:
    """Weight-normalized average of f over the top-K nearest training rows.

    Each training row is used at most once.  If every weight underflows to
    zero the estimator falls back to the unweighted full-training average
    (the sigma -> infinity limit) with a diagnostic.
    """
    s = tuple(sorted(s))
    if not (0 < len(s) < train.m):
        raise ValueError("empirical estimator needs a proper non-empty coalition")
    x_star = np.asarray(x_star, float).reshape(-1)
    ew = empirical_weights(train, s, x_star, sigma)
    if float(ew.weights.sum()) <= 0.0:
        warnings.warn(
            "all empirical weights underflowed to zero; falling back to the "
            "unweighted training average",
            DiagnosticWarning,
            stacklevel=2,
        )
        return estimate_v_independent_full(train, predictor, s, x_star)
    k = select_k(ew, eta, k_cap)
    top = ew.top(k)
    return _spliced_mean(predictor, s, x_star, train.data[top], ew.weights[top])


# ---------------------------------------------------------------------------
# AICc bandwidth selection
# ---------------------------------------------------------------------------


def _smooth(w: np.ndarray) -> tuple[float, float]:
    """Normalize the rows of kernel matrix ``w`` in place; return (tr(H), Phi(H)).

    ``w`` then holds the hat matrix H; Phi(H) = (1 + tr(H)/n) / (1 - (tr(H) + 2)/n).
    The trace is read off the kernel's diagonal before the rows are
    normalized.  A row that sums to zero gives (inf, inf) and leaves ``w`` as
    it was; Phi(H) is inf when the penalty denominator is not positive.
    """
    n = w.shape[0]
    row_sums = w.sum(axis=1)
    if np.any(row_sums <= 0.0):
        return math.inf, math.inf
    trace = float(np.sum(np.diag(w) / row_sums))
    np.divide(w, row_sums[:, None], out=w)
    denom = 1.0 - (trace + 2.0) / n
    if denom <= 0.0:
        return trace, math.inf
    return trace, (1.0 + trace / n) / denom


def _aicc_subsample(n: int, n_aicc: int) -> np.ndarray:
    """Evenly spaced deterministic row subsample (rows are i.i.d.)."""
    if n <= n_aicc:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, n_aicc)).astype(int))


def _aicc_criterion_for_coalition(
    train: TrainingMatrix,
    predictor: Predictor,
    s: Coalition,
    x_star: np.ndarray,
    sigma_grid: Sequence[float],
    n_aicc: int,
) -> np.ndarray:
    """log(tau^2) + Phi(H) on the grid: one row per instance of the (n, m) block.

    One predictor call covers the spliced subsample of every instance.  The
    distances, and for each sigma the kernel, hat matrix, trace and Phi(H),
    depend on s and sigma alone and are built once.  Each instance's
    responses then go through their own matvec ``h @ r``: unlike one
    ``H @ R`` product, that keeps every tau^2 bit-identical to a search over
    that instance alone.
    """
    sub = train.data[_aicc_subsample(train.n, n_aicc)]
    cols = list(s)
    synth = np.tile(sub, (len(x_star), 1))
    synth[:, cols] = np.repeat(x_star[:, cols], len(sub), axis=0)
    responses = call_predictor(predictor, synth).reshape(len(x_star), len(sub))
    white = sub[:, cols] @ train.plans[s].whiten.T  # (n_sub, |s|)
    sq = np.sum(white ** 2, axis=1)
    # d2 = max((sq_i + sq_j - 2 <w_i, w_j>) / |s|, 0).  Two n_sub x n_sub
    # matrices in all: h holds 2 <w_i, w_j>, then each sigma's kernel and
    # hat matrix.
    h = white @ white.T
    np.multiply(h, 2.0, out=h)
    d2 = np.add(sq[:, None], sq[None, :])
    np.subtract(d2, h, out=d2)
    np.divide(d2, len(s), out=d2)
    np.maximum(d2, 0.0, out=d2)
    out = np.empty((len(x_star), len(sigma_grid)))
    for g, sigma in enumerate(sigma_grid):
        np.negative(d2, out=h)
        np.divide(h, _kernel_scale(sigma), out=h)
        np.exp(h, out=h)
        _, phi_h = _smooth(h)
        if not np.isfinite(phi_h):
            out[:, g] = math.inf
            continue
        for i, r in enumerate(responses):
            tau_sq = float(np.mean((r - h @ r) ** 2))
            out[i, g] = math.log(max(tau_sq, 1e-300)) + phi_h
    return out


def aicc_bandwidth(
    train: TrainingMatrix,
    predictor: Predictor,
    coalitions: Iterable[Coalition],
    x_star: np.ndarray,
    sigma_grid: Sequence[float] = DEFAULT_AICC_GRID,
    n_aicc: int = DEFAULT_N_AICC,
) -> np.ndarray:
    """Grid minimizer of log(tau^2) + Phi(H) summed over ``coalitions``.

    The coalitions share the bandwidth found: one coalition gives the
    per-coalition ("exact") search, a group of them one shared bandwidth
    ("approx"); the criteria are added in the order given.  ``x_star`` is a
    block of instances (n, m), or one instance (m,) as a block of one; the
    result holds one bandwidth per row.  A block shares one predictor call
    and one set of hat matrices per coalition.
    """
    sigma_grid = list(sigma_grid)
    if not sigma_grid:
        raise ValueError("sigma_grid must be non-empty")
    for sigma in sigma_grid:
        _check_bandwidth(sigma)
    coalitions = [tuple(sorted(s)) for s in coalitions]
    if not coalitions or not all(0 < len(s) < train.m for s in coalitions):
        raise ValueError("AICc needs one or more proper, non-empty coalitions")
    block = np.asarray(x_star, float).reshape(-1, train.m)
    criteria = np.zeros((len(block), len(sigma_grid)))
    for s in coalitions:
        criteria += _aicc_criterion_for_coalition(train, predictor, s, block, sigma_grid, n_aicc)
    hopeless = ~np.isfinite(criteria).any(axis=1)
    if hopeless.any():
        x_bad = block[int(np.argmax(hopeless))]
        raise SchemaError(
            "AICc criterion infinite on the whole bandwidth grid "
            f"for x* = {np.array2string(x_bad, precision=6)}"
        )
    return np.asarray(sigma_grid, float)[np.argmin(criteria, axis=1)]


# ---------------------------------------------------------------------------
# Sampler specification and dispatch
# ---------------------------------------------------------------------------

KINDS = ("independence", "gaussian", "copula", "empirical", "combined")
BANDWIDTH_MODES = ("fixed", "aicc_exact", "aicc_approx")


@dataclass(frozen=True)
class SamplerSpec:
    """Declarative choice of contribution estimator.

    ``d_star`` and ``parametric_backend`` only apply to the combined kind;
    ``sigma``/``bandwidth_mode`` only to the empirical parts.
    """

    kind: str = "gaussian"
    bandwidth_mode: str = "fixed"
    sigma: float = 0.1
    d_star: int = 3
    parametric_backend: str = "gaussian"
    eta: float = 0.9
    n_aicc: int = DEFAULT_N_AICC

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.bandwidth_mode not in BANDWIDTH_MODES:
            raise ValueError(f"unknown bandwidth mode {self.bandwidth_mode!r}")
        if self.parametric_backend not in ("gaussian", "copula"):
            raise ValueError(f"unknown parametric backend {self.parametric_backend!r}")
        if self.d_star < 1:
            raise ValueError("d_star must be >= 1")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must be in (0, 1)")
        _check_bandwidth(self.sigma)
        if self.n_aicc < 4:  # tr(H) >= 1, so 1 - (tr(H) + 2)/n > 0 needs n >= 4
            raise ValueError(f"n_aicc must be >= 4, got {self.n_aicc}")

    @property
    def label(self) -> str:
        if self.kind == "independence":
            return "original"
        if self.kind in ("gaussian", "copula"):
            return self.kind
        if self.bandwidth_mode == "fixed":
            emp = f"empirical-{self.sigma:g}"
        elif self.bandwidth_mode == "aicc_exact":
            emp = "empirical-aicc-exact"
        else:
            emp = "empirical-aicc-approx"
        if self.kind == "empirical":
            return emp
        return f"{emp}+{self.parametric_backend}"

    @classmethod
    def from_label(cls, label: str, **overrides) -> "SamplerSpec":
        """Parse labels like "original", "empirical-0.1+gaussian"."""
        text = label.strip().lower()
        backend = None
        if "+" in text:
            text, backend = text.rsplit("+", 1)
            if backend not in ("gaussian", "copula"):
                raise ValueError(f"unknown combined backend in {label!r}")
        fields: dict = {}
        if text in ("original", "independence"):
            fields["kind"] = "independence"
        elif text in ("gaussian", "copula"):
            fields["kind"] = text
        elif text == "empirical-aicc-exact":
            fields["kind"] = "empirical"
            fields["bandwidth_mode"] = "aicc_exact"
        elif text == "empirical-aicc-approx":
            fields["kind"] = "empirical"
            fields["bandwidth_mode"] = "aicc_approx"
        elif text.startswith("empirical-"):
            fields["kind"] = "empirical"
            fields["bandwidth_mode"] = "fixed"
            try:
                fields["sigma"] = float(text.removeprefix("empirical-"))
            except ValueError:
                raise ValueError(f"cannot parse estimator label {label!r}") from None
        else:
            raise ValueError(f"cannot parse estimator label {label!r}")
        if backend is not None:
            if fields["kind"] != "empirical":
                raise ValueError(f"combined label must start empirical-: {label!r}")
            fields["kind"] = "combined"
            fields["parametric_backend"] = backend
        fields.update(overrides)
        return cls(**fields)


@dataclass(frozen=True)
class InstanceDraws:
    """What the Gaussian and copula coalitions of one instance share.

    ``rng`` is the instance's stream: each coalition in turn draws its own
    k x |Sbar| standard normals from it, so the coalitions' draws stay
    independent while one generator serves them all.  ``latent`` holds the
    copula's latent values of x* for every feature (None without a
    copula); coalition S conditions on its own entries.
    """

    rng: np.random.Generator
    latent: np.ndarray | None


class FittedSampler:
    """A sampler spec bound to training data (and its fitted copula, if any).

    The Gaussian and copula parts condition through one
    :class:`ConditioningPlan` per coalition: data-space plans in the
    training matrix's :class:`PlanTable`, latent plans in the copula
    state's.  :meth:`build_plans` fills them for a whole design in one
    stacked pass per table; a coalition not yet planned is built on its
    first use.  A plan is
    a function of the training data and the coalition alone, so the order
    in which instances build the plans does not change any result.  Those
    parts draw from one :class:`InstanceDraws` per instance.
    :meth:`contribution` estimates proper coalitions only (the endpoints are
    the explainer's), and :meth:`bandwidths` gives one table per instance
    row.
    """

    def __init__(self, spec: SamplerSpec, train: TrainingMatrix):
        self.spec = spec
        self.train = train
        self.copula: CopulaState | None = None
        parametric = spec.parametric_backend if spec.kind == "combined" else spec.kind
        if parametric == "copula":
            self.copula = fit_copula(train)
        if parametric == "gaussian":
            train.checked_covariance  # an invalid covariance fails the fit
        aicc = spec.kind in ("empirical", "combined") and spec.bandwidth_mode != "fixed"
        if aicc and train.n < 4:
            # Phi(H) is finite only when the AICc subsample holds n >= 4 rows.
            raise SchemaError(f"AICc bandwidth needs n >= 4 training rows, got {train.n}")

    # -- bandwidth ---------------------------------------------------------

    @property
    def aicc_block(self) -> int:
        """Instances searched together by AICc: at most AICC_BATCH_ROWS synthetic rows."""
        return max(1, AICC_BATCH_ROWS // max(1, min(self.train.n, self.spec.n_aicc)))

    def _part(self, s: Coalition) -> str:
        """The kind that estimates v(S): combined is empirical up to |S| = d_star."""
        if self.spec.kind != "combined":
            return self.spec.kind
        return "empirical" if len(s) <= self.spec.d_star else self.spec.parametric_backend

    def bandwidths(
        self, predictor: Predictor, coalitions: Iterable[Coalition], x_star: np.ndarray
    ) -> list[dict[Coalition, float]]:
        """Kernel bandwidth of every coalition the empirical part estimates.

        ``x_star`` is a block (n, m), or one instance (m,) as a block of one;
        the result holds one table per row (empty without an empirical part).
        The groups of coalitions that share a bandwidth are chosen here:
        :func:`aicc_bandwidth` runs once per coalition (``aicc_exact``), or
        once per coalition size over the coalitions of that size in
        ``coalitions`` (``aicc_approx``), for the whole block at once, after
        :meth:`build_plans` has built the plans it whitens by.
        """
        spec = self.spec
        m = self.train.m
        block = np.asarray(x_star, float).reshape(-1, m)
        needs = [s for s in coalitions if 0 < len(s) < m and self._part(s) == "empirical"]
        if spec.bandwidth_mode == "fixed":
            return [{s: spec.sigma for s in needs} for _ in block]
        self.build_plans(needs)
        if spec.bandwidth_mode == "aicc_exact":
            groups = [[s] for s in needs]
        else:
            sizes = sorted({len(s) for s in needs})
            groups = [[s for s in needs if len(s) == size] for size in sizes]
        columns: dict[Coalition, np.ndarray] = {}
        for group in groups:
            sigma = aicc_bandwidth(self.train, predictor, group, block, n_aicc=spec.n_aicc)
            columns.update(dict.fromkeys(group, sigma))
        return [{s: float(columns[s][i]) for s in needs} for i in range(len(block))]

    # -- v(S) --------------------------------------------------------------

    def build_plans(self, coalitions: Iterable[Coalition]) -> None:
        """Fill the plan tables for every proper coalition of ``coalitions``.

        Each part fills the table it conditions or whitens through: the
        Gaussian and empirical parts the training matrix's, the copula part
        its latent one.  Each table builds its missing plans in one
        :meth:`PlanTable.build` call; the independence part needs none.
        """
        m = self.train.m
        parts = [(s, self._part(s)) for s in coalitions if 0 < len(s) < m]
        self.train.plans.build(s for s, part in parts if part in ("gaussian", "empirical"))
        if self.copula is not None:
            self.copula.plans.build(s for s, part in parts if part == "copula")

    def instance_draws(self, x_star: np.ndarray, rng_seed) -> InstanceDraws:
        """The instance's :class:`InstanceDraws`, its stream seeded by ``rng_seed``."""
        latent = None if self.copula is None else self.copula.latent(x_star)
        return InstanceDraws(np.random.default_rng(rng_seed), latent)

    def contribution(
        self,
        predictor: Predictor,
        s: Iterable[int],
        x_star: np.ndarray,
        k: int,
        rng_seed,
        sigma: float | None = None,
        draws: InstanceDraws | None = None,
    ) -> float:
        """Estimate v(S) for a proper, non-empty S; ``sigma`` is needed where S is empirical.

        ``k`` is the one sample budget: the draws of the other parts, and
        the empirical part's cap on its top-K training rows.  The
        independence part draws training rows from ``rng_seed``.  The
        Gaussian and copula parts draw from ``draws``, the instance's
        :meth:`instance_draws`, made here from ``rng_seed`` when none are
        given.
        """
        s = tuple(sorted(s))
        x_star = np.asarray(x_star, float).reshape(-1)
        m = self.train.m
        if not 0 < len(s) < m:
            raise ValueError(f"v(S) is estimated for proper non-empty coalitions only, got {s}")
        part = self._part(s)
        if part == "independence":
            return estimate_v_independent(self.train, predictor, s, x_star, k, rng_seed)
        if part == "empirical":
            if sigma is None:
                raise ValueError(f"coalition {s} is estimated empirically and needs a bandwidth")
            return estimate_v_empirical(
                self.train,
                predictor,
                s,
                x_star,
                sigma=sigma,
                eta=self.spec.eta,
                k_cap=k,
            )
        if draws is None:
            draws = self.instance_draws(x_star, rng_seed)
        if part == "gaussian":
            mean, factor = gaussian_conditional(self.train, s, x_star)
            sample = sample_gaussian_conditional(mean, factor, k, draws.rng)
        else:
            sample = sample_copula_conditional(self.copula, s, draws.latent[list(s)], k, draws.rng)
        rows = np.empty((k, m))
        rows[:, [j for j in range(m) if j not in s]] = sample
        return _spliced_mean(predictor, s, x_star, rows)
