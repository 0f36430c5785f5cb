"""Estimators of the contribution function v(S) = E[f(x) | x_S = x_S*].

Five strategies are provided: independence (the original kernel-weighted
approach), multivariate Gaussian conditioning, Gaussian copula with empirical
margins, an empirical conditional estimator driven by kernel weights on a
scaled Mahalanobis distance, and a combined scheme that uses the empirical
estimator for small conditioning sets and a parametric backend otherwise.

All estimators depend on the predictor only through the contract: a
deterministic vectorized map from an (n, m) float matrix to n reals.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
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
# A covariance block is ridged above RIDGE_COND; a whole matrix at or below
# WELL_CONDITIONED spares its blocks the check.
RIDGE_COND = 1e8
WELL_CONDITIONED = 1e7


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

    ``plans`` holds one :class:`ConditioningPlan` per coalition for the
    Gaussian on these moments, filled by the samplers on first use and
    shared by every sampler fitted to this matrix.
    """

    data: np.ndarray
    column_names: tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray
    plans: dict[Coalition, ConditioningPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        mean = data.mean(axis=0)
        if n > 1:
            cov = np.cov(data, rowvar=False, ddof=1).reshape(m, m)
        else:
            cov = np.zeros((m, m))
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
    def well_conditioned(self) -> bool:
        """Whether no block of the covariance needs a ridge (one check per matrix)."""
        return _well_conditioned(self.covariance)


# ---------------------------------------------------------------------------
# Gaussian conditioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianConditional:
    """Conditional law N(mu_cond, factor factor^T) of the complement block."""

    mu_cond: np.ndarray
    factor: np.ndarray


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


def _well_conditioned(matrix: np.ndarray) -> bool:
    """Whether cond(matrix) <= 1e7, so that no principal block needs a ridge.

    For a positive semi-definite matrix, Cauchy interlacing gives
    cond(Sigma_SS) <= cond(Sigma) for every principal block Sigma_SS; a
    bound ten times below the ridge threshold of :func:`_ridge` leaves room
    for rounding in either condition number.
    """
    cond = np.linalg.cond(matrix) if matrix.size else math.inf
    return bool(np.isfinite(cond) and cond <= WELL_CONDITIONED)


def _ridge(block: np.ndarray, context: str, well_conditioned: bool = False) -> float:
    """Diagonal ridge for a near-singular block (cond > 1e8), else 0.0.

    ``well_conditioned`` says that the matrix the block was taken from
    passed :func:`_well_conditioned`; the block's own check is then skipped.
    """
    if block.size == 0 or well_conditioned:
        return 0.0
    cond = np.linalg.cond(block)
    if np.isfinite(cond) and cond <= RIDGE_COND:
        return 0.0
    lam = max(1e-8 * float(np.trace(block)) / block.shape[0], 1e-12)
    warnings.warn(
        f"near-singular covariance block in {context} "
        f"(cond {cond:.3e}); ridge {lam:.3e} added",
        DiagnosticWarning,
        stacklevel=3,
    )
    return lam


def _ridged(block: np.ndarray, ridge: float) -> np.ndarray:
    return block + ridge * np.eye(block.shape[0]) if ridge else block


def _sorted_coalition(s: Iterable[int], x_s) -> tuple[Coalition, np.ndarray]:
    """``s`` in ascending order, with the values ``x_s`` of its features permuted to match."""
    s = tuple(s)
    x_s = np.asarray(x_s, float).reshape(-1)
    if x_s.shape[0] != len(s):
        raise ValueError("conditioning values do not match coalition size")
    order = sorted(range(len(s)), key=s.__getitem__)
    return tuple(s[i] for i in order), x_s[order]


@dataclass(frozen=True, slots=True)
class ConditioningPlan:
    """The part of conditioning a Gaussian on coalition S that x_S leaves alone.

    That is the indices of S and of its complement, the ridge added to
    Sigma_SS (0.0 when none), the regression matrix
    ``coef`` = (Sigma_SS + ridge I)^{-1} Sigma_{S,Sbar}, the conditional
    covariance ``sigma`` and its eigen-factor.  None of it depends on x_S or
    on the Gaussian's mean, so laws that share a covariance share its plans:
    the explainer's samplers and the simulation lab's Gaussian and mixture
    features condition through them alike.  Each instance only takes its
    conditional mean through :meth:`mean`.
    """

    s: np.ndarray
    sbar: np.ndarray
    ridge: float
    coef: np.ndarray
    sigma: np.ndarray
    factor: np.ndarray

    def mean(self, mean: np.ndarray, x_s: np.ndarray) -> np.ndarray:
        """E[x_sbar | x_S = x_s] = mean_Sbar + (x_s - mean_S) coef under N(mean, Sigma)."""
        return mean[self.sbar] + (x_s - mean[self.s]) @ self.coef


def conditional_moments(
    cov: np.ndarray,
    s: Coalition,
    context: str = "gaussian conditional",
    well_conditioned: bool = False,
) -> ConditioningPlan:
    """The plan for conditioning a Gaussian of covariance ``cov`` on the sorted coalition ``s``.

    coef = (Sigma_SS + ridge I)^{-1} Sigma_{S,Sbar}
    Sigma_cond = Sigma_{Sbar,Sbar} - Sigma_{Sbar,S} coef

    The ridge is chosen by :func:`_ridge`, with a warning naming ``context``
    when Sigma_SS is near-singular; ``well_conditioned`` says that ``cov``
    passed :func:`_well_conditioned`, which spares the block its check.
    """
    cov = np.asarray(cov, float)
    sbar = np.array([j for j in range(cov.shape[0]) if j not in s], dtype=np.intp)
    s = np.array(s, dtype=np.intp)
    block = cov[np.ix_(s, s)]
    ridge = _ridge(block, context, well_conditioned)
    cross = cov[np.ix_(s, sbar)]
    coef = np.linalg.solve(_ridged(block, ridge), cross)
    sigma = cov[np.ix_(sbar, sbar)] - cross.T @ coef
    sigma = 0.5 * (sigma + sigma.T)
    return ConditioningPlan(s, sbar, ridge, coef, sigma, _eigen_factor(sigma))


def _plan_for(
    plans: dict[Coalition, ConditioningPlan],
    cov: np.ndarray,
    s: Coalition,
    context: str,
    well_conditioned: bool,
) -> ConditioningPlan:
    """The plan in ``plans`` for the sorted coalition s, built on first use.

    :func:`conditional_moments` builds it, so it runs once per coalition of
    each ``plans`` table.
    """
    plan = plans.get(s)
    if plan is None:
        plan = plans[s] = conditional_moments(cov, s, context, well_conditioned)
    return plan


def _eigen_factor(sigma: np.ndarray) -> np.ndarray:
    """F with F F^T = sigma, negative eigenvalues clipped to zero."""
    try:
        vals, vecs = np.linalg.eigh(sigma)
    except np.linalg.LinAlgError as exc:
        raise InvalidCovarianceError(
            "conditional covariance factorization failed"
        ) from exc
    if not np.all(np.isfinite(vals)):
        raise InvalidCovarianceError("conditional covariance factorization failed")
    scale = max(1.0, float(vals[-1])) if vals.size else 1.0
    if vals.size and vals[0] < -1e-8 * scale:
        warnings.warn(
            f"conditional covariance clipped (min eigenvalue {vals[0]:.3e})",
            DiagnosticWarning,
            stacklevel=3,
        )
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)[None, :]


def gaussian_conditional(
    train: TrainingMatrix, s: Iterable[int], x_star: np.ndarray
) -> GaussianConditional:
    """Conditional law of the unknown features under a fitted Gaussian, by the plan for s."""
    plan = _plan_for(
        train.plans, train.checked_covariance, tuple(sorted(s)), "gaussian conditional",
        train.well_conditioned,
    )
    x_star = np.asarray(x_star, float).reshape(-1)
    return GaussianConditional(plan.mean(train.mean, x_star[plan.s]), plan.factor)


def sample_gaussian_conditional(
    cond: GaussianConditional, k: int, rng_seed
) -> np.ndarray:
    """Draw k rows from the conditional through its eigen-factor.

    ``rng_seed`` is anything ``np.random.default_rng`` takes; a generator is
    drawn from in place.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    z = np.random.default_rng(rng_seed).standard_normal((k, cond.mu_cond.shape[0]))
    return cond.mu_cond[None, :] + z @ cond.factor.T


# ---------------------------------------------------------------------------
# Independence estimator
# ---------------------------------------------------------------------------


def _splice(rows: np.ndarray, s: Coalition, x_star: np.ndarray) -> np.ndarray:
    out = np.array(rows, float, copy=True)
    if s:
        out[:, list(s)] = x_star[list(s)]
    return out


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
    synth = _splice(train.data[idx], s, x_star)
    return float(call_predictor(predictor, synth).mean())


def estimate_v_independent_full(
    train: TrainingMatrix, predictor: Predictor, s: Iterable[int], x_star: np.ndarray
) -> float:
    """Deterministic variant: average over every training row exactly once."""
    s = tuple(sorted(s))
    x_star = np.asarray(x_star, float).reshape(-1)
    synth = _splice(train.data, s, x_star)
    return float(call_predictor(predictor, synth).mean())


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
    ascending order.  ``plans`` holds one latent :class:`ConditioningPlan`
    per coalition, filled by :func:`sample_copula_conditional` on first use.
    """

    sorted_columns: np.ndarray
    latent_correlation: np.ndarray
    degenerate: tuple[int, ...] = ()
    plans: dict[Coalition, ConditioningPlan] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.sorted_columns.shape[1]

    @property
    def m(self) -> int:
        return self.sorted_columns.shape[0]

    @cached_property
    def well_conditioned(self) -> bool:
        """Whether no block of the latent correlation needs a ridge."""
        return _well_conditioned(self.latent_correlation)

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
        degenerate=tuple(degenerate),
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
    plan = _plan_for(
        state.plans, state.latent_correlation, s, "copula conditional", state.well_conditioned
    )
    cond = GaussianConditional(plan.mean(np.zeros(state.m), v_s), plan.factor)
    latent = sample_gaussian_conditional(cond, k, rng_seed)
    return state.quantiles(plan.sbar, _scipy("special").ndtr(latent))


# ---------------------------------------------------------------------------
# Empirical conditional estimator
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalWeights:
    """Scaled Mahalanobis distances and Gaussian kernel weights per row."""

    distances: np.ndarray
    weights: np.ndarray
    sigma: float

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


def _whiten(
    train: TrainingMatrix, s: Coalition, diff: np.ndarray, context: str
) -> np.ndarray:
    """L^{-1} diff^T for the Cholesky factor L of Sigma_SS: one column per row of diff."""
    block = train.covariance[np.ix_(s, s)]
    ridge = _ridge(block, context, train.well_conditioned)
    return np.linalg.solve(np.linalg.cholesky(_ridged(block, ridge)), diff.T)


def scaled_mahalanobis(
    train: TrainingMatrix, s: Iterable[int], x_star: np.ndarray
) -> np.ndarray:
    """sqrt((x_S* - x_S^i)^T Sigma_S^{-1} (x_S* - x_S^i) / |S|) per row."""
    s = tuple(sorted(s))
    if not s:
        raise ValueError("distance needs a non-empty conditioning set")
    x_star = np.asarray(x_star, float).reshape(-1)
    diff = train.data[:, list(s)] - x_star[list(s)][None, :]
    white = _whiten(train, s, diff, "empirical distance")
    d2 = np.sum(white ** 2, axis=0) / len(s)
    return np.sqrt(np.maximum(d2, 0.0))


def empirical_weights(
    train: TrainingMatrix, s: Iterable[int], x_star: np.ndarray, sigma: float
) -> EmpiricalWeights:
    """Gaussian kernel weights exp(-D^2 / (2 sigma^2)) over training rows."""
    if not sigma > 0:
        raise ValueError(f"bandwidth sigma must be positive, got {sigma}")
    d = scaled_mahalanobis(train, s, x_star)
    w = np.exp(-(d ** 2) / (2.0 * sigma ** 2))
    return EmpiricalWeights(distances=d, weights=w, sigma=float(sigma))


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
    w = ew.weights[top]
    synth = _splice(train.data[top], s, x_star)
    preds = call_predictor(predictor, synth)
    return float(np.dot(w, preds) / w.sum())


# ---------------------------------------------------------------------------
# AICc bandwidth selection
# ---------------------------------------------------------------------------


def _smooth(w: np.ndarray, phi_form: str = "corrected") -> tuple[float, float]:
    """Normalize the rows of kernel matrix ``w`` in place; return (tr(H), Phi(H)).

    ``w`` then holds the hat matrix H.  The trace is read off the kernel's
    diagonal before the rows are normalized.  A row that sums to zero gives
    (inf, inf) and leaves ``w`` as it was; Phi(H) is inf when the penalty
    denominator is not positive.
    """
    n = w.shape[0]
    row_sums = w.sum(axis=1)
    if np.any(row_sums <= 0.0):
        return math.inf, math.inf
    trace = float(np.sum(np.diag(w) / row_sums))
    np.divide(w, row_sums[:, None], out=w)
    if phi_form == "corrected":
        denom = 1.0 - (trace + 2.0) / n
    else:
        denom = 1.0 - (trace + 2.0) / 2.0
    if denom <= 0.0:
        return trace, math.inf
    return trace, (1.0 + trace / n) / denom


def aicc_components(
    weight_matrix: np.ndarray, responses: np.ndarray, phi_form: str = "corrected"
) -> tuple[float, float, float]:
    """(tau_sq, phi_h, trace) of the kernel smoother for one bandwidth.

    ``weight_matrix`` holds w(x^j, x^i) with rows indexed by i; the hat matrix
    normalizes each row.  ``phi_form`` selects the penalty denominator:
    "corrected" uses 1 - (tr(H)+2)/n, "printed" uses 1 - (tr(H)+2)/2.
    """
    if phi_form not in ("corrected", "printed"):
        raise ValueError(f"unknown phi_form {phi_form!r}")
    h = np.array(weight_matrix, float)
    trace, phi_h = _smooth(h, phi_form)
    if math.isinf(trace):
        return math.inf, math.inf, math.inf
    tau_sq = float(np.mean((responses - h @ responses) ** 2))
    return tau_sq, phi_h, trace


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
    white = _whiten(train, s, sub[:, cols], "aicc distance").T  # (n_sub, |s|)
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
        np.divide(h, 2.0 * sigma ** 2, out=h)
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
    s_or_size: Coalition | int,
    x_star: np.ndarray,
    sigma_grid: Sequence[float] = DEFAULT_AICC_GRID,
    n_aicc: int = DEFAULT_N_AICC,
) -> np.ndarray:
    """Grid minimizer of log(tau^2) + Phi(H) for the kernel smoother.

    Passing a coalition selects the per-coalition ("exact") criterion;
    passing an integer size sums the criteria over every coalition of that
    size and shares one bandwidth across them ("approx").  ``x_star`` is a
    block of instances (n, m), or one instance (m,) as a block of one; the
    result holds one bandwidth per row.  A block shares one predictor call
    and one set of hat matrices per coalition.
    """
    sigma_grid = list(sigma_grid)
    if not sigma_grid or any(s <= 0 for s in sigma_grid):
        raise ValueError("sigma_grid must be non-empty and positive")
    block = np.asarray(x_star, float).reshape(-1, train.m)
    if isinstance(s_or_size, (int, np.integer)):
        size = int(s_or_size)
        if not (0 < size < train.m):
            raise ValueError("coalition size must be proper")
        criteria = np.zeros((len(block), len(sigma_grid)))
        for s in combinations(range(train.m), size):
            criteria += _aicc_criterion_for_coalition(
                train, predictor, s, block, sigma_grid, n_aicc
            )
    else:
        s = tuple(sorted(s_or_size))
        if not (0 < len(s) < train.m):
            raise ValueError("coalition must be proper and non-empty")
        criteria = _aicc_criterion_for_coalition(
            train, predictor, s, block, sigma_grid, n_aicc
        )
    hopeless = ~np.isfinite(criteria).any(axis=1)
    if hopeless.any():
        x_bad = block[int(np.argmax(hopeless))]
        raise ValueError(
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
    k_cap: int = 5000
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
        if self.k_cap < 1:
            raise ValueError("k_cap must be >= 1")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
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
    :class:`ConditioningPlan` per coalition: data-space plans kept on the
    training matrix, latent plans kept on the copula state.  Plans are
    filled lazily, on a coalition's first use: a plan is a function of the
    training data and the coalition alone, so the order in which instances
    build the plans does not change any result.  Those parts draw from one
    :class:`InstanceDraws` per instance.  :meth:`contribution` estimates
    proper coalitions only (the endpoints are the explainer's), and
    :meth:`bandwidths` gives one table per instance row.
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
        AICc runs once per coalition (``aicc_exact``) or once per coalition
        size (``aicc_approx``), for the whole block at once.
        """
        spec = self.spec
        m = self.train.m
        block = np.asarray(x_star, float).reshape(-1, m)
        needs = [s for s in coalitions if 0 < len(s) < m and self._part(s) == "empirical"]
        if spec.bandwidth_mode == "fixed":
            return [{s: spec.sigma for s in needs} for _ in block]

        def aicc(target: Coalition | int) -> np.ndarray:
            return aicc_bandwidth(self.train, predictor, target, block, n_aicc=spec.n_aicc)

        if spec.bandwidth_mode == "aicc_exact":
            columns = {s: aicc(s) for s in needs}
        else:
            by_size = {size: aicc(size) for size in sorted({len(s) for s in needs})}
            columns = {s: by_size[len(s)] for s in needs}
        return [{s: float(sigma[i]) for s, sigma in columns.items()} for i in range(len(block))]

    # -- v(S) --------------------------------------------------------------

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

        The independence part draws training rows from ``rng_seed``.  The
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
                k_cap=min(self.spec.k_cap, k),
            )
        if draws is None:
            draws = self.instance_draws(x_star, rng_seed)
        if part == "gaussian":
            cond = gaussian_conditional(self.train, s, x_star)
            sample = sample_gaussian_conditional(cond, k, draws.rng)
        else:
            sample = sample_copula_conditional(self.copula, s, draws.latent[list(s)], k, draws.rng)
        synth = np.repeat(x_star[None, :], k, axis=0)
        synth[:, [j for j in range(m) if j not in s]] = sample
        return float(call_predictor(predictor, synth).mean())
