"""Slow references for the Gaussian conditioning plans in ``condshap.samplers``.

``reference_plan`` is the per-block formula the package used before it
built its plans in stacked passes: per coalition, it gathers Sigma_SS with
``np.ix_``, decides the ridge from that block's own ``np.linalg.cond`` (with
the same warning), factors and solves the block, and eigen-factors the
conditional covariance, clipping negative eigenvalues (with the same
warning).  The stacked builder must give its plans bit for bit.

``reference_conditional_moments`` is the formula the package used before its
plans held the regression matrix: per call, it gathers the blocks and solves
Sigma_SS against [Sigma_{S,Sbar}, x_s - mu_S] in one solve, then forms

    mu_cond = mu_sbar + Sigma_{sbar,s} Sigma_{ss}^{-1} (x_s - mu_s)
    Sigma_cond = Sigma_{sbar,sbar} - Sigma_{sbar,s} Sigma_{ss}^{-1} Sigma_{s,sbar}

The closed-form tests and criterion 6 take their conditional means from it.

``reference_whitened`` is the whitening the empirical and AICc distances
used before their plans held W = L^{-1}: per call, an LU solve of the
triangular Cholesky factor L against the differences.

``reference_gh_conditional`` is the generalized hyperbolic conditioning the
simulation lab used before it read the plans: per call, it gathers the
blocks, ridges Sigma_SS and solves it against
[Sigma_{S,Sbar}, x_s - mu_S, beta_S] in one solve.
"""

import warnings
from typing import Iterable

import numpy as np

from condshap.errors import DiagnosticWarning, InvalidCovarianceError
from condshap.samplers import RIDGE_COND, ConditioningPlan, _sorted_coalition
from condshap.simlab.distributions import GHParams


def reference_ridge(block: np.ndarray, context: str) -> float:
    """Diagonal ridge for a near-singular block (cond > RIDGE_COND), else 0.0."""
    if block.size == 0:
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


def reference_eigen_factor(sigma: np.ndarray) -> np.ndarray:
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


def reference_plan(
    cov: np.ndarray, s: tuple[int, ...], context: str = "gaussian conditional"
) -> ConditioningPlan:
    """The plan for the sorted coalition ``s``, built by itself."""
    cov = np.asarray(cov, float)
    sbar = np.array([j for j in range(cov.shape[0]) if j not in s], dtype=np.intp)
    s = np.array(s, dtype=np.intp)
    block = cov[np.ix_(s, s)]
    ridge = reference_ridge(block, context)
    if ridge:
        block = block + ridge * np.eye(len(s))
    try:
        chol = np.linalg.cholesky(block) if block.size else block
    except np.linalg.LinAlgError as exc:
        raise InvalidCovarianceError("covariance block factorization failed") from exc
    cross = cov[np.ix_(s, sbar)]
    coef = np.linalg.solve(block, cross)
    sigma = cov[np.ix_(sbar, sbar)] - cross.T @ coef
    sigma = 0.5 * (sigma + sigma.T)
    return ConditioningPlan(s, sbar, ridge, chol, coef, sigma, reference_eigen_factor(sigma))


def _ridged(block: np.ndarray, ridge: float) -> np.ndarray:
    return block + ridge * np.eye(block.shape[0]) if ridge else block


def _solve_blocks(
    mean: np.ndarray, cov: np.ndarray, s: np.ndarray, sbar: np.ndarray, ridge: float, x_s
) -> tuple[np.ndarray, np.ndarray]:
    """Sigma_{S,Sbar} and Sigma_SS^{-1} [Sigma_{S,Sbar}, x_s - mean_S] in one solve.

    ``s`` and ``sbar`` are index arrays; the blocks are gathered as
    ``np.ix_`` would, so they are C-ordered and every product that follows
    runs on the same operands whichever caller solves.
    """
    rows = s[:, None]
    cross = cov[rows, sbar]
    solved = np.linalg.solve(
        _ridged(cov[rows, s], ridge), np.column_stack([cross, x_s - mean[s]])
    )
    return cross, solved


def reference_conditional_moments(
    mean: np.ndarray,
    cov: np.ndarray,
    s: Iterable[int],
    x_s: np.ndarray,
    context: str = "gaussian conditional",
    *,
    ridge: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Block conditional moments of a Gaussian given coordinates ``s``.

    mu_cond = mu_sbar + Sigma_{sbar,s} Sigma_{ss}^{-1} (x_s - mu_s)
    Sigma_cond = Sigma_{sbar,sbar} - Sigma_{sbar,s} Sigma_{ss}^{-1} Sigma_{s,sbar}

    ``x_s`` lists the values of the features of ``s`` in the order ``s``
    gives them.  ``ridge`` is added to the diagonal of Sigma_ss; by default
    it is chosen here, with a warning naming ``context`` when the block is
    near-singular.
    """
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    m = mean.shape[0]
    s, x_s = _sorted_coalition(s, x_s)
    sbar = np.array([j for j in range(m) if j not in s], dtype=np.intp)
    s = np.array(s, dtype=np.intp)
    if not len(sbar):
        return np.empty(0), np.empty((0, 0))
    if not len(s):
        return mean[sbar], cov[np.ix_(sbar, sbar)]
    if ridge is None:
        ridge = reference_ridge(cov[np.ix_(s, s)], context)
    cross, solved = _solve_blocks(mean, cov, s, sbar, ridge, x_s)
    b, shift = solved[:, :-1], solved[:, -1]
    mu_cond = mean[sbar] + cross.T @ shift
    sigma_cond = cov[np.ix_(sbar, sbar)] - cross.T @ b
    sigma_cond = 0.5 * (sigma_cond + sigma_cond.T)
    return mu_cond, sigma_cond


def reference_whitened(chol: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """L^{-1} diff^T, one column per row of ``diff``, by ``np.linalg.solve``."""
    return np.linalg.solve(chol, diff.T)


def reference_gh_conditional(star: GHParams, s, x_s: np.ndarray) -> GHParams:
    """Conditional GH law of the complement features given x_s.

    The psi update is beta_1' Sigma_11^{-1} beta_1.
    """
    s, x_s = _sorted_coalition(s, x_s)
    d = star.dim
    sbar = tuple(j for j in range(d) if j not in s)
    if not s:
        return star
    s_idx, sbar_idx = list(s), list(sbar)
    sig11 = star.sigma[np.ix_(s_idx, s_idx)]
    sig11 = _ridged(sig11, reference_ridge(sig11, "gh conditional"))
    sig12 = star.sigma[np.ix_(s_idx, sbar_idx)]
    sig22 = star.sigma[np.ix_(sbar_idx, sbar_idx)]
    mu1, mu2 = star.mu[s_idx], star.mu[sbar_idx]
    beta1, beta2 = star.beta_skew[s_idx], star.beta_skew[sbar_idx]
    solved = np.linalg.solve(sig11, np.column_stack([sig12, (x_s - mu1), beta1]))
    b = solved[:, : len(sbar_idx)]
    shift = solved[:, len(sbar_idx)]
    beta_solved = solved[:, len(sbar_idx) + 1]
    lam_c = star.lam - len(s) / 2.0
    chi_c = star.chi + float((x_s - mu1) @ shift)
    psi_c = star.psi + float(beta1 @ beta_solved)
    mu_c = mu2 + sig12.T @ shift
    sigma_c = sig22 - sig12.T @ b
    sigma_c = 0.5 * (sigma_c + sigma_c.T)
    beta_c = beta2 - sig12.T @ beta_solved
    return GHParams(
        lam=lam_c, chi=chi_c, psi=psi_c, mu=mu_c, sigma=sigma_c, beta_skew=beta_c
    )
