"""Slow reference for the Gaussian conditioning plans in ``condshap.samplers``.

``reference_conditional_moments`` is the formula the package used before its
plans held the regression matrix: per call, it gathers the blocks and solves
Sigma_SS against [Sigma_{S,Sbar}, x_s - mu_S] in one solve, then forms

    mu_cond = mu_sbar + Sigma_{sbar,s} Sigma_{ss}^{-1} (x_s - mu_s)
    Sigma_cond = Sigma_{sbar,sbar} - Sigma_{sbar,s} Sigma_{ss}^{-1} Sigma_{s,sbar}

The closed-form tests and criterion 6 take their conditional means from it.
"""

from typing import Iterable

import numpy as np

from condshap.samplers import _ridge, _ridged, _sorted_coalition


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
        ridge = _ridge(cov[np.ix_(s, s)], context)
    cross, solved = _solve_blocks(mean, cov, s, sbar, ridge, x_s)
    b, shift = solved[:, :-1], solved[:, -1]
    mu_cond = mean[sbar] + cross.T @ shift
    sigma_cond = cov[np.ix_(sbar, sbar)] - cross.T @ b
    sigma_cond = 0.5 * (sigma_cond + sigma_cond.T)
    return mu_cond, sigma_cond
