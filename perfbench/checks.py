"""Reference values and output checks, computed apart from condshap.

Nothing here imports condshap.  For a linear model f(x) = b0 + beta.x and a
Gaussian feature law N(mean, cov), the contribution of coalition S is

    v(S) = b0 + beta_S.x*_S + beta_Sbar.(mean_Sbar + cov_Sbar,S cov_S,S^-1 (x*_S - mean_S))

and the Shapley values follow from the combinatorial formula
phi_j = sum_{S not containing j} |S|!(m-|S|-1)!/m! (v(S+j) - v(S)), which is
linear in v: phi = C v.  Every check returns a list of problems; an empty
list means the check passed.  The tolerances are derived in README.md.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np
from scipy.special import ndtri

Z = 5.0  # standard errors allowed on every Monte Carlo or sampling tolerance
EXACT_RTOL = 1e-9  # floating-point slack on identities the program promises exactly


def subsets(m: int) -> list[tuple[int, ...]]:
    return [s for size in range(m + 1) for s in combinations(range(m), size)]


def shapley_matrix(m: int) -> np.ndarray:
    """C with phi = C v over subsets(m): +w(|T|-1) if j in T, else -w(|T|)."""
    def w(size: int) -> float:
        return math.factorial(size) * math.factorial(m - size - 1) / math.factorial(m)

    out = np.zeros((m, 2 ** m))
    for col, s in enumerate(subsets(m)):
        for j in range(m):
            if j in s:
                out[j, col] = w(len(s) - 1)
            elif len(s) < m:
                out[j, col] = -w(len(s))
    return out


@functools.lru_cache(maxsize=None)
def _by_size(m: int):
    """Per coalition size: columns in subsets(m), members (c, s), complements (c, m-s)."""
    out, col = [], 0
    for size in range(m + 1):
        count = math.comb(m, size)
        members = np.array(list(combinations(range(m), size)), dtype=int).reshape(count, size)
        inside = np.zeros((count, m), dtype=bool)
        np.put_along_axis(inside, members, True, axis=1)
        comp = np.nonzero(~inside)[1].reshape(count, m - size)
        out.append((np.arange(col, col + count), members, comp))
        col += len(members)
    return out


def _gains(cov, weights, members, comp):
    """For each coalition S of one size: g_S = cov_SS^-1 cov_S,Sbar w_Sbar, the
    variance of w_Sbar.x_Sbar, and that variance given x_S."""
    w = weights[comp]
    total = np.einsum("cd,cde,ce->c", w, cov[comp[:, :, None], comp[:, None, :]], w)
    if members.shape[1] == 0:
        return np.zeros(members.shape), total, total
    cross = np.einsum("csd,cd->cs", cov[members[:, :, None], comp[:, None, :]], w)
    gain = np.linalg.solve(cov[members[:, :, None], members[:, None, :]], cross[..., None])[..., 0]
    return gain, total, total - np.einsum("cs,cs->c", cross, gain)


def linear_values(b0, beta, mean, cov, xs):
    """v(S) per instance (n, 2^m) under N(mean, cov), and the conditional
    variance of beta_Sbar.x_Sbar given x_S per coalition (2^m,)."""
    m = len(beta)
    xs = np.atleast_2d(xs)
    values = np.empty((len(xs), 2 ** m))
    resid = np.empty(2 ** m)
    for cols, members, comp in _by_size(m):
        gain, _, resid[cols] = _gains(cov, beta, members, comp)
        known = xs[:, members]
        values[:, cols] = (b0 + (beta[comp] * mean[comp]).sum(axis=-1)
                           + np.einsum("ncs,cs->nc", known, beta[members])
                           + np.einsum("ncs,cs->nc", known - mean[members], gain))
    return values, resid


def marginal_variance(beta, cov) -> np.ndarray:
    """Var(beta_Sbar.x_Sbar) per coalition, no conditioning (independence draws)."""
    out = np.empty(2 ** len(beta))
    for cols, members, comp in _by_size(len(beta)):
        out[cols] = _gains(cov, beta, members, comp)[1]
    return out


def mc_standard_error(m: int, variance: np.ndarray, k: int) -> np.ndarray:
    """Standard error of each phi_j when every proper coalition's v(S) is a
    mean of k independent draws of variance ``variance[S]`` and the streams
    of distinct coalitions are independent: sqrt(sum_S C_jS^2 var_S / k)."""
    proper = np.array([0 < len(s) < m for s in subsets(m)])
    return np.sqrt(shapley_matrix(m) ** 2 @ np.where(proper, variance, 0.0) / k)


# -- estimands of the dependence-aware samplers on one training set -----------


def copula_values(train, b0, beta, xs):
    """First-order estimand of the Gaussian-copula sampler for a linear f.

    Normal scores rank/(n+1) give the latent correlation R; x* enters as
    ndtri(F_n(x*)); the latent conditional mean R_Sbar,S R_S,S^-1 z*_S is
    mapped back through each margin's mean and standard deviation.
    """
    n, m = train.shape
    xs = np.atleast_2d(xs)
    ranks = np.argsort(np.argsort(train, axis=0, kind="stable"), axis=0) + 1
    corr = np.corrcoef(ndtri(ranks / (n + 1)), rowvar=False)
    ordered = np.sort(train, axis=0)
    z = np.column_stack([
        ndtri(np.clip(np.searchsorted(ordered[:, j], xs[:, j], side="right"), 1, n) / (n + 1))
        for j in range(m)
    ])
    loc, scale = train.mean(axis=0), train.std(axis=0, ddof=1)
    values = np.empty((len(xs), 2 ** m))
    for cols, members, comp in _by_size(m):
        gain = _gains(corr, scale * beta, members, comp)[0]
        values[:, cols] = (b0 + (beta[comp] * loc[comp]).sum(axis=-1)
                           + np.einsum("ncs,cs->nc", xs[:, members], beta[members])
                           + np.einsum("ncs,cs->nc", z[:, members], gain))
    return values


def kernel_values(train, b0, beta, xs, values, sigma=0.1, eta=0.9, k_max=1000, d_star=3):
    """Overwrite v(S) for 0 < |S| <= d_star with the empirical estimator's value.

    Rows are weighted by exp(-D^2 / (2 sigma^2)), D^2 the Mahalanobis distance
    on the training covariance of x_S divided by |S|; the smallest set of
    heaviest rows holding more than an eta share of the weight (at most k_max
    rows) is averaged with those weights.
    """
    m = train.shape[1]
    xs = np.atleast_2d(xs)
    cov = np.cov(train, rowvar=False)
    out = values.copy()
    for cols, members, comp in _by_size(m)[1:d_star + 1]:
        size = members.shape[1]
        chol = np.linalg.cholesky(cov[members[:, :, None], members[:, None, :]])
        white = np.linalg.solve(chol, np.transpose(train[:, members], (1, 2, 0)))
        centre = np.linalg.solve(chol, np.transpose(xs[:, members], (1, 2, 0)))
        d2 = ((white[:, :, :, None] - centre[:, :, None, :]) ** 2).sum(axis=1) / size
        weights = np.exp(-d2 / (2.0 * sigma ** 2))  # (coalitions, rows, instances)
        rest = np.einsum("ncd,cd->cn", train[:, comp], beta[comp])
        ranked = -np.sort(-weights, axis=1)
        total = ranked.sum(axis=1)
        share = np.cumsum(ranked, axis=1) / np.where(total > 0, total, 1.0)[:, None, :]
        keep = np.minimum(np.argmax(share > eta, axis=1) + 1, k_max)
        cutoff = np.take_along_axis(ranked, keep[:, None, :] - 1, axis=1)
        kept = np.where(weights >= cutoff, weights, 0.0)  # ties at the cutoff have measure 0
        mass = kept.sum(axis=1)
        weighted = np.einsum("cni,cn->ci", kept, rest) / np.where(mass > 0, mass, 1.0)
        average = np.where(mass > 0, weighted, rest.mean(axis=1)[:, None])
        out[:, cols] = (b0 + np.einsum("ncs,cs->nc", xs[:, members], beta[members]) + average.T)
    return out


def sampling_spread(estimand, training_sets, truth: np.ndarray):
    """Bias and standard deviation of a sampler's phi estimand over training
    sets drawn from the true law: the error that n_train alone causes."""
    phis = np.array([estimand(x) for x in training_sets])
    return phis.mean(axis=0) - truth, phis.std(axis=0, ddof=1)


# -- checks -----------------------------------------------------------------


def check_identity(label: str, got, want) -> list[str]:
    """Values the program must reproduce up to floating-point rounding."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    gap = np.abs(got - want)
    limit = EXACT_RTOL * np.maximum(1.0, np.abs(want))
    if gap.shape != limit.shape or np.any(gap > limit):
        return [f"{label}: max gap {float(np.max(gap)):.3e} exceeds {EXACT_RTOL:g} relative"]
    return []


def check_efficiency(label: str, phi0, phi, prediction, f_star, mean_prediction) -> list[str]:
    """phi0 + sum(phi) = f(x*) = prediction and phi0 = mean training prediction."""
    phi0, phi = np.asarray(phi0, float), np.atleast_2d(phi)
    return (check_identity(f"{label} efficiency", phi0 + phi.sum(axis=1), f_star)
            + check_identity(f"{label} prediction", prediction, f_star)
            + check_identity(f"{label} phi0", phi0, np.full(phi0.shape, mean_prediction)))


def check_within(label: str, phi, reference, tolerance) -> list[str]:
    """Every |phi - reference| within its own tolerance."""
    gap = np.abs(np.asarray(phi, float) - np.asarray(reference, float))
    bad = gap > np.asarray(tolerance, float)
    if np.any(bad):
        ratio = gap / np.asarray(tolerance, float)
        return [f"{label}: {int(bad.sum())} phi outside tolerance "
                f"(worst gap {float(gap[np.unravel_index(np.argmax(ratio), gap.shape)]):.4f}, "
                f"{float(ratio.max()):.2f} x tolerance)"]
    return []


def check_identical(label: str, first, again) -> list[str]:
    """Reruns with the same seed must agree bit for bit."""
    if not np.array_equal(np.asarray(first), np.asarray(again)):
        return [f"{label}: rerun differs from the first run"]
    return []


def check_groups(label: str, phi, group_phi, partition) -> list[str]:
    """Each group's value is the sum of its members' phi; ``partition`` lists
    member index tuples, ``group_phi`` maps group label -> value.  Groups are
    matched to member sets by value, so labels and order are free."""
    phi = np.asarray(phi, float)
    wanted = sorted(float(phi[list(g)].sum()) for g in partition)
    got = sorted(float(v) for v in group_phi.values())
    if len(got) != len(wanted):
        return [f"{label}: {len(got)} groups, expected {len(wanted)}"]
    return check_identity(f"{label} group sums", got, wanted)


def check_mae(label: str, phi, truth, independence, bound: float) -> list[str]:
    """MAE against the truth below ``bound`` and below the independence closed form's."""
    err = float(np.mean(np.abs(np.asarray(phi) - truth)))
    base = float(np.mean(np.abs(np.asarray(independence) - truth)))
    problems = []
    if not err < bound:
        problems.append(f"{label}: MAE {err:.4f} not below the bound {bound:.4f}")
    if not err < base:
        problems.append(f"{label}: MAE {err:.4f} not below independence's {base:.4f}")
    return problems


def check_report(label: str, report: dict, estimators, n_test: int) -> list[str]:
    """A serialized experiment report is complete and every MAE is finite and > 0."""
    problems = []
    if report.get("estimators") != list(estimators):
        problems.append(f"{label}: estimators {report.get('estimators')} != {list(estimators)}")
    for key in ("mae", "skill", "per_batch_mae"):
        if set(report.get(key, {})) != set(estimators):
            problems.append(f"{label}: {key} does not cover every estimator")
    if report.get("config", {}).get("n_test_per_batch") != n_test:
        problems.append(f"{label}: report config does not record n_test {n_test}")
    if report.get("truth", {}).get("method") != "quadrature":
        problems.append(f"{label}: truth method is not quadrature")
    for name, value in report.get("mae", {}).items():
        if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
            problems.append(f"{label}: MAE of {name} is {value!r}")
    return problems


def check_skill(label: str, report: dict, names) -> list[str]:
    """Each named estimator beats the independence baseline (skill > 0)."""
    return [f"{label}: skill of {name} is {report['skill'].get(name)!r}, not > 0"
            for name in names if not (report["skill"].get(name) or 0.0) > 0.0]
