"""Feature distributions for the simulation experiments.

Three families, each with exact conditional samplers and exact Gaussian
components of every conditional law, so the oracles can compute reference
Shapley values: equicorrelated Gaussian (:func:`equicorrelated_cov`),
generalized hyperbolic (a normal mean-variance mixture with a generalized
inverse Gaussian mixing variable), and an equal-weight two-component
Gaussian mixture, :class:`MixtureFeatures` (means, cov), whose experiments'
laws are :meth:`MixtureFeatures.from_gamma`.  Every GH law, conditionals
included, is one :class:`GHParams` (lam, chi, psi, mu, Sigma, beta); the
experiments' symmetric laws set chi = psi = omega.  A training set of any
law is ``TrainingMatrix.from_data(law.sample(n, rng))``.

Every quadrature component is Gaussian, a weight, a center c and a factor
F: the oracle integrates it over x_Sbar = c + F u, u standard normal.  A
GH law, conditional or not, is a normal variance-mean mixture over W,
integrated as 48 Gaussian components N(mu + w beta, w Sigma) at
Gauss-Legendre nodes in log w.

All three families condition as the explainer's samplers do, through one
:class:`~condshap.samplers.ConditioningPlan` per (covariance, coalition),
built by the first instance that meets it and kept in the law's
:class:`~condshap.samplers.PlanTable` of its covariance, ``plans``: none of
it depends on x_S or on the law's mean.  Each
instance takes each component's conditional mean from the plan's regression
matrix, with no solve.  The plan holds the two factors the lab reads, each
made on first use: W = L^{-1} of Sigma_SS whitens x_S for the mixture's
posterior weights and x_S - mu_S and beta_S for the GH law, and the draw
factor of the conditional covariance (its Cholesky factor, or its
eigen-factor where that fails) is the one factor both the draws and the
quadrature components read (the mixture's components share it; each GH
component scales it by sqrt(w)).
The unconditional samplers draw through the empty coalition's plan, whose
conditional covariance is the law's own.
Every Gaussian draw, the GH law's N(0, Sigma) part included, is the
explainer's :func:`~condshap.samplers.sample_gaussian_conditional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..coalitions import Coalition
from ..errors import InvalidCovarianceError, QuadratureConvergenceError
from ..oracles import QuadratureComponent, gauss_legendre
from ..samplers import PlanTable, _scipy, _sorted_coalition, sample_gaussian_conditional


# ---------------------------------------------------------------------------
# Gaussian with equicorrelated covariance
# ---------------------------------------------------------------------------


def equicorrelated_cov(m: int, rho: float) -> np.ndarray:
    """The m x m unit-variance covariance with common off-diagonal correlation rho.

    Raises ValueError unless rho lies in the positive-definite range
    (-1/(m-1), 1).
    """
    lo = -1.0 / (m - 1) if m > 1 else -1.0
    if not (lo < rho < 1.0):
        raise ValueError(f"rho={rho} outside the positive-definite range ({lo:.4f}, 1)")
    cov = np.full((m, m), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


@dataclass
class GaussianFeatures:
    """Multivariate Gaussian feature distribution with exact conditionals."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, float).reshape(-1)
        self.cov = np.asarray(self.cov, float)
        if self.cov.shape != (self.dim, self.dim):
            raise InvalidCovarianceError("covariance shape does not match mean")

    @classmethod
    def equicorrelated(cls, m: int, rho: float) -> "GaussianFeatures":
        return cls(mean=np.zeros(m), cov=equicorrelated_cov(m, rho))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def plans(self) -> PlanTable:
        return PlanTable(self.cov, "gaussian conditional")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_gaussian_conditional(self.mean, self.plans[()].draw_factor, n, rng)

    def conditional_mean(self, s: Coalition, x_s: np.ndarray) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        return self.plans[s].mean(self.mean, x_s)

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        plan = self.plans[s]
        return sample_gaussian_conditional(plan.mean(self.mean, x_s), plan.draw_factor, n, rng)

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list[QuadratureComponent]:
        s, x_s = _sorted_coalition(s, x_s)
        plan = self.plans[s]
        return [QuadratureComponent(1.0, plan.mean(self.mean, x_s), plan.draw_factor)]


# ---------------------------------------------------------------------------
# Generalized inverse Gaussian mixing variable
# ---------------------------------------------------------------------------


def _check_gig_params(lam: float, chi: float, psi: float) -> None:
    if not (chi > 0 and psi > 0):
        raise ValueError(
            f"GIG parameters need chi > 0 and psi > 0, got chi={chi}, psi={psi}"
        )
    if not np.isfinite(lam):
        raise ValueError("GIG index must be finite")


def gig_moment(lam: float, chi: float, psi: float, order: int = 1) -> float:
    """E[W^order] of GIG(lam, chi, psi) via Bessel-function ratios."""
    _check_gig_params(lam, chi, psi)
    omega = math.sqrt(chi * psi)
    kve = _scipy("special").kve
    ratio = kve(lam + order, omega) / kve(lam, omega)
    return float((chi / psi) ** (order / 2.0) * ratio)


def gig_mean(lam: float, chi: float, psi: float) -> float:
    return gig_moment(lam, chi, psi, 1)


def gig_variance(lam: float, chi: float, psi: float) -> float:
    m1 = gig_moment(lam, chi, psi, 1)
    return gig_moment(lam, chi, psi, 2) - m1 * m1


def sample_gig(lam: float, chi: float, psi: float, n: int, rng_seed) -> np.ndarray:
    """Draws from GIG(lam, chi, psi), strictly positive.

    Uses the two-parameter generalized inverse Gaussian sampler after the
    scale reduction W = sqrt(chi/psi) V with V ~ GIG(lam, w, w), w=sqrt(chi psi).
    """
    _check_gig_params(lam, chi, psi)
    from scipy.stats import geninvgauss

    rng = np.random.default_rng(rng_seed)
    omega = math.sqrt(chi * psi)
    v = geninvgauss.rvs(p=lam, b=omega, size=n, random_state=rng)
    return math.sqrt(chi / psi) * v


def gig_logpdf(w: np.ndarray, lam: float, chi: float, psi: float) -> np.ndarray:
    """Log density of GIG(lam, chi, psi) on w > 0."""
    _check_gig_params(lam, chi, psi)
    w = np.asarray(w, float)
    omega = math.sqrt(chi * psi)
    log_norm = (lam / 2.0) * (math.log(psi) - math.log(chi)) - math.log(
        2.0 * _scipy("special").kve(lam, omega)
    ) + omega
    out = np.full(w.shape, -np.inf)
    pos = w > 0
    out[pos] = (
        log_norm + (lam - 1.0) * np.log(w[pos]) - 0.5 * (chi / w[pos] + psi * w[pos])
    )
    return out


# ---------------------------------------------------------------------------
# Generalized hyperbolic distribution
# ---------------------------------------------------------------------------


@dataclass
class GHParams:
    """A GH law: X = mu + W beta_skew + sqrt(W) U, W ~ GIG(lam, chi, psi), U ~ N(0, sigma).

    The family is closed under conditioning (:func:`gh_conditional`).  The
    experiments' symmetric case W ~ GIG(lam, omega, omega) is chi = psi = omega.
    """

    lam: float
    chi: float
    psi: float
    mu: np.ndarray
    sigma: np.ndarray
    beta_skew: np.ndarray

    def __post_init__(self):
        _check_gig_params(self.lam, self.chi, self.psi)
        self.mu = np.asarray(self.mu, float).reshape(-1)
        self.beta_skew = np.asarray(self.beta_skew, float).reshape(-1)
        self.sigma = np.asarray(self.sigma, float)
        d = self.mu.shape[0]
        if self.sigma.shape != (d, d) or self.beta_skew.shape[0] != d:
            raise ValueError("GH parameter dimensions disagree")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def from_kappa(cls, m: int, kappa: float) -> "GHParams":
        """Skewness ladder used by the 3-D experiments: lam = 1, chi = psi = 0.5,
        beta = (kappa/4) 1, location shifted so the distribution has mean zero."""
        beta = (kappa / 4.0) * np.ones(m)
        return cls(
            lam=1.0,
            chi=0.5,
            psi=0.5,
            mu=-gig_mean(1.0, 0.5, 0.5) * beta,
            sigma=np.eye(m),
            beta_skew=beta,
        )

    def mean(self) -> np.ndarray:
        return self.mu + gig_mean(self.lam, self.chi, self.psi) * self.beta_skew


def gh_params_10d() -> GHParams:
    """The explicit ten-feature parameter block used by the moderate-dimension
    experiment with skewed, heavy-tailed features."""
    return GHParams(
        lam=1.0,
        chi=0.5,
        psi=0.5,
        mu=3.0 * np.ones(10),
        sigma=np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 3.0]),
        beta_skew=np.array([1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 0.5], float),
    )


def _sample_gh(
    params: GHParams, factor: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws of the GH law ``params``; ``factor`` is its Sigma's plan's draw factor."""
    w = sample_gig(params.lam, params.chi, params.psi, n, rng)
    u = sample_gaussian_conditional(np.zeros(params.dim), factor, n, rng)
    return params.mu[None, :] + w[:, None] * params.beta_skew[None, :] + np.sqrt(w)[:, None] * u


def gh_conditional(params: GHParams, s: Coalition, x_s: np.ndarray) -> GHParams:
    """Conditional GH law of the complement features given x_s, through a fresh plan."""
    return GHFeatures(params)._conditional(*_sorted_coalition(s, x_s))


def _gh_mixing_components(law: GHParams, factor: np.ndarray) -> list[QuadratureComponent]:
    """The GH law ``law`` as a mixture of Gaussians over its mixing variable.

    X | W=w is N(mu + w beta, w Sigma); the mixing density is discretized by
    48-node Gauss-Legendre in log w between the points where chi/(2w) and
    psi w/2 reach 25 + omega, omega = sqrt(chi psi): there its factor
    exp(-(chi/w + psi w)/2) is at most e^-25 of its value at w = sqrt(chi/psi).
    The cut follows the peak, so a conditional law whose x_S lies far out
    (a large chi) keeps its mass.  ``factor`` is the draw factor of Sigma,
    and node w's component reads it scaled by sqrt(w), so no component
    factors a matrix.  Weights that miss a sum of 1 by more than 1e-6 (a
    large lam puts mass beyond the cut) raise QuadratureConvergenceError.
    """
    reach = 2.0 * (25.0 + math.sqrt(law.chi * law.psi))
    lo = math.log(law.chi / reach)
    hi = math.log(reach / law.psi)
    nodes, weights = gauss_legendre(48)
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    glw = 0.5 * (hi - lo) * weights
    w = np.exp(t)
    mass = np.exp(gig_logpdf(w, law.lam, law.chi, law.psi)) * w * glw
    total = float(mass.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise QuadratureConvergenceError(
            f"GH mixing weights of GIG(lam={law.lam:g}, chi={law.chi:g}, psi={law.psi:g}) "
            f"sum to {total:.9g}, not 1: the 48-node rule misses its mass"
        )
    return [
        QuadratureComponent(float(pk), law.mu + wk * law.beta_skew, factor * math.sqrt(wk))
        for wk, pk in zip(w, mass)
    ]


@dataclass
class GHFeatures:
    """GH feature distribution exposing the oracle handle protocol; one plan per coalition."""

    params: GHParams

    @property
    def dim(self) -> int:
        return self.params.dim

    @cached_property
    def plans(self) -> PlanTable:
        return PlanTable(self.params.sigma, "gh conditional")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _sample_gh(self.params, self.plans[()].draw_factor, n, rng)

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        return _sample_gh(self._conditional(s, x_s), self.plans[s].draw_factor, n, rng)

    def _conditional(self, s: Coalition, x_s: np.ndarray) -> GHParams:
        """The GH law given x_S = x_s (s sorted, x_s in its order), through the plan for s.

        With W = L^{-1} the plan's whitening matrix of Sigma_SS: mu and Sigma
        condition as a Gaussian's do, beta_c = beta_Sbar - beta_S coef,
        chi_c = chi + |W (x_s - mu_S)|^2, psi_c = psi + |W beta_S|^2 and
        lam_c = lam - |S|/2.
        """
        p = self.params
        if not s:
            return p
        plan = self.plans[s]
        beta_s = p.beta_skew[plan.s]
        white = plan.whiten @ np.column_stack([x_s - p.mu[plan.s], beta_s])
        return GHParams(
            lam=p.lam - len(s) / 2.0,
            chi=p.chi + float(white[:, 0] @ white[:, 0]),
            psi=p.psi + float(white[:, 1] @ white[:, 1]),
            mu=plan.mean(p.mu, x_s),
            sigma=plan.sigma,
            beta_skew=p.beta_skew[plan.sbar] - beta_s @ plan.coef,
        )

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list[QuadratureComponent]:
        """The 48 Gaussian components of the GH law given x_S = x_s."""
        s, x_s = _sorted_coalition(s, x_s)
        return _gh_mixing_components(self._conditional(s, x_s), self.plans[s].draw_factor)


# ---------------------------------------------------------------------------
# Two-component Gaussian mixture
# ---------------------------------------------------------------------------


#: The two components' weights.  Every mixture law weighs its modes equally.
MIXTURE_WEIGHTS = (0.5, 0.5)


@dataclass
class MixtureFeatures:
    """Two-component Gaussian mixture, equal weights, one shared covariance,
    with posterior-weighted exact conditionals.

    The components share one covariance, so they share its plans and the
    plans' factors: W of Sigma_SS for the posterior weights, the draw factor
    of the conditional covariance for the components and the draws.
    """

    means: np.ndarray  # (2, m)
    cov: np.ndarray  # (m, m)

    def __post_init__(self):
        self.means = np.asarray(self.means, float)
        self.cov = np.asarray(self.cov, float)
        if self.means.ndim != 2 or self.means.shape[0] != 2:
            raise ValueError(f"mixture means must be (2, m), got shape {self.means.shape}")
        if self.cov.shape != (self.dim, self.dim):
            raise ValueError(f"mixture covariance must be (m, m), got shape {self.cov.shape}")

    @classmethod
    def from_gamma(cls, gamma: float, m: int = 3) -> "MixtureFeatures":
        """Mode-separation parameterization: mu1 = gamma*(1,-0.5,1), mu2 = -mu1,
        and a common equicorrelated covariance with rho = 0.2."""
        mu1 = gamma * np.resize(np.array([1.0, -0.5, 1.0]), m)
        return cls(means=np.stack([mu1, -mu1]), cov=equicorrelated_cov(m, 0.2))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def plans(self) -> PlanTable:
        return PlanTable(self.cov, "gaussian conditional")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.random(n) < MIXTURE_WEIGHTS[1]
        out = sample_gaussian_conditional(np.zeros(self.dim), self.plans[()].draw_factor, n, rng)
        out += np.where(comp[:, None], self.means[1][None, :], self.means[0][None, :])
        return out

    def posterior_weights(self, s: Coalition, x_s: np.ndarray) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        if not s:
            return np.asarray(MIXTURE_WEIGHTS, float)
        plan = self.plans[s]
        # The components share Sigma_SS, so its log-determinant cancels.
        white = (x_s[None, :] - self.means[:, plan.s]) @ plan.whiten.T
        logs = np.log(np.asarray(MIXTURE_WEIGHTS, float)) - 0.5 * np.sum(white * white, axis=1)
        logs -= logs.max()
        w = np.exp(logs)
        return w / w.sum()

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        post = self.posterior_weights(s, x_s)
        plan = self.plans[s]
        comp = rng.random(n) < post[1]
        out = np.empty((n, self.dim - len(s)))
        for mask, mean in zip((~comp, comp), self.means):
            if mask.any():
                out[mask] = sample_gaussian_conditional(
                    plan.mean(mean, x_s), plan.draw_factor, int(mask.sum()), rng
                )
        return out

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list[QuadratureComponent]:
        s, x_s = _sorted_coalition(s, x_s)
        plan = self.plans[s]
        return [
            QuadratureComponent(float(weight), plan.mean(mean, x_s), plan.draw_factor)
            for weight, mean in zip(self.posterior_weights(s, x_s), self.means)
        ]

