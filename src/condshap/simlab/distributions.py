"""Feature distributions for the simulation experiments.

Three families, each with exact conditional samplers and densities so the
oracles can compute reference Shapley values: equicorrelated Gaussian,
generalized hyperbolic (a normal mean-variance mixture with a generalized
inverse Gaussian mixing variable), and a two-component Gaussian mixture.

A component density is factored once, when its law is fixed:
:class:`GaussianDensity` and :class:`GHDensity` hold the whitening matrix
(the inverse Cholesky factor) and every constant, so evaluating one on a
block of points takes a few elementwise passes over the points.

The Gaussian and mixture families condition as the explainer's samplers
do, through one :class:`~condshap.samplers.ConditioningPlan` per
(covariance, coalition), built by the first instance that meets it: the
ridge decision for Sigma_SS, the regression matrix and the conditional
covariance depend neither on x_S nor on the law's mean.  The mixture's two
components share their covariance, so they share each plan, and the density
of the conditional covariance (and, for the posterior weights, of Sigma_SS)
is factored once per coalition for both.  Each instance then takes each
component's conditional mean from the plan's regression matrix, with no
solve.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..coalitions import Coalition
from ..errors import InvalidCovarianceError
from ..oracles import QuadratureComponent, gauss_legendre
from ..samplers import (
    ConditioningPlan,
    TrainingMatrix,
    _plan_for,
    _ridge,
    _ridged,
    _scipy,
    _sorted_coalition,
)


# ---------------------------------------------------------------------------
# Gaussian with equicorrelated covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquicorrelatedCov:
    """Unit-variance covariance with a common off-diagonal correlation."""

    m: int
    rho: float

    def __post_init__(self):
        lo = -1.0 / (self.m - 1) if self.m > 1 else -1.0
        if not (lo < self.rho < 1.0):
            raise ValueError(
                f"rho={self.rho} outside the positive-definite range ({lo:.4f}, 1)"
            )

    def matrix(self) -> np.ndarray:
        cov = np.full((self.m, self.m), self.rho)
        np.fill_diagonal(cov, 1.0)
        return cov


def _whitening(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """The inverse of the lower Cholesky factor of ``cov``, and log det(cov)."""
    chol = np.linalg.cholesky(cov)
    if not chol.size:
        return chol, 0.0
    # LAPACK's triangular inverse: the factor's diagonal is positive, so it
    # cannot fail, and the result is exactly lower triangular.
    whiten, _ = _scipy("linalg.lapack").dtrtri(chol, lower=1)
    return whiten, 2.0 * np.sum(np.log(np.diag(chol)))


def _centered(points: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(points - mean).T as a C-ordered (d, n) block.

    Transposing first makes every step run along the n points, not along the
    d <= 3 coordinates; the values are the same.
    """
    rows = np.ascontiguousarray(np.atleast_2d(np.asarray(points, float)).T)
    return rows - mean[:, None]


def _mahalanobis(whiten: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """|W diff|^2 for each column of the (d, n) block ``diff``.

    W is lower triangular.  Each whitened row is summed term by term, not by
    a BLAS product: a BLAS kernel may round one column differently depending
    on how many columns come with it, and a point's density must not depend
    on the chunk of the grid it arrives in.
    """
    total = np.zeros(diff.shape[1])
    for i, row in enumerate(whiten):
        white = row[0] * diff[0]
        for k in range(1, i + 1):
            white = white + row[k] * diff[k]
        total += white * white
    return total


@dataclass(frozen=True)
class GaussianDensity:
    """The N(mean, cov) density, factored once.

    ``whiten`` is the inverse Cholesky factor W, so W (x - mean) is standard
    normal; ``offset`` is d log(2 pi) + log det(cov), minus twice the log
    normaliser.
    """

    mean: np.ndarray
    whiten: np.ndarray
    offset: float

    @classmethod
    def from_moments(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianDensity":
        mean = np.asarray(mean, float).reshape(-1)
        whiten, logdet = _whitening(cov)
        return cls(mean, whiten, mean.shape[0] * math.log(2.0 * math.pi) + logdet)

    def logpdf(self, points: np.ndarray) -> np.ndarray:
        return -0.5 * (self.offset + _mahalanobis(self.whiten, _centered(points, self.mean)))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(points))


def _factored(
    densities: dict[Coalition, GaussianDensity], s: Coalition, cov: np.ndarray
) -> GaussianDensity:
    """The density of N(0, cov), factored on the first call for coalition s."""
    if s not in densities:
        densities[s] = GaussianDensity.from_moments(np.zeros(cov.shape[0]), cov)
    return densities[s]


def _conditional_means(
    plans: dict[Coalition, ConditioningPlan],
    means: Sequence[np.ndarray],
    cov: np.ndarray,
    s: Coalition,
    x_s: np.ndarray,
) -> tuple[ConditioningPlan, list[np.ndarray]]:
    """The plan for s and E[x_sbar | x_S = x_s] under N(mean, cov) for each of ``means``."""
    plan = _plan_for(plans, cov, s, "gaussian conditional", False)
    return plan, [plan.mean(mean, x_s) for mean in means]


def _conditional_components(
    plans: dict[Coalition, ConditioningPlan],
    densities: dict[Coalition, GaussianDensity],
    means: Sequence[np.ndarray],
    cov: np.ndarray,
    weights: Sequence[float],
    s: Coalition,
    x_s: np.ndarray,
) -> list[QuadratureComponent]:
    """One weighted component per law N(mean, cov) of ``means``, given x_S = x_s."""
    plan, centers = _conditional_means(plans, means, cov, s, x_s)
    density = _factored(densities, s, plan.sigma)
    sd = np.sqrt(np.clip(np.diag(plan.sigma), 1e-300, None))
    return [
        QuadratureComponent(
            weight=float(weight), center=center, sd=sd, density=replace(density, mean=center).pdf
        )
        for weight, center in zip(weights, centers)
    ]


def _sample_gaussian(
    mean: np.ndarray, cov: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    d = mean.shape[0]
    if d == 0:
        return np.empty((n, 0))
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]
    return mean[None, :] + rng.standard_normal((n, d)) @ factor.T


@dataclass
class GaussianFeatures:
    """Multivariate Gaussian feature distribution with exact conditionals."""

    mean: np.ndarray
    cov: np.ndarray
    _plans: dict[Coalition, ConditioningPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _densities: dict[Coalition, GaussianDensity] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.mean = np.asarray(self.mean, float).reshape(-1)
        self.cov = np.asarray(self.cov, float)
        if self.cov.shape != (self.dim, self.dim):
            raise InvalidCovarianceError("covariance shape does not match mean")

    @classmethod
    def equicorrelated(cls, m: int, rho: float) -> "GaussianFeatures":
        return cls(mean=np.zeros(m), cov=EquicorrelatedCov(m, rho).matrix())

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _sample_gaussian(self.mean, self.cov, n, rng)

    def conditional_mean(self, s: Coalition, x_s: np.ndarray) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        return _conditional_means(self._plans, [self.mean], self.cov, s, x_s)[1][0]

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        plan, (mean,) = _conditional_means(self._plans, [self.mean], self.cov, s, x_s)
        return _sample_gaussian(mean, plan.sigma, n, rng)

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list[QuadratureComponent]:
        s, x_s = _sorted_coalition(s, x_s)
        return _conditional_components(
            self._plans, self._densities, [self.mean], self.cov, [1.0], s, x_s
        )


def sample_equicorrelated_gaussian(
    m: int, rho: float, n: int, rng_seed
) -> TrainingMatrix:
    """n i.i.d. draws from N(0, Sigma(rho)) packaged as a training matrix."""
    dist = GaussianFeatures.equicorrelated(m, rho)
    data = dist.sample(n, np.random.default_rng(rng_seed))
    return TrainingMatrix.from_data(data)


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
    """Symmetric-concentration GH parameters: W ~ GIG(lam, omega, omega)."""

    lam: float
    omega: float
    mu: np.ndarray
    sigma: np.ndarray
    beta_skew: np.ndarray

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
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
        """Skewness ladder used by the 3-D experiments: lam = 1, omega = 0.5,
        beta = (kappa/4) 1, location shifted so the distribution has mean zero."""
        beta = (kappa / 4.0) * np.ones(m)
        return cls(
            lam=1.0,
            omega=0.5,
            mu=-gig_mean(1.0, 0.5, 0.5) * beta,
            sigma=np.eye(m),
            beta_skew=beta,
        )


def gh_params_10d() -> GHParams:
    """The explicit ten-feature parameter block used by the moderate-dimension
    experiment with skewed, heavy-tailed features."""
    return GHParams(
        lam=1.0,
        omega=0.5,
        mu=3.0 * np.ones(10),
        sigma=np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 3.0]),
        beta_skew=np.array([1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 0.5], float),
    )


@dataclass
class GHStarParams:
    """General (lam, chi, psi) parameterization, closed under conditioning."""

    lam: float
    chi: float
    psi: float
    mu: np.ndarray
    sigma: np.ndarray
    beta_skew: np.ndarray

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def mixing_moments(self) -> tuple[float, float]:
        return (
            gig_mean(self.lam, self.chi, self.psi),
            gig_variance(self.lam, self.chi, self.psi),
        )

    def mean(self) -> np.ndarray:
        return self.mu + self.mixing_moments()[0] * self.beta_skew

    def covariance(self) -> np.ndarray:
        ew, vw = self.mixing_moments()
        return ew * self.sigma + vw * np.outer(self.beta_skew, self.beta_skew)


def _as_star(params: GHParams) -> GHStarParams:
    return GHStarParams(
        lam=params.lam,
        chi=params.omega,
        psi=params.omega,
        mu=params.mu,
        sigma=params.sigma,
        beta_skew=params.beta_skew,
    )


def sample_gh(params: GHParams, n: int, rng_seed) -> TrainingMatrix:
    """Draws via the mixture representation X = mu + W beta + sqrt(W) U."""
    rng = np.random.default_rng(rng_seed)
    data = _sample_gh_star(_as_star(params), n, rng)
    return TrainingMatrix.from_data(data)


def _sample_gh_star(star: GHStarParams, n: int, rng: np.random.Generator) -> np.ndarray:
    w = sample_gig(star.lam, star.chi, star.psi, n, rng)
    u = _sample_gaussian(np.zeros(star.dim), star.sigma, n, rng)
    return star.mu[None, :] + w[:, None] * star.beta_skew[None, :] + np.sqrt(w)[:, None] * u


def gh_conditional(
    params: GHParams | GHStarParams,
    s: Coalition,
    x_s: np.ndarray,
    psi_form: str = "inverse",
) -> GHStarParams:
    """Conditional GH law of the complement features given x_s.

    ``psi_form`` selects the psi update: "inverse" (standard conditioning,
    beta_1' Sigma_11^{-1} beta_1; the default) or "printed" (no inverse).
    """
    if psi_form not in ("inverse", "printed"):
        raise ValueError(f"unknown psi_form {psi_form!r}")
    star = _as_star(params) if isinstance(params, GHParams) else params
    s, x_s = _sorted_coalition(s, x_s)
    d = star.dim
    sbar = tuple(j for j in range(d) if j not in s)
    if not s:
        return star
    s_idx, sbar_idx = list(s), list(sbar)
    sig11 = star.sigma[np.ix_(s_idx, s_idx)]
    sig11 = _ridged(sig11, _ridge(sig11, "gh conditional"))
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
    if psi_form == "inverse":
        psi_c = star.psi + float(beta1 @ beta_solved)
    else:
        psi_c = star.psi + float(beta1 @ sig11 @ beta1)
    mu_c = mu2 + sig12.T @ shift
    sigma_c = sig22 - sig12.T @ b
    sigma_c = 0.5 * (sigma_c + sigma_c.T)
    beta_c = beta2 - sig12.T @ beta_solved
    return GHStarParams(
        lam=lam_c, chi=chi_c, psi=psi_c, mu=mu_c, sigma=sigma_c, beta_skew=beta_c
    )


@dataclass(frozen=True)
class GHDensity:
    """The density of one (lam, chi, psi) GH law, factored once.

    Everything that does not depend on the points is computed when the law
    is fixed: the whitening matrix W (the inverse Cholesky factor of Sigma),
    q = beta' Sigma^{-1} beta, Sigma^{-1} beta, and the log normaliser with
    its log K_lam(omega).  Each evaluation then only whitens the points and
    evaluates K_nu at them.
    """

    star: GHStarParams
    whiten: np.ndarray
    q: float
    skew: np.ndarray  # Sigma^{-1} beta
    log_norm: float

    @classmethod
    def from_law(cls, star: GHStarParams) -> "GHDensity":
        whiten, logdet = _whitening(star.sigma)
        beta_white = whiten @ star.beta_skew
        omega = math.sqrt(star.chi * star.psi)
        log_k_lam = math.log(_scipy("special").kve(star.lam, omega)) - omega
        log_norm = (
            (star.lam / 2.0) * (math.log(star.psi) - math.log(star.chi))
            - (star.dim / 2.0) * math.log(2.0 * math.pi)
            - 0.5 * logdet
            - log_k_lam
        )
        return cls(star, whiten, float(beta_white @ beta_white), whiten.T @ beta_white, log_norm)

    def logpdf(self, points: np.ndarray) -> np.ndarray:
        star = self.star
        nu = star.lam - star.dim / 2.0
        diff = _centered(points, star.mu)
        delta = _mahalanobis(self.whiten, diff)
        arg = np.sqrt((star.chi + delta) * (star.psi + self.q))
        log_k_nu = np.log(_scipy("special").kve(nu, arg)) - arg
        return (
            (nu / 2.0) * (np.log(star.chi + delta) - math.log(star.psi + self.q))
            + log_k_nu
            + self.log_norm
            + np.sum(self.skew[:, None] * diff, axis=0)
        )

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(points))


@dataclass
class GHFeatures:
    """GH feature distribution exposing the oracle handle protocol."""

    params: GHParams

    @property
    def dim(self) -> int:
        return self.params.dim

    def star(self) -> GHStarParams:
        return _as_star(self.params)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _sample_gh_star(self.star(), n, rng)

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        return _sample_gh_star(gh_conditional(self.params, s, x_s), n, rng)

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list[QuadratureComponent]:
        if not s:
            # The unconditional law integrates poorly as one tensor grid (a
            # skewed ridge along the mixing direction); decompose it into
            # Gaussians over mixing-variable quadrature nodes instead.
            return _gh_mixing_components(self.star())
        cond = gh_conditional(self.params, s, x_s)
        center = cond.mean()
        sd = np.sqrt(np.clip(np.diag(cond.covariance()), 1e-300, None))
        lo, hi = _gh_quadrature_box(cond, center, sd)
        return [
            QuadratureComponent(
                weight=1.0,
                center=center,
                sd=sd,
                density=GHDensity.from_law(cond).pdf,
                lo=lo,
                hi=hi,
            )
        ]


# ---------------------------------------------------------------------------
# Two-component Gaussian mixture
# ---------------------------------------------------------------------------


def _gh_mixing_components(star: GHStarParams) -> list[QuadratureComponent]:
    """Gaussian-mixture decomposition of a GH law over its mixing variable.

    X | W=w is N(mu + w beta, w Sigma); the mixing density is discretized by
    48-node Gauss-Legendre in log w between the points where its left/right
    exponential tails reach 25.  The weights sum to 1 up to the (tiny)
    truncation error, which the refinement check would surface.
    """
    lo = math.log(star.chi / 50.0)
    hi = math.log(50.0 / star.psi)
    nodes, weights = gauss_legendre(48)
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    glw = 0.5 * (hi - lo) * weights
    w = np.exp(t)
    mass = np.exp(gig_logpdf(w, star.lam, star.chi, star.psi)) * w * glw
    comps = []
    for wk, pk in zip(w, mass):
        mean = star.mu + wk * star.beta_skew
        cov = wk * star.sigma
        sd = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
        comps.append(
            QuadratureComponent(
                weight=float(pk),
                center=mean,
                sd=sd,
                density=GaussianDensity.from_moments(mean, cov).pdf,
            )
        )
    return comps


def _gh_quadrature_box(
    star: GHStarParams, center: np.ndarray, sd: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Asymmetric integration bounds covering the semi-heavy GH tails.

    The marginal of coordinate i decays like exp(-a |z|) with
    a = sqrt((psi + beta_i^2/S_ii)/S_ii) -/+ beta_i/S_ii on the right/left;
    the box extends to where that exponent reaches 20 (relative mass
    ~ 2e-9), and never less than eight sds.
    """
    s_diag = np.clip(np.diag(star.sigma), 1e-12, None)
    beta = star.beta_skew
    root = np.sqrt((star.psi + beta**2 / s_diag) / s_diag)
    a_right = np.clip(root - beta / s_diag, 1e-9, None)
    a_left = np.clip(root + beta / s_diag, 1e-9, None)
    mu = star.mu
    hi = np.maximum(center + 8.0 * sd, mu + 20.0 / a_right)
    lo = np.minimum(center - 8.0 * sd, mu - 20.0 / a_left)
    return lo, hi


@dataclass
class MixtureParams:
    """Equal-weight two-component Gaussian mixture with opposite means."""

    gamma: float
    means: np.ndarray  # (2, m)
    cov: np.ndarray
    weights: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        self.means = np.asarray(self.means, float)
        self.cov = np.asarray(self.cov, float)
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")

    @classmethod
    def from_gamma(cls, gamma: float, m: int = 3) -> "MixtureParams":
        """Mode-separation parameterization: mu1 = gamma*(1,-0.5,1), mu2 = -mu1,
        and a common equicorrelated covariance with rho = 0.2."""
        pattern = np.resize(np.array([1.0, -0.5, 1.0]), m)
        mu1 = gamma * pattern
        return cls(
            gamma=gamma,
            means=np.stack([mu1, -mu1]),
            cov=EquicorrelatedCov(m, 0.2).matrix(),
        )

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class MixtureFeatures:
    """Gaussian mixture with posterior-weighted exact conditionals.

    The components share one covariance, so they share its plans and the
    factored densities of the conditional covariance and of Sigma_SS.
    """

    params: MixtureParams
    _plans: dict[Coalition, ConditioningPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _densities: dict[Coalition, GaussianDensity] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _marginals: dict[Coalition, GaussianDensity] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return self.params.dim

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        p = self.params
        comp = rng.random(n) < p.weights[1]
        out = _sample_gaussian(np.zeros(self.dim), p.cov, n, rng)
        out += np.where(comp[:, None], p.means[1][None, :], p.means[0][None, :])
        return out

    def posterior_weights(self, s: Coalition, x_s: np.ndarray) -> np.ndarray:
        p = self.params
        s, x_s = _sorted_coalition(s, x_s)
        if not s:
            return np.asarray(p.weights, float)
        idx = list(s)
        marginal = _factored(self._marginals, s, p.cov[np.ix_(idx, idx)])
        x_s = x_s.reshape(1, -1)
        logs = np.array([
            math.log(weight) + replace(marginal, mean=mean[idx]).logpdf(x_s)[0]
            for weight, mean in zip(p.weights, p.means)
        ])
        logs -= logs.max()
        w = np.exp(logs)
        return w / w.sum()

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        s, x_s = _sorted_coalition(s, x_s)
        post = self.posterior_weights(s, x_s)
        plan, means = _conditional_means(self._plans, self.params.means, self.params.cov, s, x_s)
        comp = rng.random(n) < post[1]
        out = np.empty((n, self.dim - len(s)))
        for k in range(2):
            mask = comp == bool(k)
            if not np.any(mask):
                continue
            out[mask] = _sample_gaussian(means[k], plan.sigma, int(mask.sum()), rng)
        return out

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list[QuadratureComponent]:
        s, x_s = _sorted_coalition(s, x_s)
        p = self.params
        return _conditional_components(
            self._plans, self._densities, p.means, p.cov, self.posterior_weights(s, x_s), s, x_s
        )


def sample_mixture(params: MixtureParams, n: int, rng_seed) -> TrainingMatrix:
    data = MixtureFeatures(params).sample(n, np.random.default_rng(rng_seed))
    return TrainingMatrix.from_data(data)
