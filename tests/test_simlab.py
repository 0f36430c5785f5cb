"""Feature generators, sampling models, built-in predictors, and the runner."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from condshap.errors import (
    ConfigError,
    DegenerateReferenceError,
    DiagnosticWarning,
    QuadratureConvergenceError,
)
from condshap.samplers import SamplerSpec, TrainingMatrix, conditional_moments
from condshap.shell.cli import _exit_code
from condshap.simlab import (
    ExperimentConfig,
    FeatureFamily,
    GHFeatures,
    GHParams,
    MixtureFeatures,
    equicorrelated_cov,
    fit_ols,
    fit_stump_ensemble,
    fun1,
    fun2,
    fun3,
    gh_conditional,
    gh_params_10d,
    gig_mean,
    gig_moment,
    linear_sampling_model,
    mae,
    piecewise_sampling_model,
    run_experiment,
    sample_gig,
    skill_score,
)
from condshap import oracles, samplers
from condshap.coalitions import _ordered_subsets
from condshap.simlab import experiment
from condshap.simlab.distributions import GaussianFeatures, gig_variance
from condshap.coalitions import Explanation
from conditioning_reference import reference_conditional_moments, reference_gh_conditional


def training_set(law, n: int, seed) -> TrainingMatrix:
    """n draws of ``law`` from a generator seeded with ``seed``."""
    return TrainingMatrix.from_data(law.sample(n, np.random.default_rng(seed)))


class TestEquicorrelated:
    def test_matrix_shape(self):
        cov = equicorrelated_cov(3, 0.4)
        assert np.allclose(np.diag(cov), 1.0)
        assert cov[0, 1] == cov[1, 2] == 0.4

    def test_independent_sample_correlations(self):
        train = training_set(GaussianFeatures.equicorrelated(3, 0.0), 2000, 0)
        corr = np.corrcoef(train.data, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.05)

    def test_high_correlation_sample(self):
        train = training_set(GaussianFeatures.equicorrelated(3, 0.98), 2000, 1)
        corr = np.corrcoef(train.data, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(off > 0.9)

    def test_unit_variances(self):
        train = training_set(GaussianFeatures.equicorrelated(4, 0.3), 2000, 2)
        assert np.all(np.abs(train.data.var(axis=0) - 1.0) < 0.1)

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="positive-definite"):
            equicorrelated_cov(3, -0.6)
        with pytest.raises(ValueError):
            equicorrelated_cov(3, 1.0)


class TestGig:
    def test_mean_matches_bessel_formula(self):
        draws = sample_gig(1.0, 0.5, 0.5, 100_000, rng_seed=3)
        expected = gig_mean(1.0, 0.5, 0.5)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - expected) <= 4 * se
        assert expected == pytest.approx(4.56, abs=0.01)

    def test_inverse_gaussian_special_case(self):
        # lam = -1/2: K_{1/2} = K_{-1/2}, so E[W] = sqrt(chi/psi).
        lam, chi, psi = -0.5, 2.0, 3.0
        expected = math.sqrt(chi / psi)
        assert gig_mean(lam, chi, psi) == pytest.approx(expected, rel=1e-12)
        draws = sample_gig(lam, chi, psi, 100_000, rng_seed=4)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - expected) <= 4 * se

    def test_strictly_positive(self):
        draws = sample_gig(0.7, 1.0, 2.0, 50_000, rng_seed=5)
        assert np.all(draws > 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sample_gig(1.0, -1.0, 1.0, 10, 0)
        with pytest.raises(ValueError):
            gig_moment(1.0, 1.0, 0.0)


def _inline_gh_draw(star, n, rng):
    """The GH draw as it was written before it called ``sample_gig``: the
    GIG(lam, chi, psi) variable through ``geninvgauss`` with b = sqrt(chi psi),
    scaled by sqrt(chi / psi), then the Gaussian part from the same generator,
    through the Cholesky factor of Sigma."""
    from scipy.stats import geninvgauss

    omega = math.sqrt(star.chi * star.psi)
    v = geninvgauss.rvs(p=star.lam, b=omega, size=n, random_state=rng)
    w = math.sqrt(star.chi / star.psi) * v
    u = rng.standard_normal((n, star.dim)) @ np.linalg.cholesky(star.sigma).T
    return star.mu[None, :] + w[:, None] * star.beta_skew[None, :] + np.sqrt(w)[:, None] * u


class TestGH:
    def test_draws_equal_the_inline_gig_draw(self):
        """An unconditional and a conditional GH draw (chi != psi) keep their bytes."""
        params = _correlated_gh()
        expected = _inline_gh_draw(params, 500, np.random.default_rng(21))
        assert training_set(GHFeatures(params), 500, 21).data.tobytes() == expected.tobytes()
        s, x_s = (0,), np.array([0.4])
        star = gh_conditional(params, s, x_s)
        assert star.chi != star.psi
        expected = _inline_gh_draw(star, 500, np.random.default_rng(22))
        got = GHFeatures(params).conditional_sample(s, x_s, 500, np.random.default_rng(22))
        assert got.tobytes() == expected.tobytes()

    def test_symmetric_when_no_skew(self):
        params = GHParams(lam=1.0, chi=0.5, psi=0.5, mu=np.zeros(2), sigma=np.eye(2),
                          beta_skew=np.zeros(2))
        train = training_set(GHFeatures(params), 100_000, 6)
        skew = stats.skew(train.data, axis=0)
        assert np.all(np.abs(skew) < 0.05)

    def test_kappa_parameterization_centers_at_zero(self):
        params = GHParams.from_kappa(3, kappa=10.0)
        train = training_set(GHFeatures(params), 100_000, 7)
        se = train.data.std(axis=0, ddof=1) / math.sqrt(train.n)
        assert np.all(np.abs(train.data.mean(axis=0)) <= 4 * se)

    def test_skew_induces_positive_correlation(self):
        params = GHParams.from_kappa(3, kappa=10.0)
        train = training_set(GHFeatures(params), 100_000, 8)
        corr = np.corrcoef(train.data, rowvar=False)
        assert np.all(corr[~np.eye(3, dtype=bool)] > 0.2)

    def test_covariance_matches_mixture_moments(self):
        params = GHParams.from_kappa(2, kappa=4.0)
        n = 200_000
        train = training_set(GHFeatures(params), n, 9)
        ew = gig_mean(1.0, 0.5, 0.5)
        vw = gig_variance(1.0, 0.5, 0.5)
        target = ew * params.sigma + vw * np.outer(params.beta_skew, params.beta_skew)
        centered = train.data - train.data.mean(axis=0)
        for i in range(2):
            for j in range(2):
                prod = centered[:, i] * centered[:, j]
                se = prod.std(ddof=1) / math.sqrt(n)
                assert abs(train.covariance[i, j] - target[i, j]) <= 5 * se

    def test_ten_dim_parameter_block(self):
        p = gh_params_10d()
        assert p.mu == pytest.approx(3.0 * np.ones(10))
        assert np.diag(p.sigma) == pytest.approx([1, 2, 3, 1, 2, 3, 1, 2, 3, 3])
        assert p.beta_skew == pytest.approx([1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [
        {"chi": 0.0}, {"chi": -1.0}, {"psi": 0.0}, {"psi": -0.5}, {"lam": math.inf},
        {"lam": math.nan}, {"mu": np.zeros(2)}, {"beta_skew": np.zeros(4)},
        {"sigma": np.eye(2)},
    ], ids=lambda bad: "-".join(f"{k}={np.shape(v) or v}" for k, v in bad.items()))
    def test_rejects_invalid_parameters(self, bad):
        with pytest.raises(ValueError, match="GIG|dimensions"):
            replace(_correlated_gh(), **bad)


class TestGHConditional:
    def test_index_update(self):
        params = GHParams(lam=1.0, chi=0.5, psi=0.5, mu=np.zeros(2), sigma=np.eye(2),
                          beta_skew=np.zeros(2))
        cond = gh_conditional(params, (0,), np.array([0.3]))
        assert cond.lam == pytest.approx(0.5)

    def test_zero_displacement(self):
        params = GHParams(
            lam=1.0, chi=0.5, psi=0.5, mu=np.array([1.0, 2.0]), sigma=np.eye(2),
            beta_skew=np.zeros(2),
        )
        cond = gh_conditional(params, (0,), np.array([1.0]))
        assert cond.chi == pytest.approx(0.5)
        assert cond.mu == pytest.approx([2.0])

    def test_no_skew_matches_gaussian_conditional_mean(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) * 0.3
        sigma = a @ a.T + np.eye(3)
        mu = rng.standard_normal(3)
        params = GHParams(lam=1.0, chi=0.5, psi=0.5, mu=mu, sigma=sigma, beta_skew=np.zeros(3))
        x_s = np.array([0.4, -0.6])
        cond = gh_conditional(params, (0, 1), x_s)
        # beta = 0 so the conditional location equals the Gaussian formula.
        g_mu, g_sig = reference_conditional_moments(mu, sigma, (0, 1), x_s)
        assert cond.mu == pytest.approx(g_mu)
        assert cond.sigma == pytest.approx(g_sig)
        assert cond.mean() == pytest.approx(g_mu)

    def test_near_singular_block_is_ridged_with_a_warning(self):
        # cond(Sigma_SS) = 2e12 for S = (0, 2): the block gets the samplers'
        # ridge, 1e-8 times its mean diagonal, and says so.
        sigma = np.array([[1.0, 0.3, 1 - 1e-12], [0.3, 1.0, 0.3], [1 - 1e-12, 0.3, 1.0]])
        params = GHParams(lam=1.0, chi=0.5, psi=0.5, mu=np.zeros(3), sigma=sigma,
                          beta_skew=np.zeros(3))
        x_s = np.array([0.5, -0.5])
        with pytest.warns(DiagnosticWarning, match="gh conditional"):
            cond = gh_conditional(params, (0, 2), x_s)
        ridged = sigma[np.ix_([0, 2], [0, 2])] + 1e-8 * np.eye(2)
        expected = params.chi + x_s @ np.linalg.solve(ridged, x_s)
        assert cond.chi == pytest.approx(expected, rel=1e-6)  # 5e11 unridged

    def test_closed_under_conditioning(self):
        """Conditioning on x_1, then on x_5 (index 4 of the rest), is conditioning
        on (x_1, x_5) at once, on the ten-feature block with a non-diagonal Sigma."""
        base = gh_params_10d()
        scale = np.sqrt(np.diag(base.sigma))
        params = replace(base, sigma=(0.5 + 0.5 * np.eye(10)) * np.outer(scale, scale))
        x = np.linspace(2.0, 4.0, 10)
        twice = gh_conditional(gh_conditional(params, (1,), x[[1]]), (4,), x[[5]])
        once = gh_conditional(params, (1, 5), x[[1, 5]])
        assert twice.lam == once.lam
        for name in ("chi", "psi", "mu", "sigma", "beta_skew"):
            np.testing.assert_allclose(getattr(twice, name), getattr(once, name),
                                       rtol=0, atol=1e-13, err_msg=name)

    def test_conditional_sampler_matches_density_moments(self):
        # Sample moments track the Bessel-ratio moments of the conditional.
        params = GHParams.from_kappa(2, kappa=3.0)
        dist = GHFeatures(params)
        x_s = np.array([0.5])
        cond = gh_conditional(params, (0,), x_s)
        draws = dist.conditional_sample((0,), x_s, 200_000, np.random.default_rng(11))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - cond.mean()[0]) <= 5 * se


class TestGHConditionalMatchesReference:
    """``gh_conditional`` through a plan against the per-call formula of
    ``tests/conditioning_reference.py``, at every proper coalition of m=3.

    The plan whitens by the Cholesky factor L of Sigma_SS (chi and psi as
    |L^{-1} v|^2) and conditions mu and Sigma through its regression
    matrix; the reference solves Sigma_SS against [Sigma_{S,Sbar},
    x_s - mu_S, beta_S].  On these laws the two differ by at most 8.9e-16;
    1e-13 leaves a hundred times that.  In the ridged case Sigma_{(0,2)} has
    cond 2e12, and about 2e8 once ridged.  A vector with a component along
    the ridged direction is amplified by that much, and so is the rounding
    of either formula, so x_s - mu_S and beta_S lie along (1, 1) there: the
    ridge and its warning are exercised, and the bound still tells a formula
    error from rounding.
    """

    BOUND = 1e-13
    RIDGED = np.array([[1.0, 0.3, 1 - 1e-12], [0.3, 1.0, 0.3], [1 - 1e-12, 0.3, 1.0]])

    @pytest.mark.parametrize("case", ["plain", "ridged"])
    def test_every_coalition(self, case):
        if case == "plain":
            params, x = _correlated_gh(), np.array([0.4, -0.9, 1.3])
        else:
            params = GHParams(lam=1.0, chi=0.5, psi=0.5, mu=np.array([0.2, -0.1, 0.2]),
                              sigma=self.RIDGED, beta_skew=np.array([0.5, -0.25, 0.5]))
            x = np.array([0.7, -0.9, 0.7])
        assert np.count_nonzero(params.sigma - np.diag(np.diag(params.sigma))) == 6
        for s in [s for s in _ordered_subsets(3) if 0 < len(s) < 3]:
            x_s = x[list(s)]
            if case == "ridged" and s == (0, 2):
                with pytest.warns(DiagnosticWarning, match="gh conditional"):
                    got = gh_conditional(params, s, x_s)
                with pytest.warns(DiagnosticWarning, match="gh conditional"):
                    expected = reference_gh_conditional(params, s, x_s)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DiagnosticWarning)
                    got = gh_conditional(params, s, x_s)
                    expected = reference_gh_conditional(params, s, x_s)
            assert got.lam == expected.lam
            for name in ("chi", "psi", "mu", "sigma", "beta_skew"):
                np.testing.assert_allclose(getattr(got, name), getattr(expected, name),
                                           rtol=0, atol=self.BOUND, err_msg=f"{s} {name}")


def _reference_gh_logpdf(points, star):
    """The closed-form GH log density, with a fresh Cholesky and LU solves.

    The reference for the 48 Gaussian components of ``GHFeatures``.
    """
    from scipy.special import kve

    pts = np.atleast_2d(np.asarray(points, float))
    d = star.dim
    chol = np.linalg.cholesky(star.sigma)
    diff = pts - star.mu[None, :]
    white = np.linalg.solve(chol, diff.T)
    delta = np.sum(white ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    beta_white = np.linalg.solve(chol, star.beta_skew)
    q = float(beta_white @ beta_white)
    skew_term = diff @ np.linalg.solve(star.sigma, star.beta_skew)
    nu = star.lam - d / 2.0
    arg = np.sqrt((star.chi + delta) * (star.psi + q))
    log_k_nu = np.log(kve(nu, arg)) - arg
    omega = math.sqrt(star.chi * star.psi)
    log_k_lam = math.log(kve(star.lam, omega)) - omega
    return (
        (nu / 2.0) * (np.log(star.chi + delta) - math.log(star.psi + q))
        + (star.lam / 2.0) * (math.log(star.psi) - math.log(star.chi))
        + log_k_nu
        - (d / 2.0) * math.log(2.0 * math.pi)
        - 0.5 * logdet
        - log_k_lam
        + skew_term
    )


def _correlated_gh(m=3):
    """A skewed GH law with correlated Sigma, so conditionals are not diagonal."""
    scale = np.sqrt([1.0, 2.0, 0.5])[:m]
    return GHParams(
        lam=1.0,
        chi=0.5,
        psi=0.5,
        mu=np.array([0.2, -0.1, 0.3])[:m],
        sigma=equicorrelated_cov(m, 0.6) * np.outer(scale, scale),
        beta_skew=np.array([0.5, -0.25, 0.75])[:m],
    )


def _component_pdf(comp, points):
    """The density of N(center, factor factor^T) at ``points``, from a fresh
    Cholesky factor of that covariance and a triangular solve."""
    cov = comp.factor @ comp.factor.T
    chol = np.linalg.cholesky(cov)
    white = np.linalg.solve(chol, (np.atleast_2d(points) - comp.center[None, :]).T)
    d = comp.center.shape[0]
    log_norm = np.sum(np.log(np.diag(chol))) + 0.5 * d * math.log(2.0 * math.pi)
    return np.exp(-0.5 * np.sum(white * white, axis=0) - log_norm)


class TestGHMixture:
    """A GH law, conditional or not, as its 48 Gaussian components over W."""

    @pytest.mark.parametrize("s", [(0, 1), (2,), ()], ids=["d1", "d2", "d3"])
    def test_matches_the_closed_form_density(self, s):
        x_s = np.array([0.4, -0.9, 1.3])[list(s)]
        star = gh_conditional(_correlated_gh(), s, x_s)
        d = star.dim
        assert d == 3 - len(s)
        comps = GHFeatures(_correlated_gh()).conditional_components(s, x_s)
        assert len(comps) == 48
        rng = np.random.default_rng(33)
        points = star.mean() + 2.0 * rng.standard_normal((400, d))
        got = sum(comp.weight * _component_pdf(comp, points) for comp in comps)
        expected = np.exp(_reference_gh_logpdf(points, star))
        # Largest relative errors seen: 1.6e-9 (d1), 1.9e-12 (d2) and 2.5e-5 (d3,
        # the unconditional law, at a point where its density is 1e-6 of its peak).
        np.testing.assert_allclose(got, expected, rtol=1e-8 if s else 1e-4, atol=0)

    def test_one_dimensional_law_integrates_to_one(self):
        s, x_s = (0, 2), np.array([0.4, 1.3])
        comps = GHFeatures(_correlated_gh()).conditional_components(s, x_s)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        edges = np.linspace(-120.0, 120.0, 601)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        x = (half * nodes + 0.5 * (edges[1:] + edges[:-1])[:, None]).reshape(-1, 1)
        dens = sum(comp.weight * _component_pdf(comp, x) for comp in comps)
        total = float(np.sum((half * weights).reshape(-1) * dens))
        assert abs(total - 1.0) < 1e-8


class TestGHMixingWeights:
    """The 48 mixing weights must sum to 1 within 1e-6, or the law raises.

    At lam=20 (chi = psi = 0.5) they sum to 0.886: the GIG mass lies beyond
    the node range.  The experiments' laws (kappa up to 10), conditionals
    included, miss by at most about 2e-8, and lam=5 by about 2e-7.
    """

    @staticmethod
    def law(lam: float) -> GHFeatures:
        return GHFeatures(GHParams(lam=lam, chi=0.5, psi=0.5, mu=np.zeros(3),
                                   sigma=np.eye(3), beta_skew=np.ones(3)))

    def test_lost_mass_raises(self):
        dist = self.law(20.0)
        message = r"GIG\(lam=20, chi=0.5, psi=0.5\) sum to 0\.8858"
        with pytest.raises(QuadratureConvergenceError, match=message):
            dist.conditional_components((), np.empty(0))
        with pytest.raises(QuadratureConvergenceError, match=message):
            oracles.quadrature_mean_prediction(
                dist, lambda x: x.sum(axis=1), oracles.GridSpec(points_per_axis=8, refine=False))

    @pytest.mark.parametrize("make", [lambda: GHFeatures(GHParams.from_kappa(3, 10.0)),
                                      lambda: TestGHMixingWeights.law(5.0)],
                             ids=["kappa-10", "lam-5"])
    def test_kept_mass_passes(self, make):
        dist = make()
        x = dist.sample(3, np.random.default_rng(44))
        for s in _ordered_subsets(3):
            if len(s) == 3:
                continue
            for row in x:
                comps = dist.conditional_components(s, row[list(s)])
                assert abs(sum(comp.weight for comp in comps) - 1.0) <= 1e-6, s


class TestMixture:
    def test_zero_gamma_is_gaussian(self):
        train = training_set(MixtureFeatures.from_gamma(0.0), 5000, 12)
        stat, p = stats.kstest(
            train.data[:, 0], "norm", args=(0.0, train.data[:, 0].std())
        )
        assert p > 0.01

    def test_large_gamma_is_bimodal(self):
        train = training_set(MixtureFeatures.from_gamma(10.0), 20_000, 13)
        first = train.data[:, 0]
        assert not np.any((first > -5.0) & (first < 5.0))

    def test_sample_mean_near_zero(self):
        train = training_set(MixtureFeatures.from_gamma(3.0), 20_000, 14)
        assert np.all(np.abs(train.data.mean(axis=0)) < 0.05)

    @pytest.mark.parametrize("means, cov", [
        (np.zeros((3, 3)), np.eye(3)),
        (np.zeros(3), np.eye(3)),
        (np.zeros((2, 3)), np.eye(2)),
    ], ids=["three-means", "one-mean", "cov-2x2"])
    def test_shapes_must_agree(self, means, cov):
        with pytest.raises(ValueError, match="mixture"):
            MixtureFeatures(means=means, cov=cov)


@pytest.mark.parametrize("make", [
    lambda: GaussianFeatures.equicorrelated(3, 0.6),
    lambda: MixtureFeatures.from_gamma(1.5),
    lambda: GHFeatures(GHParams.from_kappa(3, kappa=2.0)),
], ids=["gaussian", "mixture", "gh"])
def test_a_draw_of_no_rows_raises_the_explainers_error(make):
    """Every lab draw is the explainer's Gaussian draw, which needs k >= 1."""
    dist = make()
    with pytest.raises(ValueError, match="k must be >= 1"):
        dist.sample(0, np.random.default_rng(0))
    if not isinstance(dist, MixtureFeatures):  # its empty masks draw nothing
        with pytest.raises(ValueError, match="k must be >= 1"):
            dist.conditional_sample((1,), np.array([0.3]), 0, np.random.default_rng(0))


def _reference_components(dist, s, x_s):
    """(weight, center, factor) per component, from a fresh ``conditional_moments``
    plan, a fresh factor of its conditional covariance and, for the mixture's
    posterior weights, a fresh whitening matrix of Sigma_SS."""
    from scipy.linalg.lapack import dtrtri

    if isinstance(dist, MixtureFeatures):
        means, cov, weights = dist.means, dist.cov, np.array([0.5, 0.5])
        if s:
            idx = list(s)
            whiten, _ = dtrtri(np.linalg.cholesky(cov[np.ix_(idx, idx)]), lower=1)
            white = (x_s[None, :] - means[:, idx]) @ whiten.T
            logs = np.log(weights) - 0.5 * np.sum(white * white, axis=1)
            weights = np.exp(logs - logs.max())
            weights = weights / weights.sum()
    else:
        means, cov, weights = [dist.mean], dist.cov, [1.0]
    (plan,) = conditional_moments(cov, [s])
    try:
        factor = np.linalg.cholesky(plan.sigma)
    except np.linalg.LinAlgError:
        factor = plan.factor
    return [(float(weight), plan.mean(mean, x_s), factor) for weight, mean in zip(weights, means)]


def _near_singular_gaussian():
    # Features 0 and 2 nearly collinear: every Sigma_SS holding both is ridged.
    cov = np.array([[1.0, 0.3, 1.0 - 1e-12], [0.3, 1.0, 0.3], [1.0 - 1e-12, 0.3, 1.0]])
    return GaussianFeatures(np.array([0.2, -0.1, 0.4]), cov)


class TestConditioningPlansMatchPerCallReference:
    """``conditional_components`` through the per-coalition plans equals the
    per-call reference bit for bit.

    Plans are built by the first instance that meets a coalition and reused
    by the next, in both instance orders.
    """

    X = np.array([[0.7, -1.2, 0.4], [-1.9, 0.8, 2.3]])
    DISTS = {
        "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
        "ridge": _near_singular_gaussian,
        "mixture": lambda: MixtureFeatures.from_gamma(1.5),
    }

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["forward", "reverse"])
    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_every_coalition_in_both_instance_orders(self, name, order):
        dist = self.DISTS[name]()
        coalitions = [s for s in _ordered_subsets(3) if len(s) < 3]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            for i in order:
                for s in coalitions:
                    x_s = self.X[i][list(s)]
                    got = dist.conditional_components(s, x_s)
                    expected = _reference_components(dist, s, x_s)
                    assert len(got) == len(expected)
                    for comp, (weight, mu, factor) in zip(got, expected):
                        assert comp.weight == weight
                        assert comp.center.tobytes() == mu.tobytes()
                        assert comp.factor.tobytes() == factor.tobytes()
                    if isinstance(dist, GaussianFeatures):
                        assert dist.conditional_mean(s, x_s).tobytes() == expected[0][1].tobytes()
        assert len(dist.plans) == len(coalitions)

    def test_ridge_warning_text_is_kept(self):
        s, x_s = (0, 2), self.X[0][[0, 2]]
        dist = _near_singular_gaussian()
        with pytest.warns(DiagnosticWarning) as planned:
            dist.conditional_components(s, x_s)
        with pytest.warns(DiagnosticWarning) as direct:
            conditional_moments(dist.cov, [s])
        assert [str(w.message) for w in planned] == [str(w.message) for w in direct]
        assert "ridge" in str(planned[0].message)


class TestPlansShared:
    """One ``conditional_moments`` call per coalition: later instances hit the
    plan, and the mixture's components share theirs."""

    X = TestConditioningPlansMatchPerCallReference.X
    DISTS = {
        "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
        "mixture": lambda: MixtureFeatures.from_gamma(1.5),
    }

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_one_plan_build_per_coalition(self, name, monkeypatch):
        built = []
        conditional_moments = samplers.conditional_moments

        def counting(cov, coalitions, *args, **kwargs):
            built.extend(map(tuple, coalitions))
            return conditional_moments(cov, coalitions, *args, **kwargs)

        monkeypatch.setattr(samplers, "conditional_moments", counting)
        dist = self.DISTS[name]()
        coalitions = [s for s in _ordered_subsets(3) if len(s) < 3]
        for x in self.X:
            for s in coalitions:
                dist.conditional_components(s, x[list(s)])
        assert len(coalitions) == 7
        assert built == coalitions

    def test_gh_one_plan_build_per_coalition(self, monkeypatch):
        built = []
        conditional_moments = samplers.conditional_moments

        def counting(cov, coalitions, *args, **kwargs):
            built.extend(map(tuple, coalitions))
            return conditional_moments(cov, coalitions, *args, **kwargs)

        monkeypatch.setattr(samplers, "conditional_moments", counting)
        dist = GHFeatures(_correlated_gh())
        coalitions = [s for s in _ordered_subsets(3) if 0 < len(s) < 3]
        for i, x in enumerate(self.X):
            for s in coalitions:
                dist.conditional_components(s, x[list(s)])
                dist.conditional_sample(s, x[list(s)], 10, np.random.default_rng(i))
        assert len(self.X) == 2
        assert built == coalitions

    @pytest.mark.parametrize("name", ["gaussian", "mixture", "gh"])
    def test_conditional_draws_factor_once_per_coalition(self, name, monkeypatch):
        """``conditional_sample`` factors each coalition's conditional covariance
        on its first draw only, and draws the bytes of a fresh distribution,
        which factors it anew."""
        make = {
            "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
            "mixture": lambda: MixtureFeatures.from_gamma(1.5),
            "gh": lambda: GHFeatures(_correlated_gh()),
        }[name]
        coalitions = [s for s in _ordered_subsets(3) if len(s) < 3]
        draws = {}
        for i, x in enumerate(self.X):
            for s in coalitions:
                rng = np.random.default_rng([i, *s])
                draws[i, s] = make().conditional_sample(s, x[list(s)], 20, rng).tobytes()
        factored = []
        cholesky = np.linalg.cholesky

        def counting_factors(a):
            factored.append(sys._getframe(1).f_code.co_name)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting_factors)
        dist = make()
        for i, x in enumerate(self.X):
            for s in coalitions:
                rng = np.random.default_rng([i, *s])
                assert dist.conditional_sample(s, x[list(s)], 20, rng).tobytes() == draws[i, s]
        assert factored.count("draw_factor") == len(coalitions)

    def test_mixture_posterior_weights_read_the_plan(self, monkeypatch):
        """The posterior weights whiten x_S by the plan's factor of Sigma_SS:
        only ``conditional_moments`` factors that block, and the plan the
        weights build serves ``conditional_components`` too."""
        built, factored = [], []
        conditional_moments = samplers.conditional_moments
        cholesky = np.linalg.cholesky

        def counting_plans(cov, coalitions, *args, **kwargs):
            built.extend(map(tuple, coalitions))
            return conditional_moments(cov, coalitions, *args, **kwargs)

        def counting_factors(a):
            factored.append(sys._getframe(1).f_code.co_name)
            return cholesky(a)

        monkeypatch.setattr(samplers, "conditional_moments", counting_plans)
        monkeypatch.setattr(np.linalg, "cholesky", counting_factors)
        dist = MixtureFeatures.from_gamma(1.5)
        coalitions = [s for s in _ordered_subsets(3) if 0 < len(s) < 3]
        first, second = self.X
        for s in coalitions:
            dist.posterior_weights(s, first[list(s)])
        assert built == coalitions
        assert factored == ["conditional_moments"] * len(coalitions)
        factored.clear()
        for s in coalitions:
            dist.posterior_weights(s, second[list(s)])
        assert factored == []
        for s in coalitions:
            dist.conditional_components(s, second[list(s)])
        assert built == coalitions
        # The conditional covariance's draw factor, once per coalition.
        assert factored == ["draw_factor"] * len(coalitions)


    def test_gh_components_factor_the_conditional_covariance_once(self, monkeypatch):
        """Over two instances, each coalition's conditional covariance is
        factored once, by its plan, and its Sigma_SS once, by the plan build."""
        factored = []
        cholesky = np.linalg.cholesky

        def counting_factors(a):
            factored.append(sys._getframe(1).f_code.co_name)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting_factors)
        dist = GHFeatures(_correlated_gh())
        coalitions = [s for s in _ordered_subsets(3) if 0 < len(s) < 3]
        for x in self.X:
            for s in coalitions:
                dist.conditional_components(s, x[list(s)])
        assert len(self.X) == 2
        assert sorted(factored) == ["conditional_moments"] * 6 + ["draw_factor"] * 6

    def test_mean_prediction_factors_once_for_both_components(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 7)
        dist = MixtureFeatures.from_gamma(1.0)
        value = oracles.quadrature_mean_prediction(
            dist, lambda X: 0.3 + X @ np.array([1.0, -0.5, 2.0]), oracles.GridSpec(20)
        )
        assert value == pytest.approx(0.3, abs=1e-9)
        # The two components share their covariance and its one factorization,
        # for both resolutions; the 20**3 and 40**3 grids go in 10,286 chunks
        # of at most 7 rows.
        assert calls == [(3, 3)]


# SHA-256 of lab_draw_bytes, computed on the tree before the quadrature
# components read the plans' draw factors (numpy 2.4, OpenBLAS).  Every draw
# reads the Cholesky factor of a plan's conditional covariance, or its
# eigen-factor where that Cholesky fails, so no byte may move.
LAB_DRAW_DIGESTS = {
    "gaussian": "46ecf85ebe2d74368a953531b88556c6ab6d96711c403c6c7d92cb42acc12022",
    "gaussian-ridged": "9639b2fbdd3457dfc5e45e30526130aea27dfaf6816762f97b5b2de3ac118ad8",
    "gaussian-clipped": "b0422a1867c9d4ed76b0dd567a3200f34d6c7f0c693b8f86bdd56b821f43d87a",
    "mixture": "4e049a05b9aa27f7701bb7d88089ddf6af4673996307dbd6ca41983a324a8a6d",
    "mixture-ridged": "3e7223a21ee3e26004e4be24d1e4dd0e421759b3603cc21758ee5abbf822d8ec",
    "gh": "1b208ea2b8ee1613f5a4eb62ccdee193863e751ca68f9cfeae0d122c1e4e691f",
}
# SHA-256 of lab_component_bytes (numpy 2.4, OpenBLAS).
LAB_COMPONENT_DIGESTS = {
    "gaussian": "3e393a3254c80494c353e9600e86d15ff7acd7bfa734c163a4de28cee8762ce0",
    "gaussian-ridged": "4c833843f2f09d5d9eecbc2dedeb4c351b0bc206288059fe10e4092e14dc72d4",
    "gaussian-clipped": "3c8fcb3cf57b8b4fd9c05367b230b3926adf481e46e7d01c519a358364c8a98d",
    "mixture": "7434273b44669d355714c6daee5066209ceb56a727832ccddff252690e2a105c",
    "mixture-ridged": "563292a4e983d24462824457bd3623f5d824c0d648ed180e2e9901edfa46a111",
    "gh": "f8973acfa5ec074b3dc46e51c8c5aaf45d6feb72b509f433726ee664c433e8d8",
}


def _lab_distribution(name: str):
    ridged = np.array([[1.0, 0.3, 1.0 - 1e-9], [0.3, 1.0, 0.3], [1.0 - 1e-9, 0.3, 1.0]])
    vals, vecs = np.linalg.eigh(_SIGMA3)
    clipped = (vecs * np.array([-1e-6, vals[1], vals[2]])) @ vecs.T
    return {
        "gaussian": lambda: GaussianFeatures(np.array([0.1, -0.2, 0.3]), _SIGMA3),
        "gaussian-ridged": lambda: GaussianFeatures(np.array([0.1, -0.2, 0.3]), ridged),
        "gaussian-clipped": lambda: GaussianFeatures(np.zeros(3), 0.5 * (clipped + clipped.T)),
        "mixture": lambda: MixtureFeatures.from_gamma(1.5),
        "mixture-ridged": lambda: replace(MixtureFeatures.from_gamma(1.0), cov=ridged),
        "gh": lambda: GHFeatures(_correlated_gh()),
    }[name]()


def _lab_conditions():
    """(s, x_s) at every coalition but the full one, for two instances."""
    return [(s, x[list(s)]) for x in TestPlansShared.X
            for s in _ordered_subsets(3) if len(s) < 3]


def lab_draw_bytes(name: str) -> bytes:
    """The unconditional draws of one lab distribution and, but for the GH
    law, its conditional draws at every condition of :func:`_lab_conditions`."""
    dist = _lab_distribution(name)
    rng = np.random.default_rng(51)
    chunks = [dist.sample(40, rng)]
    if name == "gh":
        chunks.append(dist.conditional_sample((), np.empty(0), 40, rng))
        chunks.append(training_set(GHFeatures(_correlated_gh()), 40, 53).data)
    else:
        chunks += [dist.conditional_sample(s, x_s, 20, rng) for s, x_s in _lab_conditions()]
    return b"".join(np.ascontiguousarray(chunk, float).tobytes() for chunk in chunks)


def lab_component_bytes(name: str) -> bytes:
    """The quadrature components (weight, center, factor) of one lab
    distribution, and the mixtures' posterior weights, at every condition of
    :func:`_lab_conditions`."""
    dist = _lab_distribution(name)
    chunks = []
    for s, x_s in _lab_conditions():
        for comp in dist.conditional_components(s, x_s):
            chunks += [[comp.weight], comp.center, comp.factor]
        if isinstance(dist, MixtureFeatures):
            chunks.append(dist.posterior_weights(s, x_s))
    return b"".join(np.ascontiguousarray(chunk, float).tobytes() for chunk in chunks)


@pytest.mark.parametrize("name", sorted(LAB_DRAW_DIGESTS))
def test_lab_draws_keep_their_digests(name):
    import hashlib

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DiagnosticWarning)
        digest = hashlib.sha256(lab_draw_bytes(name)).hexdigest()
    assert digest == LAB_DRAW_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LAB_COMPONENT_DIGESTS))
def test_lab_components_keep_their_digests(name):
    import hashlib

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DiagnosticWarning)
        digest = hashlib.sha256(lab_component_bytes(name)).hexdigest()
    assert digest == LAB_COMPONENT_DIGESTS[name]


_SIGMA3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


def _conditioning_entry_points():
    """name -> (s, x_s in the order of s, call returning a flat array)."""
    gaussian = GaussianFeatures(np.array([0.1, -0.2, 0.3]), _SIGMA3)
    mixture = MixtureFeatures.from_gamma(1.5)
    gh = GHFeatures(_correlated_gh())

    def components(dist):
        def call(s, x_s):
            comps = dist.conditional_components(s, x_s)
            return np.concatenate([np.r_[c.weight, c.center, c.factor.ravel()] for c in comps])

        return call

    def sample(dist):
        return lambda s, x_s: dist.conditional_sample(s, x_s, 8, np.random.default_rng(9))

    def gh_law(params):
        def call(s, x_s):
            star = gh_conditional(params, s, x_s)
            return np.r_[star.lam, star.chi, star.psi, star.mu, star.sigma.ravel(), star.beta_skew]

        return call

    plain = ((0, 2), [1.0, -1.0])
    # Features 0 and 2 of the mixture are exchangeable, so (0, 2) would hide a swap.
    skew = ((0, 1), [1.0, -1.0])
    return {
        "gaussian-mean": plain + (gaussian.conditional_mean,),
        "gaussian-components": plain + (components(gaussian),),
        "gaussian-sample": plain + (sample(gaussian),),
        "mixture-weights": skew + (mixture.posterior_weights,),
        "mixture-components": skew + (components(mixture),),
        "mixture-sample": skew + (sample(mixture),),
        "gh_conditional": ((1, 5), [1.0, -2.0], gh_law(gh_params_10d())),
        "gh-components": plain + (components(gh),),
        "gh-sample": plain + (sample(gh),),
    }


@pytest.mark.parametrize("name", sorted(_conditioning_entry_points()))
def test_unsorted_coalition_conditions_on_its_own_values(name):
    """(s, x_s) listed in any order is the same condition and gives the same bits."""
    s, x_s, call = _conditioning_entry_points()[name]
    reverse = call(s[::-1], x_s[::-1])
    assert call(s, x_s).tobytes() == reverse.tobytes()


class TestSamplingModels:
    def test_linear_10d_ignores_last_feature(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((500, 10))
        y1 = linear_sampling_model(x, rng_seed=1)
        permuted = x.copy()
        permuted[:, 9] = rng.permutation(permuted[:, 9])
        y2 = linear_sampling_model(permuted, rng_seed=1)
        assert np.array_equal(y1, y2)

    def test_noise_variance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((100_000, 3))
        y = linear_sampling_model(x, rng_seed=2)
        residual = y - x.sum(axis=1)
        assert residual.var() == pytest.approx(0.01, rel=0.1)

    def test_piecewise_value_count(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((20_000, 3)) * 2.0
        y = piecewise_sampling_model(x, rng_seed=3, noise_sd=0.0)
        assert len(np.unique(y)) <= 3 * 2 * 3

    def test_piecewise_10d_groups(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((100, 10))
        y = piecewise_sampling_model(x, rng_seed=4, noise_sd=0.0)
        expected = (
            sum(fun1(x[:, j]) for j in (0, 1, 2))
            + sum(fun2(x[:, j]) for j in (3, 4, 5))
            + sum(fun3(x[:, j]) for j in (6, 7, 8))
        )
        assert y == pytest.approx(expected)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="3 or 10"):
            linear_sampling_model(np.zeros((5, 4)), rng_seed=0)


class TestPredictors:
    def test_ols_recovers_noiseless_linear_target(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((200, 3))
        beta = np.array([1.5, -2.0, 0.7])
        y = 0.3 + x @ beta
        model = fit_ols(x, y)
        assert model.beta0 == pytest.approx(0.3, abs=1e-8)
        assert model.beta == pytest.approx(beta, abs=1e-8)

    def test_stump_ensemble_fits_piecewise_target(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2000, 3))
        y = piecewise_sampling_model(x, rng_seed=5)
        model = fit_stump_ensemble(x, y)
        mse = float(np.mean((y - model(x)) ** 2))
        assert mse <= 2 * 0.01

    def test_predictors_deterministic(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((500, 3))
        y = piecewise_sampling_model(x, rng_seed=6)
        model = fit_stump_ensemble(x, y)
        q = rng.standard_normal((100, 3))
        assert np.array_equal(model(q), model(q))

    def test_stump_ensemble_generalizes_on_step_function(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2000, 1)) * 2
        y = fun3(x[:, 0])
        model = fit_stump_ensemble(np.column_stack([x[:, 0], rng.standard_normal(2000)]), y)
        grid = np.column_stack([np.linspace(-3, 3, 50), np.zeros(50)])
        pred = model(grid)
        assert float(np.mean((pred - fun3(grid[:, 0])) ** 2)) < 0.05


class TestMetrics:
    @staticmethod
    def explanation(phi):
        phi = np.asarray(phi, float)
        return Explanation(phi0=0.0, phi=phi, prediction=float(phi.sum()))

    @staticmethod
    def truth(phi):
        phi = np.asarray(phi, float)
        return Explanation(phi0=0.0, phi=phi, prediction=float(phi.sum()))

    def test_perfect_method(self):
        est = [self.explanation([1.0, 2.0])] * 3
        ref = [self.truth([1.0, 2.0])] * 3
        assert mae(est, ref) == 0.0
        assert skill_score(0.0, 1.0) == 1.0

    def test_reference_method_has_zero_skill(self):
        assert skill_score(1.0, 1.0) == 0.0

    def test_half_error(self):
        assert skill_score(0.5, 1.0) == pytest.approx(0.5)

    def test_mae_direct(self):
        est = [self.explanation([1.0, 0.0]), self.explanation([0.0, 0.0])]
        ref = [self.truth([0.0, 0.0]), self.truth([2.0, 2.0])]
        assert mae(est, ref) == pytest.approx((1.0 + 0.0 + 2.0 + 2.0) / 4)

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReferenceError):
            skill_score(0.5, 0.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mae([self.explanation([1.0])], [])


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dimension=5)
        with pytest.raises(ConfigError):
            ExperimentConfig(batches=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(sampling_model="cubic")
        with pytest.raises(ConfigError):
            ExperimentConfig(estimators=())

    def test_gaussian_rho_range_depends_on_dimension(self):
        # -1/(m-1) < rho < 1: -0.2 is inside the range at m=3, outside at m=10.
        ExperimentConfig(dimension=3, features=FeatureFamily("gaussian", rho=-0.2))
        with pytest.raises(ConfigError, match="rho=-0.2 outside"):
            ExperimentConfig(dimension=10, features=FeatureFamily("gaussian", rho=-0.2))
        # Only the Gaussian family reads rho.
        ExperimentConfig(features=FeatureFamily("mixture", rho=1.5, gamma=1.0))

    def test_truth_method_by_dimension(self):
        assert ExperimentConfig(dimension=3).truth_method == "quadrature"
        assert (
            ExperimentConfig(
                dimension=10, features=FeatureFamily("gaussian", rho=0.1)
            ).truth_method
            == "monte_carlo"
        )


@pytest.fixture(scope="module")
def micro_config():
    return ExperimentConfig(
        dimension=3,
        features=FeatureFamily("gaussian", rho=0.5),
        sampling_model="linear",
        estimators=(
            SamplerSpec(kind="independence"),
            SamplerSpec(kind="gaussian"),
        ),
        n_train=400,
        n_test_per_batch=4,
        batches=2,
        k=200,
        seed=7,
        quadrature_points=32,
        name="micro",
    )


class TestRunExperiment:
    def test_report_reproducible(self, micro_config):
        a = run_experiment(micro_config)
        b = run_experiment(micro_config)
        assert a.to_json() == b.to_json()

    def test_skill_of_reference_is_zero(self, micro_config):
        report = run_experiment(micro_config)
        assert report.skill["original"] == 0.0

    def test_gaussian_beats_original_under_dependence(self, micro_config):
        report = run_experiment(micro_config)
        assert report.mae["gaussian"] < report.mae["original"]
        assert report.skill["gaussian"] > 0.0

    def test_csv_rows_long_format(self, micro_config):
        report = run_experiment(micro_config)
        rows = report.csv_rows()
        assert len(rows) == 2 * 2  # estimators x batches
        assert rows[0][0] == "micro"
        assert {r[2] for r in rows} == {"original", "gaussian"}

    def test_summary_table_mentions_all_estimators(self, micro_config):
        report = run_experiment(micro_config)
        table = report.summary_table()
        assert "original" in table and "gaussian" in table

    def test_truth_failure_names_the_instance(self, micro_config, monkeypatch):
        seen = []

        def oracle(dist, predictor, x_star, grid, v_empty=None):
            seen.append(x_star)
            if len(seen) == 3:
                raise QuadratureConvergenceError("quadrature not converged")
            return Explanation(phi0=0.0, phi=np.zeros(3), prediction=0.0)

        monkeypatch.setattr(experiment, "quadrature_mean_prediction", lambda *args: 0.0)
        monkeypatch.setattr(experiment, "true_shapley_quadrature", oracle)
        with pytest.raises(RuntimeError) as info:
            run_experiment(micro_config)
        assert len(seen) == 3
        assert str(info.value) == (
            f"experiment 'micro' failed in batch 0, instance 2 (x* = {seen[2].tolist()}): "
            "quadrature not converged"
        )
        assert _exit_code(info.value) == 2

    def test_scores_through_mae(self, micro_config, monkeypatch):
        """Each batch's error and each estimator's total are :func:`mae`'s."""
        calls = []

        def counting(estimated, truth):
            calls.append(len(estimated))
            return mae(estimated, truth)

        expected = run_experiment(micro_config).to_json()
        monkeypatch.setattr(experiment, "mae", counting)
        assert run_experiment(micro_config).to_json() == expected
        # 2 estimators: a call per batch of 4 instances, then one over all 8.
        assert sorted(calls) == [4, 4, 4, 4, 8, 8]

    def test_gh_features_through_the_runner(self):
        config = ExperimentConfig(
            dimension=3,
            features=FeatureFamily("gh", kappa=3.0),
            sampling_model="linear",
            estimators=(
                SamplerSpec(kind="independence"),
                SamplerSpec(kind="gaussian"),
            ),
            n_train=1000,
            n_test_per_batch=2,
            batches=1,
            k=300,
            seed=42,
            name="gh-micro",
        )
        report = run_experiment(config)
        # Skewed, heavy-tailed, correlated features: the dependence-aware
        # sampler must beat the independence baseline.
        assert report.mae["gaussian"] < report.mae["original"]
