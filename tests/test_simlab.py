"""Feature generators, sampling models, built-in predictors, and the runner."""

import math
import warnings

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
    EquicorrelatedCov,
    ExperimentConfig,
    FeatureFamily,
    GHFeatures,
    GHParams,
    MixtureFeatures,
    MixtureParams,
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
    sample_equicorrelated_gaussian,
    sample_gh,
    sample_gig,
    sample_mixture,
    skill_score,
)
from condshap import oracles, samplers
from condshap.coalitions import _ordered_subsets
from condshap.simlab import distributions, experiment
from condshap.simlab.distributions import (
    GaussianDensity,
    GaussianFeatures,
    GHDensity,
    gig_variance,
)
from condshap.oracles import TrueShapleyResult
from condshap.coalitions import Explanation
from conditioning_reference import reference_conditional_moments


class TestEquicorrelated:
    def test_matrix_shape(self):
        cov = EquicorrelatedCov(3, 0.4).matrix()
        assert np.allclose(np.diag(cov), 1.0)
        assert cov[0, 1] == cov[1, 2] == 0.4

    def test_independent_sample_correlations(self):
        train = sample_equicorrelated_gaussian(3, 0.0, 2000, rng_seed=0)
        corr = np.corrcoef(train.data, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.05)

    def test_high_correlation_sample(self):
        train = sample_equicorrelated_gaussian(3, 0.98, 2000, rng_seed=1)
        corr = np.corrcoef(train.data, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(off > 0.9)

    def test_unit_variances(self):
        train = sample_equicorrelated_gaussian(4, 0.3, 2000, rng_seed=2)
        assert np.all(np.abs(train.data.var(axis=0) - 1.0) < 0.1)

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="positive-definite"):
            EquicorrelatedCov(3, -0.6)
        with pytest.raises(ValueError):
            EquicorrelatedCov(3, 1.0)


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
    scaled by sqrt(chi / psi), then the Gaussian part from the same generator."""
    from scipy.stats import geninvgauss

    omega = math.sqrt(star.chi * star.psi)
    v = geninvgauss.rvs(p=star.lam, b=omega, size=n, random_state=rng)
    w = math.sqrt(star.chi / star.psi) * v
    u = distributions._sample_gaussian(np.zeros(star.dim), star.sigma, n, rng)
    return star.mu[None, :] + w[:, None] * star.beta_skew[None, :] + np.sqrt(w)[:, None] * u


class TestGH:
    def test_draws_equal_the_inline_gig_draw(self):
        """``sample_gh`` and a conditional GH draw (chi != psi) keep their bytes."""
        params = _correlated_gh()
        expected = _inline_gh_draw(GHFeatures(params).star(), 500, np.random.default_rng(21))
        assert sample_gh(params, 500, rng_seed=21).data.tobytes() == expected.tobytes()
        s, x_s = (0,), np.array([0.4])
        star = gh_conditional(params, s, x_s)
        assert star.chi != star.psi
        expected = _inline_gh_draw(star, 500, np.random.default_rng(22))
        got = GHFeatures(params).conditional_sample(s, x_s, 500, np.random.default_rng(22))
        assert got.tobytes() == expected.tobytes()

    def test_symmetric_when_no_skew(self):
        params = GHParams(lam=1.0, omega=0.5, mu=np.zeros(2), sigma=np.eye(2), beta_skew=np.zeros(2))
        train = sample_gh(params, 100_000, rng_seed=6)
        skew = stats.skew(train.data, axis=0)
        assert np.all(np.abs(skew) < 0.05)

    def test_kappa_parameterization_centers_at_zero(self):
        params = GHParams.from_kappa(3, kappa=10.0)
        train = sample_gh(params, 100_000, rng_seed=7)
        se = train.data.std(axis=0, ddof=1) / math.sqrt(train.n)
        assert np.all(np.abs(train.data.mean(axis=0)) <= 4 * se)

    def test_skew_induces_positive_correlation(self):
        params = GHParams.from_kappa(3, kappa=10.0)
        train = sample_gh(params, 100_000, rng_seed=8)
        corr = np.corrcoef(train.data, rowvar=False)
        assert np.all(corr[~np.eye(3, dtype=bool)] > 0.2)

    def test_covariance_matches_mixture_moments(self):
        params = GHParams.from_kappa(2, kappa=4.0)
        n = 200_000
        train = sample_gh(params, n, rng_seed=9)
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


class TestGHConditional:
    def test_index_update(self):
        params = GHParams(lam=1.0, omega=0.5, mu=np.zeros(2), sigma=np.eye(2), beta_skew=np.zeros(2))
        cond = gh_conditional(params, (0,), np.array([0.3]))
        assert cond.lam == pytest.approx(0.5)

    def test_zero_displacement(self):
        params = GHParams(
            lam=1.0, omega=0.5, mu=np.array([1.0, 2.0]), sigma=np.eye(2), beta_skew=np.zeros(2)
        )
        cond = gh_conditional(params, (0,), np.array([1.0]))
        assert cond.chi == pytest.approx(0.5)
        assert cond.mu == pytest.approx([2.0])

    def test_no_skew_matches_gaussian_conditional_mean(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) * 0.3
        sigma = a @ a.T + np.eye(3)
        mu = rng.standard_normal(3)
        params = GHParams(lam=1.0, omega=0.5, mu=mu, sigma=sigma, beta_skew=np.zeros(3))
        x_s = np.array([0.4, -0.6])
        cond = gh_conditional(params, (0, 1), x_s)
        # beta = 0 so the conditional location equals the Gaussian formula.
        g_mu, g_sig = reference_conditional_moments(mu, sigma, (0, 1), x_s)
        assert cond.mu == pytest.approx(g_mu)
        assert cond.sigma == pytest.approx(g_sig)
        assert cond.mean() == pytest.approx(g_mu)

    def test_psi_forms_differ(self):
        params = GHParams(
            lam=1.0,
            omega=0.5,
            mu=np.zeros(2),
            sigma=np.array([[2.0, 0.3], [0.3, 1.0]]),
            beta_skew=np.array([1.0, 0.5]),
        )
        inv = gh_conditional(params, (0,), np.array([0.5]), psi_form="inverse")
        printed = gh_conditional(params, (0,), np.array([0.5]), psi_form="printed")
        assert inv.psi == pytest.approx(0.5 + 1.0 / 2.0)
        assert printed.psi == pytest.approx(0.5 + 2.0)
        assert inv.psi != printed.psi

    def test_near_singular_block_is_ridged_with_a_warning(self):
        # cond(Sigma_SS) = 2e12 for S = (0, 2): the block gets the samplers'
        # ridge, 1e-8 times its mean diagonal, and says so.
        sigma = np.array([[1.0, 0.3, 1 - 1e-12], [0.3, 1.0, 0.3], [1 - 1e-12, 0.3, 1.0]])
        params = GHParams(lam=1.0, omega=0.5, mu=np.zeros(3), sigma=sigma, beta_skew=np.zeros(3))
        x_s = np.array([0.5, -0.5])
        with pytest.warns(DiagnosticWarning, match="gh conditional"):
            cond = gh_conditional(params, (0, 2), x_s)
        ridged = sigma[np.ix_([0, 2], [0, 2])] + 1e-8 * np.eye(2)
        expected = params.omega + x_s @ np.linalg.solve(ridged, x_s)
        assert cond.chi == pytest.approx(expected, rel=1e-6)  # 5e11 unridged

    def test_conditional_sampler_matches_density_moments(self):
        # Sample moments track the Bessel-ratio moments of the conditional.
        params = GHParams.from_kappa(2, kappa=3.0)
        dist = GHFeatures(params)
        x_s = np.array([0.5])
        cond = gh_conditional(params, (0,), x_s)
        draws = dist.conditional_sample((0,), x_s, 200_000, np.random.default_rng(11))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - cond.mean()[0]) <= 5 * se


def _reference_gh_logpdf(points, star):
    """The per-call GH log density: a fresh Cholesky and LU solves each call.

    The slow reference for ``GHDensity``, which factors a law once.
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
        omega=0.5,
        mu=np.array([0.2, -0.1, 0.3])[:m],
        sigma=EquicorrelatedCov(m, 0.6).matrix() * np.outer(scale, scale),
        beta_skew=np.array([0.5, -0.25, 0.75])[:m],
    )


def _gaussian_laws():
    """(mean, cov) pairs for d = 1, 2, 3, and a rho = 0.95 conditional law."""
    rng = np.random.default_rng(31)
    laws = {}
    for d in (1, 2, 3):
        a = rng.standard_normal((d, d))
        laws[f"d{d}"] = (rng.standard_normal(d), a @ a.T + 0.3 * np.eye(d))
    cov95 = EquicorrelatedCov(4, 0.95).matrix()
    laws["rho95-conditional"] = reference_conditional_moments(
        np.zeros(4), cov95, (1,), np.array([0.8])
    )
    return laws


def _density_grid(d, per_axis):
    """A tensor grid of points in C order, the layout the oracle walks."""
    axis = np.linspace(-3.0, 3.0, per_axis)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.column_stack([g.reshape(-1) for g in mesh])


class TestGaussianDensity:
    @pytest.mark.parametrize("law", ["d1", "d2", "d3", "rho95-conditional"])
    def test_matches_scipy(self, law):
        mean, cov = _gaussian_laws()[law]
        d = mean.shape[0]
        rng = np.random.default_rng(32)
        points = mean + rng.standard_normal((500, d)) @ np.linalg.cholesky(cov).T * 2.0
        got = GaussianDensity.from_moments(mean, cov).logpdf(points)
        expected = stats.multivariate_normal(mean, cov).logpdf(points).reshape(-1)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_whiten_is_the_inverse_cholesky_factor(self):
        _, cov = _gaussian_laws()["d3"]
        dens = GaussianDensity.from_moments(np.zeros(3), cov)
        assert np.allclose(dens.whiten @ np.linalg.cholesky(cov), np.eye(3), atol=1e-14)
        assert np.all(np.triu(dens.whiten, 1) == 0.0)


def _densities():
    mean, cov = _gaussian_laws()["rho95-conditional"]
    star = gh_conditional(_correlated_gh(), (0,), np.array([0.4]))
    return {
        "gaussian": GaussianDensity.from_moments(mean, cov),
        "gh": GHDensity.from_law(GHFeatures(_correlated_gh()).star()),
        "gh-conditional": GHDensity.from_law(star),
    }


class TestDensitySlices:
    """A density gives the same bits on a block of points whatever the block."""

    @pytest.mark.parametrize("name", ["gaussian", "gh", "gh-conditional"])
    def test_grid_slices_and_rows(self, name):
        dens = _densities()[name]
        points = _density_grid(dens.whiten.shape[0], 20)
        whole = dens.logpdf(points)
        for size in (1000, 7):
            for start in range(0, len(points), size):
                part = dens.logpdf(points[start : start + size])
                assert np.array_equal(part, whole[start : start + size])
        for row in range(0, len(points), 97):
            assert np.array_equal(dens.logpdf(points[row]), whole[row : row + 1])
            assert np.array_equal(dens.logpdf(points[row : row + 1]), whole[row : row + 1])

    def test_mean_prediction_factors_once_for_both_components(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 7)
        dist = MixtureFeatures(MixtureParams.from_gamma(1.0))
        value = oracles.quadrature_mean_prediction(
            dist, lambda X: 0.3 + X @ np.array([1.0, -0.5, 2.0]), oracles.GridSpec(20)
        )
        assert value == pytest.approx(0.3, abs=1e-9)
        # The two components share their covariance and its one factorization,
        # for both resolutions; the 20**3 and 40**3 grids go in 10,286 chunks
        # of at most 7 rows.
        assert calls == [(3, 3)]


class TestGHDensity:
    @pytest.mark.parametrize("s", [(0, 1), (2,), ()], ids=["d1", "d2", "d3"])
    def test_matches_per_call_reference(self, s):
        x_s = np.array([0.4, -0.9, 1.3])[list(s)]
        star = gh_conditional(_correlated_gh(), s, x_s)
        d = star.dim
        assert d == 3 - len(s)
        rng = np.random.default_rng(33)
        points = star.mean() + 2.0 * rng.standard_normal((400, d))
        got = GHDensity.from_law(star).logpdf(points)
        np.testing.assert_allclose(got, _reference_gh_logpdf(points, star), rtol=1e-12, atol=0)

    def test_one_dimensional_law_integrates_to_one(self):
        star = gh_conditional(_correlated_gh(), (0, 2), np.array([0.4, 1.3]))
        assert star.dim == 1
        dens = GHDensity.from_law(star)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        edges = np.linspace(-120.0, 120.0, 601)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
            total += float(np.sum(0.5 * (b - a) * weights * dens.pdf(x[:, None])))
        assert abs(total - 1.0) < 1e-8


class TestMixture:
    def test_zero_gamma_is_gaussian(self):
        train = sample_mixture(MixtureParams.from_gamma(0.0), 5000, rng_seed=12)
        stat, p = stats.kstest(
            train.data[:, 0], "norm", args=(0.0, train.data[:, 0].std())
        )
        assert p > 0.01

    def test_large_gamma_is_bimodal(self):
        train = sample_mixture(MixtureParams.from_gamma(10.0), 20_000, rng_seed=13)
        first = train.data[:, 0]
        assert not np.any((first > -5.0) & (first < 5.0))

    def test_sample_mean_near_zero(self):
        train = sample_mixture(MixtureParams.from_gamma(3.0), 20_000, rng_seed=14)
        assert np.all(np.abs(train.data.mean(axis=0)) < 0.05)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureParams(gamma=1.0, means=np.zeros((2, 3)), cov=np.eye(3), weights=(0.6, 0.6))


def _reference_components(dist, s, x_s):
    """(weight, mean, sd, density) per component, from a fresh
    ``conditional_moments`` plan and ``GaussianDensity.from_moments`` per call."""
    if isinstance(dist, MixtureFeatures):
        p = dist.params
        means, cov, weights = p.means, p.cov, np.asarray(p.weights, float)
        if s:
            idx = list(s)
            logs = np.array([
                math.log(w)
                + GaussianDensity.from_moments(mean[idx], cov[np.ix_(idx, idx)]).logpdf(
                    x_s.reshape(1, -1))[0]
                for w, mean in zip(p.weights, means)
            ])
            logs -= logs.max()
            weights = np.exp(logs)
            weights = weights / weights.sum()
    else:
        means, cov, weights = [dist.mean], dist.cov, [1.0]
    out = []
    plan = conditional_moments(cov, s)
    for weight, mean in zip(weights, means):
        mu = plan.mean(mean, x_s)
        sd = np.sqrt(np.clip(np.diag(plan.sigma), 1e-300, None))
        out.append((float(weight), mu, sd, GaussianDensity.from_moments(mu, plan.sigma)))
    return out


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
    POINTS = np.random.default_rng(41).standard_normal((64, 3))
    DISTS = {
        "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
        "ridge": _near_singular_gaussian,
        "mixture": lambda: MixtureFeatures(MixtureParams.from_gamma(1.5)),
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
                    for comp, (weight, mu, sd, density) in zip(got, expected):
                        assert comp.weight == weight
                        assert comp.center.tobytes() == mu.tobytes()
                        assert comp.sd.tobytes() == sd.tobytes()
                        planned = comp.density.__self__
                        assert planned.mean.tobytes() == density.mean.tobytes()
                        assert planned.whiten.tobytes() == density.whiten.tobytes()
                        assert planned.offset == density.offset
                        points = self.POINTS[:, : 3 - len(s)]
                        assert comp.density(points).tobytes() == density.pdf(points).tobytes()
                    if isinstance(dist, GaussianFeatures):
                        assert dist.conditional_mean(s, x_s).tobytes() == expected[0][1].tobytes()
        assert len(dist._plans) == len(coalitions)

    def test_ridge_warning_text_is_kept(self):
        s, x_s = (0, 2), self.X[0][[0, 2]]
        dist = _near_singular_gaussian()
        with pytest.warns(DiagnosticWarning) as planned:
            dist.conditional_components(s, x_s)
        with pytest.warns(DiagnosticWarning) as direct:
            conditional_moments(dist.cov, s)
        assert [str(w.message) for w in planned] == [str(w.message) for w in direct]
        assert "ridge" in str(planned[0].message)


class TestPlansShared:
    """One ``conditional_moments`` call per coalition: later instances hit the
    plan, and the mixture's components share theirs."""

    X = TestConditioningPlansMatchPerCallReference.X
    DISTS = {
        "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
        "mixture": lambda: MixtureFeatures(MixtureParams.from_gamma(1.5)),
    }

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_one_plan_build_per_coalition(self, name, monkeypatch):
        built = []
        conditional_moments = samplers.conditional_moments

        def counting(cov, s, *args, **kwargs):
            built.append(tuple(s))
            return conditional_moments(cov, s, *args, **kwargs)

        monkeypatch.setattr(samplers, "conditional_moments", counting)
        dist = self.DISTS[name]()
        coalitions = [s for s in _ordered_subsets(3) if len(s) < 3]
        for x in self.X:
            for s in coalitions:
                dist.conditional_components(s, x[list(s)])
        assert len(coalitions) == 7
        assert built == coalitions


_SIGMA3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


def _conditioning_entry_points():
    """name -> (s, x_s in the order of s, call returning a flat array)."""
    gaussian = GaussianFeatures(np.array([0.1, -0.2, 0.3]), _SIGMA3)
    mixture = MixtureFeatures(MixtureParams.from_gamma(1.5))
    gh = GHFeatures(_correlated_gh())
    points = np.random.default_rng(5).standard_normal((16, 1))

    def components(dist):
        def call(s, x_s):
            comps = dist.conditional_components(s, x_s)
            return np.concatenate(
                [np.r_[c.weight, c.center, c.sd, c.density(points)] for c in comps]
            )

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
        return TrueShapleyResult(phi0=0.0, phi=phi, method="closed_form")

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
            return TrueShapleyResult(phi0=0.0, phi=np.zeros(3), method="quadrature")

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
