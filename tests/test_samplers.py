"""Contribution-function estimators: independence, Gaussian, copula,
empirical, AICc bandwidths, and the combined dispatch."""

import math
import re
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from condshap import samplers
from condshap.coalitions import enumerate_coalitions
from condshap.errors import DiagnosticWarning, InvalidCovarianceError
from condshap.samplers import (
    EmpiricalWeights,
    FittedSampler,
    SamplerSpec,
    TrainingMatrix,
    aicc_bandwidth,
    aicc_components,
    conditional_moments,
    empirical_weights,
    estimate_v_empirical,
    estimate_v_independent,
    estimate_v_independent_full,
    fit_copula,
    gaussian_conditional,
    mean_training_prediction,
    sample_copula_conditional,
    sample_gaussian_conditional,
    scaled_mahalanobis,
    select_k,
    PredictorError,
)

from conditioning_reference import reference_conditional_moments


def exact_moment_data(mean, cov, n, seed=0):
    """Data whose sample mean/covariance equal the targets exactly."""
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    rng = np.random.default_rng(seed)
    m = mean.shape[0]
    raw = rng.standard_normal((n, m))
    raw -= raw.mean(axis=0)
    chol_emp = np.linalg.cholesky(np.cov(raw, rowvar=False, ddof=1).reshape(m, m))
    white = np.linalg.solve(chol_emp, raw.T).T
    return mean + white @ np.linalg.cholesky(cov).T


@pytest.fixture(scope="module")
def bivariate_train():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    return TrainingMatrix.from_data(exact_moment_data([0, 0], cov, 2000, seed=1))


class TestTrainingMatrix:
    def test_moments_recomputed_exactly(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((50, 3))
        train = TrainingMatrix.from_data(data)
        assert train.mean == pytest.approx(data.mean(axis=0))
        assert train.covariance == pytest.approx(np.cov(data, rowvar=False, ddof=1))
        assert train.column_names == ("x1", "x2", "x3")

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            TrainingMatrix.from_data(np.zeros(5))
        with pytest.raises(ValueError):
            TrainingMatrix.from_data(np.zeros((5, 2)), column_names=("a",))


class TestIndependence:
    def test_constant_predictor(self, bivariate_train):
        f = lambda X: np.full(len(X), 3.25)
        v = estimate_v_independent(bivariate_train, f, (0,), np.array([9.0, 9.0]), 50, 0)
        assert v == 3.25

    def test_linear_limit(self, bivariate_train):
        beta = np.array([1.5, -2.0])
        f = lambda X: X @ beta
        x_star = np.array([0.7, 0.3])
        v = estimate_v_independent(bivariate_train, f, (0,), x_star, 200_000, 3)
        expected = beta[0] * x_star[0] + beta[1] * bivariate_train.mean[1]
        assert v == pytest.approx(expected, abs=3 * 2.0 / math.sqrt(200_000))

    def test_product_predictor_zero_mean(self):
        rng = np.random.default_rng(2)
        train = TrainingMatrix.from_data(rng.standard_normal((20_000, 2)))
        f = lambda X: X[:, 0] * X[:, 1]
        v = estimate_v_independent(train, f, (0,), np.array([2.0, 0.0]), 100_000, 7)
        # f draws are 2*x2 with sd ~2; expectation ~ 2*mean(x2) ~ 0
        se = 2.0 / math.sqrt(100_000)
        assert abs(v - 2.0 * train.mean[1]) <= 3 * se

    def test_full_pass_is_deterministic(self, bivariate_train):
        f = lambda X: X.sum(axis=1)
        a = estimate_v_independent_full(bivariate_train, f, (1,), np.array([0.0, 1.0]))
        b = estimate_v_independent_full(bivariate_train, f, (1,), np.array([0.0, 1.0]))
        assert a == b

    def test_rejects_endpoints(self, bivariate_train):
        f = lambda X: X.sum(axis=1)
        with pytest.raises(ValueError):
            estimate_v_independent(bivariate_train, f, (), np.zeros(2), 10, 0)
        with pytest.raises(ValueError):
            estimate_v_independent(bivariate_train, f, (0, 1), np.zeros(2), 10, 0)

    def test_predictor_failure_attaches_rows(self, bivariate_train):
        def bad(X):
            raise RuntimeError("boom")

        with pytest.raises(PredictorError, match="synthetic batch"):
            estimate_v_independent(bivariate_train, bad, (0,), np.zeros(2), 10, 0)


class TestGaussianConditional:
    def test_bivariate_hand_example(self):
        plan = conditional_moments(np.array([[1.0, 0.5], [0.5, 1.0]]), (0,))
        assert plan.coef.reshape(-1) == pytest.approx([0.5])
        assert plan.mean(np.zeros(2), np.array([2.0])) == pytest.approx([1.0])
        assert plan.sigma.reshape(-1) == pytest.approx([0.75])

    def test_bivariate_from_training_data(self, bivariate_train):
        cond = gaussian_conditional(bivariate_train, (0,), np.array([2.0, 0.0]))
        assert cond.mu_cond == pytest.approx([1.0], abs=1e-10)
        assert (cond.factor @ cond.factor.T).reshape(-1) == pytest.approx([0.75], abs=1e-10)

    def test_independence_blocks_vanish(self):
        cov = np.diag([1.0, 2.0, 3.0])
        mean = np.array([1.0, -1.0, 0.5])
        plan = conditional_moments(cov, (0,))
        assert plan.mean(mean, np.array([5.0])) == pytest.approx(mean[1:])
        assert plan.sigma == pytest.approx(cov[1:, 1:])

    def test_high_correlation_shrinks_variance(self):
        m = 5
        cov = np.full((m, m), 0.98)
        np.fill_diagonal(cov, 1.0)
        assert conditional_moments(cov, (0, 1, 2, 3)).sigma[0, 0] < 0.04

    def test_invalid_covariance(self):
        bad = TrainingMatrix(
            data=np.zeros((10, 2)),
            column_names=("a", "b"),
            mean=np.zeros(2),
            covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3, -1
        )
        with pytest.raises(InvalidCovarianceError, match="invalid covariance"):
            gaussian_conditional(bad, (0,), np.zeros(2))

    def test_near_singular_is_regularized(self):
        eps = 1e-12
        cov = np.array(
            [[1.0, 1.0 - eps, 0.3], [1.0 - eps, 1.0, 0.3], [0.3, 0.3, 1.0]]
        )
        with pytest.warns(DiagnosticWarning, match="ridge"):
            plan = conditional_moments(cov, (0, 1))
        assert plan.ridge > 0

    def test_rejection_sampling_moments(self):
        # Conditional moments match moments of draws conditioned on a band.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.standard_normal(3)
        x_s = mean[0] + 0.3
        plan = conditional_moments(cov, (0,))
        mu, sig = plan.mean(mean, np.array([x_s])), plan.sigma
        chol = np.linalg.cholesky(cov)
        eps = 0.04 * math.sqrt(cov[0, 0])
        accepted = []
        need = 100_000
        while sum(len(block) for block in accepted) < need:
            draws = mean + rng.standard_normal((400_000, 3)) @ chol.T
            keep = np.abs(draws[:, 0] - x_s) < eps
            accepted.append(draws[keep][:, 1:])
        sample = np.concatenate(accepted)[:need]
        se_mean = sample.std(axis=0, ddof=1) / math.sqrt(need)
        assert np.all(np.abs(sample.mean(axis=0) - mu) <= 5 * se_mean + 1e-3)
        cov_hat = np.cov(sample, rowvar=False, ddof=1)
        # Covariance entries fluctuate at ~ sigma^2 sqrt(2/n).
        scale = np.sqrt(np.outer(np.diag(sig), np.diag(sig)))
        assert np.all(np.abs(cov_hat - sig) <= 5 * scale * math.sqrt(2.0 / need) + 1e-3)


class TestGaussianSampling:
    def test_degenerate_covariance_returns_mean(self):
        from condshap.samplers import GaussianConditional

        cond = GaussianConditional(mu_cond=np.array([1.0, -2.0]), factor=np.zeros((2, 2)))
        draws = sample_gaussian_conditional(cond, 50, 0)
        assert np.allclose(draws, [1.0, -2.0])

    def test_large_sample_mean(self, bivariate_train):
        cond = gaussian_conditional(bivariate_train, (0,), np.array([2.0, 0.0]))
        draws = sample_gaussian_conditional(cond, 100_000, 5)
        assert abs(draws.mean() - 1.0) <= 0.011  # 4 sigma / sqrt(k)
        assert draws.var(ddof=1) == pytest.approx(0.75, abs=4 * 0.75 * math.sqrt(2 / 100_000))

    def test_determinism(self, bivariate_train):
        cond = gaussian_conditional(bivariate_train, (1,), np.array([0.0, -1.0]))
        a = sample_gaussian_conditional(cond, 1000, 42)
        b = sample_gaussian_conditional(cond, 1000, 42)
        assert np.array_equal(a, b)


class TestCopula:
    def test_needs_enough_rows(self):
        train = TrainingMatrix.from_data(np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(ValueError, match="n >= 20"):
            fit_copula(train)

    def test_latent_correlation_close_to_gaussian_correlation(self):
        rho = 0.7
        data = exact_moment_data([0, 0], [[1, rho], [rho, 1]], 2000, seed=3)
        state = fit_copula(TrainingMatrix.from_data(data))
        assert abs(state.latent_correlation[0, 1] - rho) < 0.02

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((500, 2))
        state1 = fit_copula(TrainingMatrix.from_data(data))
        transformed = data.copy()
        transformed[:, 0] = np.exp(transformed[:, 0])
        state2 = fit_copula(TrainingMatrix.from_data(transformed))
        assert np.allclose(state1.latent_correlation, state2.latent_correlation)

    def test_null_latent_correlation_for_uniforms(self):
        rng = np.random.default_rng(5)
        data = rng.random((2000, 4))
        state = fit_copula(TrainingMatrix.from_data(data))
        off = state.latent_correlation[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 0.06)

    @pytest.mark.parametrize("kind", ["continuous", "tie-heavy", "constant"])
    def test_average_ranks_equal_scipy_rankdata(self, kind):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 2000):
            if kind == "continuous":
                col = rng.standard_normal(n)
            elif kind == "tie-heavy":
                col = rng.integers(0, 4, size=n).astype(float)
            else:
                col = np.full(n, 3.25)
            ranks = samplers._average_ranks(col)
            assert ranks.tobytes() == stats.rankdata(col, method="average").tobytes()

    def test_instance_latent_slices_equal_per_coalition_values(self):
        """One CDF per instance, sliced per coalition, equals each coalition's own CDF bit for bit."""
        rng = np.random.default_rng(15)
        data = np.column_stack([rng.standard_normal(300), rng.integers(0, 5, 300),
                                rng.gamma(2.0, size=300), rng.standard_normal(300)])
        state = fit_copula(TrainingMatrix.from_data(data))
        instances = np.vstack([data[:3], [[-9.0, -1.0, 0.0, 9.0], [0.0, 2.0, 1.0, 0.5]]])
        for x_star in instances:
            latent = state.latent(x_star)
            for s in enumerate_coalitions(4).coalitions:
                if 0 < len(s) < 4:
                    per_coalition = ndtri(state.cdf(s, x_star[list(s)]))
                    assert latent[list(s)].tobytes() == per_coalition.tobytes(), (x_star, s)

    def test_degenerate_marginal_warns(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((100, 3))
        data[:, 1] = 7.0
        with pytest.warns(DiagnosticWarning, match="degenerate marginal"):
            state = fit_copula(TrainingMatrix.from_data(data))
        assert state.latent_correlation[1, 0] == 0.0
        assert state.latent_correlation[1, 1] == 1.0

    def test_matches_gaussian_sampler_on_gaussian_data(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        rng = np.random.default_rng(11)
        data = rng.multivariate_normal([0, 0], cov, size=5000)
        train = TrainingMatrix.from_data(data)
        state = fit_copula(train)
        x_star = np.array([1.0, 0.0])
        cop = sample_copula_conditional(state, (0,), state.latent(x_star)[[0]], 10_000, 77)[:, 0]
        gau = sample_gaussian_conditional(
            gaussian_conditional(train, (0,), x_star), 10_000, 78
        )[:, 0]
        ks = stats.ks_2samp(cop, gau).statistic
        critical = 1.628 * math.sqrt(2 / 10_000)  # 1% two-sample critical value
        assert ks < critical

    def test_independent_latent_reproduces_marginal(self):
        rng = np.random.default_rng(13)
        data = np.column_stack([rng.standard_normal(3000), rng.gamma(2.0, size=3000)])
        train = TrainingMatrix.from_data(data)
        state = fit_copula(train)
        v_s = state.latent(np.array([0.5, 0.0]))[[0]]
        draws = sample_copula_conditional(state, (0,), v_s, 10_000, 5)[:, 0]
        ks = stats.ks_2samp(draws, data[:, 1]).statistic
        assert ks < 1.628 * math.sqrt((10_000 + 3000) / (10_000 * 3000))

    def test_outputs_within_training_range(self):
        rng = np.random.default_rng(14)
        data = rng.gamma(1.5, size=(200, 3))
        train = TrainingMatrix.from_data(data)
        state = fit_copula(train)
        v_s = state.latent(np.array([5.0, 5.0, 5.0]))[[1]]
        draws = sample_copula_conditional(state, (1,), v_s, 5000, 1)
        for pos, j in enumerate((0, 2)):
            assert draws[:, pos].min() >= data[:, j].min()
            assert draws[:, pos].max() <= data[:, j].max()


class TestEmpiricalWeights:
    def test_zero_distance_at_training_row(self, bivariate_train):
        x_star = bivariate_train.data[17]
        ew = empirical_weights(bivariate_train, (0, 1), x_star, sigma=0.1)
        assert ew.distances[17] == pytest.approx(0.0, abs=1e-8)
        assert ew.weights[17] == pytest.approx(1.0)
        assert ew.top(1)[0] == 17 or ew.weights[ew.top(1)[0]] == pytest.approx(1.0)

    def test_scalar_unit_variance_distance(self):
        data = exact_moment_data([0.0], [[1.0]], 500, seed=9)
        train = TrainingMatrix.from_data(data)
        x_star = np.array([0.3])
        d = scaled_mahalanobis(train, (0,), x_star)
        assert d == pytest.approx(np.abs(x_star[0] - data[:, 0]), abs=1e-10)

    def test_unit_scaling_invariance(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((300, 3))
        scaled = data.copy()
        scaled[:, 1] *= 10.0
        x = np.array([0.5, 1.0, -0.2])
        x_scaled = x.copy()
        x_scaled[1] *= 10.0
        d1 = scaled_mahalanobis(TrainingMatrix.from_data(data), (0, 1), x)
        d2 = scaled_mahalanobis(TrainingMatrix.from_data(scaled), (0, 1), x_scaled)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_weight_monotone_in_distance(self, bivariate_train):
        ew = empirical_weights(bivariate_train, (0,), np.array([0.2, 0.0]), sigma=0.3)
        order = np.argsort(ew.distances)
        assert np.all(np.diff(ew.weights[order]) <= 1e-15)

    def test_order_sorts_descending(self, bivariate_train):
        ew = empirical_weights(bivariate_train, (1,), np.array([0.0, 0.4]), sigma=0.2)
        assert np.all(np.diff(ew.ranked) <= 0.0)
        assert np.array_equal(ew.weights[ew.top(len(ew.weights))], ew.ranked)

    def test_sigma_must_be_positive(self, bivariate_train):
        with pytest.raises(ValueError):
            empirical_weights(bivariate_train, (0,), np.zeros(2), sigma=0.0)
        with pytest.raises(ValueError, match="got nan"):
            empirical_weights(bivariate_train, (0,), np.zeros(2), sigma=math.nan)


class TestSelectK:
    @staticmethod
    def from_weights(w):
        w = np.asarray(w, float)
        return EmpiricalWeights(
            distances=np.zeros_like(w),
            weights=w,
            sigma=1.0,
        )

    def test_equal_weights_085(self):
        assert select_k(self.from_weights(np.ones(10)), 0.85, 5000) == 9

    def test_equal_weights_09_strict(self):
        assert select_k(self.from_weights(np.ones(10)), 0.9, 5000) == 10

    def test_single_dominant_weight(self):
        w = np.array([0.99] + [0.005] * 200)
        sorted_w = np.sort(w)[::-1]
        frac = np.cumsum(sorted_w) / w.sum()
        expected = int(np.nonzero(frac > 0.9)[0][0]) + 1
        assert select_k(self.from_weights(w), 0.9, 5000) == expected
        # The dominant weight alone covers half the mass; K stays well short
        # of the full pool.
        assert expected < len(w)

    def test_cap(self):
        assert select_k(self.from_weights(np.ones(100)), 0.99, 10) == 10

    @given(
        eta1=st.floats(min_value=0.05, max_value=0.9),
        eta2=st.floats(min_value=0.05, max_value=0.9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_eta_and_bounded(self, eta1, eta2, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(50) + 1e-9
        ew = self.from_weights(w)
        lo, hi = sorted([eta1, eta2])
        assert select_k(ew, lo, 5000) <= select_k(ew, hi, 5000)
        assert select_k(ew, hi, 7) <= min(7, 50)


def _stable_order(w):
    """The full ranking the top-K selection replaces: a stable argsort of -w."""
    return np.argsort(-w, kind="stable")


def _reference_v_empirical(train, predictor, s, x_star, sigma, eta=0.9, k_cap=5000):
    """``estimate_v_empirical`` with the top-K rows taken from the full ranking."""
    ew = empirical_weights(train, s, x_star, sigma)
    order = _stable_order(ew.weights)
    w_sorted = ew.weights[order]
    frac = np.cumsum(w_sorted) / float(w_sorted.sum())
    hits = np.nonzero(frac > eta)[0]
    k = min(int(hits[0]) + 1 if hits.size else len(order), k_cap, len(order))
    top = order[:k]
    w = ew.weights[top]
    synth = np.array(train.data[top], copy=True)
    synth[:, list(s)] = x_star[list(s)]
    return float(np.dot(w, predictor(synth)) / w.sum())


class TestTopK:
    """``EmpiricalWeights.ranked`` and ``top`` against the full stable argsort."""

    CASES = {
        "distinct": np.random.default_rng(0).random(40),
        "ties-at-boundary": np.array([0.5, 0.9, 0.5, 0.2, 0.9, 0.5, 0.5, 0.1, 0.5, 0.9]),
        "zero-tail": np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0, 0.3, 0.0]),
        "all-zero": np.zeros(6),
        "all-equal": np.full(7, 0.25),
        "single": np.array([0.4]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_k_matches_stable_argsort(self, name):
        w = self.CASES[name]
        ew = EmpiricalWeights(distances=np.zeros_like(w), weights=w, sigma=1.0)
        order = _stable_order(w)
        assert np.array_equal(ew.ranked, w[order])
        for k in range(1, len(w) + 1):  # up to K = n
            assert np.array_equal(ew.top(k), order[:k]), k
        assert np.array_equal(ew.top(len(w) + 3), order)
        assert ew.top(0).size == 0

    @given(
        levels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_heavy_ties_match_stable_argsort(self, levels, k):
        # Few distinct levels, zero among them: ties straddle every boundary.
        w = np.exp(-np.asarray(levels, float)) * (np.asarray(levels) < 4)
        ew = EmpiricalWeights(distances=np.zeros_like(w), weights=w, sigma=1.0)
        order = _stable_order(w)
        assert np.array_equal(ew.ranked, w[order])
        assert np.array_equal(ew.top(k), order[:k])

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 2.0])
    def test_estimator_equals_full_ranking_reference(self, bivariate_train, sigma):
        f = lambda X: X[:, 0] ** 2 - 0.5 * X[:, 1]
        for x_star in (np.array([0.3, -0.2]), bivariate_train.data[5]):
            for s in ((0,), (1,)):
                for k_cap in (5000, 25):
                    expected = _reference_v_empirical(
                        bivariate_train, f, s, x_star, sigma, k_cap=k_cap
                    )
                    got = estimate_v_empirical(
                        bivariate_train, f, s, x_star, sigma, k_cap=k_cap
                    )
                    assert got == expected


class TestEmpiricalEstimator:
    def test_constant_predictor(self, bivariate_train):
        f = lambda X: np.full(len(X), -1.5)
        v = estimate_v_empirical(bivariate_train, f, (0,), np.array([0.5, 0.0]), sigma=0.1)
        assert v == pytest.approx(-1.5)

    def test_sigma_infinity_equals_full_training_mean(self, bivariate_train):
        f = lambda X: X[:, 0] ** 2 + X[:, 1]
        x_star = np.array([0.7, -0.3])
        v_emp = estimate_v_empirical(
            bivariate_train, f, (0,), x_star, sigma=1e6, eta=0.9999999, k_cap=5000
        )
        v_full = estimate_v_independent_full(bivariate_train, f, (0,), x_star)
        assert v_emp == pytest.approx(v_full, abs=1e-6)

    def test_linear_predictor_matches_conditional_expectation(self):
        rng = np.random.default_rng(3)
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        train = TrainingMatrix.from_data(rng.multivariate_normal([0, 0], cov, size=2000))
        beta = np.array([1.0, 2.0])
        f = lambda X: X @ beta
        x_star = np.array([0.8, -0.2])
        v = estimate_v_empirical(train, f, (0,), x_star, sigma=0.1)
        mu, _ = reference_conditional_moments(train.mean, train.covariance, (0,), x_star[:1])
        expected = beta[0] * x_star[0] + beta[1] * mu[0]
        # Weighted-mean standard error from the kernel weights.
        ew = empirical_weights(train, (0,), x_star, 0.1)
        k = select_k(ew, 0.9, 5000)
        top = ew.top(k)
        w = ew.weights[top]
        fx = f(np.column_stack([np.full(k, x_star[0]), train.data[top, 1]]))
        vhat = float(np.dot(w, fx) / w.sum())
        se = math.sqrt(float(np.sum(w**2 * (fx - vhat) ** 2))) / w.sum()
        assert abs(v - expected) <= 3 * se

    def test_zero_weights_fall_back_to_full_mean(self):
        rng = np.random.default_rng(9)
        train = TrainingMatrix.from_data(rng.standard_normal((100, 2)))
        f = lambda X: X.sum(axis=1)
        x_far = np.array([1e6, 0.0])
        with pytest.warns(DiagnosticWarning, match="underflowed"):
            v = estimate_v_empirical(train, f, (0,), x_far, sigma=1e-3)
        assert v == pytest.approx(estimate_v_independent_full(train, f, (0,), x_far))


class TestAicc:
    def test_uniform_rows_when_sigma_huge(self):
        rng = np.random.default_rng(0)
        d2 = rng.random((50, 50))
        d2 = 0.5 * (d2 + d2.T)
        np.fill_diagonal(d2, 0.0)
        w = np.exp(-d2 / (2 * 1e12))
        y = rng.standard_normal(50)
        tau_sq, phi_h, trace = aicc_components(w, y)
        assert trace == pytest.approx(1.0, abs=1e-6)
        assert tau_sq == pytest.approx(float(np.mean((y - y.mean()) ** 2)), rel=1e-6)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(1)
        n = 100
        w = np.exp(-rng.random((n, n)))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 1.0)
        y = rng.standard_normal(n)
        for phi_form in ("corrected", "printed"):
            tau_sq, phi_h, trace = aicc_components(w, y, phi_form)
            h = np.zeros((n, n))
            for i in range(n):
                denom = sum(w[i, l] for l in range(n))
                for j in range(n):
                    h[i, j] = w[i, j] / denom
            fitted = np.array([sum(h[i, j] * y[j] for j in range(n)) for i in range(n)])
            tau_naive = sum((y[i] - fitted[i]) ** 2 for i in range(n)) / n
            tr_naive = sum(h[i, i] for i in range(n))
            if phi_form == "corrected":
                phi_naive = (1 + tr_naive / n) / (1 - (tr_naive + 2) / n)
            else:
                phi_naive = (1 + tr_naive / n) / (1 - (tr_naive + 2) / 2)
            assert tau_sq == pytest.approx(tau_naive, abs=1e-10)
            assert trace == pytest.approx(tr_naive, abs=1e-10)
            if np.isfinite(phi_h) and np.isfinite(phi_naive):
                assert phi_h == pytest.approx(phi_naive, abs=1e-10)

    def test_printed_form_differs_from_corrected(self):
        rng = np.random.default_rng(2)
        w = np.exp(-rng.random((30, 30)) * 3)
        np.fill_diagonal(w, 1.0)
        y = rng.standard_normal(30)
        _, phi_corrected, _ = aicc_components(w, y, "corrected")
        _, phi_printed, _ = aicc_components(w, y, "printed")
        assert phi_corrected != phi_printed

    def test_dependence_selects_smaller_sigma(self):
        grid = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
        f = lambda X: np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
        x_star = np.array([0.3, -0.4])
        sigmas = {}
        for rho in (0.0, 0.9):
            cov = np.array([[1.0, rho], [rho, 1.0]])
            data = exact_moment_data([0, 0], cov, 1200, seed=21)
            train = TrainingMatrix.from_data(data)
            [sigmas[rho]] = aicc_bandwidth(train, f, (0,), x_star, sigma_grid=grid)
        assert sigmas[0.9] < sigmas[0.0]

    def test_duplicate_grid_same_selection(self, bivariate_train):
        f = lambda X: X[:, 0] * X[:, 1]
        x_star = np.array([0.5, 0.2])
        a = aicc_bandwidth(bivariate_train, f, (0,), x_star, sigma_grid=(0.1, 0.4, 1.6))
        b = aicc_bandwidth(
            bivariate_train, f, (0,), x_star, sigma_grid=(0.1, 0.1, 0.4, 0.4, 1.6)
        )
        assert a.shape == (1,)  # one instance is a block of one
        assert a.tolist() == b.tolist()

    def test_approx_mode_shares_sigma_per_size(self):
        rng = np.random.default_rng(5)
        train = TrainingMatrix.from_data(rng.standard_normal((400, 3)))
        f = lambda X: X.sum(axis=1)
        [sigma] = aicc_bandwidth(train, f, 1, np.array([0.1, 0.2, 0.3]))
        assert sigma in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)

    def test_infinite_grid_names_the_instance(self, bivariate_train):
        f = lambda X: np.where(X[:, 0] > 1e5, np.nan, X.sum(axis=1))
        block = np.array([[0.1, 0.2], [2e5, 0.3], [0.4, -0.1]])
        named = re.escape(np.array2string(block[1], precision=6))
        with pytest.raises(ValueError, match="infinite on the whole bandwidth grid.*" + named):
            aicc_bandwidth(bivariate_train, f, (0,), block)
        with pytest.raises(ValueError, match=named):
            aicc_bandwidth(bivariate_train, f, 1, block[1])
        good = aicc_bandwidth(bivariate_train, f, (0,), block[[0, 2]])
        one_by_one = [aicc_bandwidth(bivariate_train, f, (0,), x)[0] for x in block[[0, 2]]]
        assert good.tolist() == one_by_one

    def test_grid_validation(self, bivariate_train):
        f = lambda X: X.sum(axis=1)
        with pytest.raises(ValueError):
            aicc_bandwidth(bivariate_train, f, (0,), np.zeros(2), sigma_grid=())
        with pytest.raises(ValueError):
            aicc_bandwidth(bivariate_train, f, (0,), np.zeros(2), sigma_grid=(0.0, 0.1))


class TestSamplerSpec:
    def test_labels_round_trip(self):
        labels = [
            "original",
            "gaussian",
            "copula",
            "empirical-0.1",
            "empirical-aicc-exact",
            "empirical-aicc-approx",
            "empirical-0.1+gaussian",
            "empirical-aicc-approx+copula",
        ]
        for label in labels:
            spec = SamplerSpec.from_label(label)
            assert spec.label == label

    def test_custom_sigma_label(self):
        spec = SamplerSpec.from_label("empirical-0.25")
        assert spec.sigma == 0.25
        assert spec.label == "empirical-0.25"

    def test_invalid_labels(self):
        for label in ("nonsense", "empirical-abc", "gaussian+copula", "original+gaussian"):
            with pytest.raises(ValueError):
                SamplerSpec.from_label(label)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="weird")
        with pytest.raises(ValueError):
            SamplerSpec(eta=1.5)
        with pytest.raises(ValueError):
            SamplerSpec(d_star=0)
        with pytest.raises(ValueError):
            SamplerSpec(sigma=-0.1)
        with pytest.raises(ValueError, match="sigma must be positive, got nan"):
            SamplerSpec.from_label("empirical-nan")
        with pytest.raises(ValueError):
            SamplerSpec(k_cap=0)
        with pytest.raises(ValueError, match="n_aicc must be >= 4"):
            SamplerSpec(n_aicc=3)
        assert SamplerSpec(n_aicc=4).n_aicc == 4


@pytest.fixture(scope="module")
def dispatch_setup():
    rng = np.random.default_rng(20)
    m = 8
    a = rng.standard_normal((m, m)) * 0.2
    cov = a @ a.T + np.eye(m)
    data = rng.multivariate_normal(np.zeros(m), cov, size=600)
    train = TrainingMatrix.from_data(data)
    beta = rng.standard_normal(m)
    f = lambda X: np.atleast_2d(X) @ beta
    x_star = data[0] * 0.5
    return train, f, x_star


def contribution(spec, train, f, s, x_star, k, rng_seed):
    """v(S) from a sampler fitted for this one call, at the spec's fixed bandwidth."""
    return FittedSampler(spec, train).contribution(f, s, x_star, k, rng_seed, sigma=spec.sigma)


class TestEstimateVDispatch:
    @pytest.fixture()
    def setup(self, dispatch_setup):
        return dispatch_setup

    def test_endpoints_exact_for_every_kind(self, setup):
        from condshap.explain import Explainer

        train, f, x_star = setup
        for label in ("original", "gaussian", "copula", "empirical-0.1", "empirical-0.1+gaussian"):
            explainer = Explainer(train, f, SamplerSpec.from_label(label), k=10, seed=0)
            v = explainer.contribution_vector(x_star)
            rows = explainer.cm.coalitions
            assert v[rows.index(())] == mean_training_prediction(train, f)
            assert v[rows.index(tuple(range(train.m)))] == float(f(x_star[None, :])[0])

    def test_contribution_rejects_endpoints_and_missing_sigma(self, setup):
        train, f, x_star = setup
        full = tuple(range(train.m))
        for label in ("original", "gaussian", "copula", "empirical-0.1", "empirical-0.1+gaussian"):
            sampler = FittedSampler(SamplerSpec.from_label(label), train)
            for s in ((), full):
                with pytest.raises(ValueError, match="proper non-empty"):
                    sampler.contribution(f, s, x_star, 10, 0, sigma=0.1)
        for label, s in (("empirical-0.1", (0, 5, 6)), ("empirical-0.1+gaussian", (1, 4))):
            sampler = FittedSampler(SamplerSpec.from_label(label), train)
            with pytest.raises(ValueError, match="needs a bandwidth"):
                sampler.contribution(f, s, x_star, 10, 0)
        # Parametric coalitions read no bandwidth.
        combined = FittedSampler(SamplerSpec.from_label("empirical-0.1+gaussian"), train)
        s = tuple(range(7))
        assert combined.contribution(f, s, x_star, 10, 0) == combined.contribution(
            f, s, x_star, 10, 0, sigma=0.1
        )

    def test_combined_dispatches_to_empirical_below_threshold(self, setup):
        train, f, x_star = setup
        combined = SamplerSpec(kind="combined", d_star=3, parametric_backend="gaussian")
        empirical = SamplerSpec(kind="empirical")
        s = (1, 4)
        a = contribution(combined, train, f, s, x_star, 100, 5)
        b = contribution(empirical, train, f, s, x_star, 100, 5)
        assert a == b

    def test_combined_dispatches_to_backend_above_threshold(self, setup):
        train, f, x_star = setup
        combined = SamplerSpec(kind="combined", d_star=3, parametric_backend="gaussian")
        gaussian = SamplerSpec(kind="gaussian")
        s = tuple(range(7))
        a = contribution(combined, train, f, s, x_star, 100, 5)
        b = contribution(gaussian, train, f, s, x_star, 100, 5)
        assert a == b

    def test_pure_function_of_seed(self, setup):
        train, f, x_star = setup
        spec = SamplerSpec(kind="gaussian")
        a = contribution(spec, train, f, (0, 3), x_star, 500, rng_seed=11)
        b = contribution(spec, train, f, (0, 3), x_star, 500, rng_seed=11)
        c = contribution(spec, train, f, (0, 3), x_star, 500, rng_seed=12)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("label", ["gaussian", "copula"])
    def test_standalone_call_draws_from_a_stream_of_its_seed(self, setup, label):
        """Without instance draws, v(S) is the same as with draws made fresh from rng_seed."""
        train, f, x_star = setup
        sampler = FittedSampler(SamplerSpec.from_label(label), train)
        for s in ((0, 3), (1, 2, 5, 6, 7)):
            fresh = sampler.instance_draws(x_star, [4, 2])
            assert sampler.contribution(f, s, x_star, 200, [4, 2]) == sampler.contribution(
                f, s, x_star, 200, [9], draws=fresh)

    def test_empirical_k_cap_respects_budget(self, setup):
        train, f, x_star = setup
        # k below k_cap binds through min(k_cap, k).
        spec = SamplerSpec(kind="empirical", sigma=5.0, k_cap=5000)
        v = contribution(spec, train, f, (0,), x_star, 50, 0)
        ew = empirical_weights(train, (0,), x_star, 5.0)
        k = select_k(ew, spec.eta, 50)
        top = ew.top(k)
        w = ew.weights[top]
        rows = np.array(train.data[top], copy=True)
        rows[:, 0] = x_star[0]
        expected = float(np.dot(w, f(rows)) / w.sum())
        assert v == pytest.approx(expected)


class TestBandwidths:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(21)
        cov = np.array([[1.0, 0.5, 0.2, 0.0], [0.5, 1.0, 0.3, 0.1],
                        [0.2, 0.3, 1.0, 0.4], [0.0, 0.1, 0.4, 1.0]])
        train = TrainingMatrix.from_data(rng.multivariate_normal(np.zeros(4), cov, size=300))
        beta = np.array([1.0, -2.0, 0.5, 1.5])
        f = lambda X: np.atleast_2d(X) @ beta + np.sin(np.atleast_2d(X)[:, 0])
        return train, f, train.data[7] * 0.8, enumerate_coalitions(4).coalitions

    @pytest.mark.parametrize("kind", ["empirical", "combined"])
    @pytest.mark.parametrize("mode", ["aicc_exact", "aicc_approx"])
    def test_equals_direct_aicc_calls(self, setup, kind, mode, monkeypatch):
        train, f, x_star, coalitions = setup
        spec = SamplerSpec(kind=kind, bandwidth_mode=mode, d_star=2, n_aicc=80)
        max_size = 3 if kind == "empirical" else 2
        covered = [s for s in coalitions if 0 < len(s) <= max_size]
        exact = mode == "aicc_exact"
        direct = {
            s: float(aicc_bandwidth(train, f, s if exact else len(s), x_star, n_aicc=80)[0])
            for s in covered
        }
        targets = []
        original = samplers.aicc_bandwidth

        def counting(train_, predictor, s_or_size, *args, **kwargs):
            targets.append(s_or_size)
            return original(train_, predictor, s_or_size, *args, **kwargs)

        monkeypatch.setattr(samplers, "aicc_bandwidth", counting)
        [table] = FittedSampler(spec, train).bandwidths(f, coalitions, x_star)
        assert table == direct
        if exact:
            assert sorted(targets) == sorted(covered)  # one search per coalition
        else:
            assert targets == list(range(1, max_size + 1))  # one search per size

    @pytest.mark.parametrize("kind", ["empirical", "combined"])
    @pytest.mark.parametrize("mode", ["aicc_exact", "aicc_approx"])
    def test_block_equals_per_instance_reference(self, setup, kind, mode):
        train, f, _, coalitions = setup
        grid = samplers.DEFAULT_AICC_GRID
        block = train.data[10:17] * 0.9
        spec = SamplerSpec(kind=kind, bandwidth_mode=mode, d_star=2, n_aicc=80)
        sampler = FittedSampler(spec, train)
        tables = sampler.bandwidths(f, coalitions, block)
        covered = [s for s in coalitions if 0 < len(s) <= (3 if kind == "empirical" else 2)]
        assert len(tables) == len(block)
        for x, table in zip(block, tables):
            assert list(table) == covered
            assert [table] == sampler.bandwidths(f, coalitions, x)
            reference = {
                s: _aicc_reference(train, f, s if mode == "aicc_exact" else len(s), x, 80)
                for s in covered
            }
            assert table == {s: grid[int(np.argmin(reference[s]))] for s in covered}
        for s in covered:  # the criteria themselves, bit for bit
            criteria = samplers._aicc_criterion_for_coalition(train, f, s, block, grid, 80)
            for x, row in zip(block, criteria):
                assert row.tolist() == _aicc_reference(train, f, s, x, 80).tolist()

    def test_fixed_and_parametric_kinds(self, setup):
        train, f, x_star, coalitions = setup
        fixed = FittedSampler(SamplerSpec(kind="combined", sigma=0.3, d_star=1), train)
        table = {(0,): 0.3, (1,): 0.3, (2,): 0.3, (3,): 0.3}
        assert fixed.bandwidths(f, coalitions, x_star) == [table]
        assert fixed.bandwidths(f, coalitions, np.stack([x_star, -x_star])) == [table, table]
        for kind in ("independence", "gaussian", "copula"):
            sampler = FittedSampler(SamplerSpec(kind=kind, bandwidth_mode="aicc_exact"), train)
            assert sampler.bandwidths(f, coalitions, x_star) == [{}]


def _aicc_reference(train, f, s_or_size, x_star, n_aicc, grid=samplers.DEFAULT_AICC_GRID):
    """One instance's AICc criteria on the grid, coalition by coalition and sigma by sigma.

    The slow reference for ``aicc_bandwidth``: a fresh spliced subsample and
    whitening per coalition, a fresh kernel per sigma, and log(tau^2) + Phi
    from ``aicc_components``.
    """
    if isinstance(s_or_size, int):
        coalitions = list(combinations(range(train.m), s_or_size))
    else:
        coalitions = [s_or_size]
    total = np.zeros(len(grid))
    for s in coalitions:
        s = list(s)
        sub = train.data[samplers._aicc_subsample(train.n, n_aicc)]
        synth = sub.copy()
        synth[:, s] = x_star[s]
        y = f(synth)
        chol = np.linalg.cholesky(train.covariance[np.ix_(s, s)])
        white = np.linalg.solve(chol, sub[:, s].T).T
        sq = np.sum(white ** 2, axis=1)
        d2 = np.maximum((sq[:, None] + sq[None, :] - 2.0 * (white @ white.T)) / len(s), 0.0)
        for g, sigma in enumerate(grid):
            tau_sq, phi_h, _ = aicc_components(np.exp(-d2 / (2.0 * sigma ** 2)), y)
            total[g] += math.log(max(tau_sq, 1e-300)) + phi_h if np.isfinite(phi_h) else math.inf
    return total


def _copula_draws_by_column(state, s, x_star, k, rng_seed):
    """Copula draws one feature at a time, each quantity rebuilt per call.

    The slow reference for ``sample_copula_conditional``: a scalar CDF per
    conditioning feature, a fresh conditioning plan, an eigen-factor and a
    per-column order-statistic lookup, with the same operations in the same
    order on each value.
    """
    m, n = state.m, state.n
    sbar = [j for j in range(m) if j not in s]
    ranks = [np.searchsorted(state.sorted_columns[j], x_star[j], side="right") for j in s]
    v_star = ndtri(np.array([np.clip(r, 1, n) / (n + 1) for r in ranks], float))
    plan = conditional_moments(state.latent_correlation, s)
    mu = plan.mean(np.zeros(m), v_star)
    vals, vecs = np.linalg.eigh(plan.sigma)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]
    z = np.random.default_rng(rng_seed).standard_normal((k, len(sbar)))
    u = ndtr(mu[None, :] + z @ factor.T)
    out = np.empty_like(u)
    for pos, j in enumerate(sbar):
        idx = np.clip(np.ceil(u[:, pos] * (n + 1)).astype(int), 1, n) - 1
        out[:, pos] = state.sorted_columns[j][idx]
    return out


class TestPlansMatchPerCallReference:
    """Plan-based contributions equal the per-call reference bit for bit.

    Plans are built by the first instance that meets a coalition and reused
    by the next, in both instance orders.  The reference keeps nothing
    between calls: ``gaussian_conditional`` + ``sample_gaussian_conditional``
    on a fresh training matrix, ``sample_copula_conditional`` on a freshly
    fitted copula with the coalition's own CDF of x*, and the empirical
    estimator below ``d_star``.  Both sides draw the coalitions of an
    instance in turn from one generator of that instance.
    """

    K = 64
    BETA = np.array([1.0, -2.0, 0.5, 1.5, 0.7])

    @staticmethod
    def data(case: str) -> np.ndarray:
        rng = np.random.default_rng(31)
        x = rng.standard_normal((300, 5)) @ (np.eye(5) + 0.4 * rng.standard_normal((5, 5)))
        if case == "ridge":  # a near-collinear pair: blocks holding both are ridged
            x[:, 4] = x[:, 0] + 1e-9 * rng.standard_normal(300)
        if case == "degenerate":  # a constant margin
            x[:, 2] = 1.5
        return x

    def predictor(self, x):
        x = np.atleast_2d(x)
        return x @ self.BETA + np.sin(x[:, 1])

    def reference(self, data, spec, s, x_star, rng) -> float:
        train = TrainingMatrix.from_data(data)
        kind = spec.kind
        if kind == "combined":
            kind = "empirical" if len(s) <= spec.d_star else spec.parametric_backend
        if kind == "empirical":
            return estimate_v_empirical(train, self.predictor, s, x_star, sigma=spec.sigma,
                                        eta=spec.eta, k_cap=min(spec.k_cap, self.K))
        if kind == "gaussian":
            cond = gaussian_conditional(train, s, x_star)
            draws = sample_gaussian_conditional(cond, self.K, rng)
        else:
            state = fit_copula(train)
            v_s = ndtri(state.cdf(s, x_star[list(s)]))
            draws = sample_copula_conditional(state, s, v_s, self.K, rng)
        synth = np.tile(x_star, (self.K, 1))
        synth[:, [j for j in range(5) if j not in s]] = draws
        return float(self.predictor(synth).mean())

    @pytest.mark.parametrize("label,case", [
        ("gaussian", "plain"),
        ("gaussian", "ridge"),
        ("copula", "plain"),
        ("copula", "ridge"),
        ("copula", "degenerate"),
        ("empirical-0.1+gaussian", "plain"),
        ("empirical-0.1+copula", "degenerate"),
    ])
    def test_every_coalition_in_both_instance_orders(self, label, case):
        data = self.data(case)
        spec = SamplerSpec.from_label(label, d_star=2)
        x = 0.8 * data[:2] + 0.1
        coalitions = [s for s in enumerate_coalitions(5).coalitions if 0 < len(s) < 5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            expected = {}
            for i in (0, 1):
                rng = np.random.default_rng([7, i])
                for s in coalitions:
                    expected[(i, s)] = self.reference(data, spec, s, x[i], rng)
            for order in ((0, 1), (1, 0)):
                train = TrainingMatrix.from_data(data)
                sampler = FittedSampler(spec, train)
                for i in order:
                    draws = sampler.instance_draws(x[i], [7, i])
                    for r, s in enumerate(coalitions):
                        v = sampler.contribution(self.predictor, s, x[i], self.K, [7, i, r],
                                                 sigma=spec.sigma, draws=draws)
                        assert v == expected[(i, s)], (order, i, s)
        plans = train.plans if sampler.copula is None else sampler.copula.plans
        parametric = [s for s in coalitions if spec.kind != "combined" or len(s) > spec.d_star]
        assert sorted(plans) == sorted(parametric)
        if case == "ridge":
            assert any(plan.ridge > 0 for plan in plans.values())
            assert all(plan.ridge == 0 for s, plan in plans.items() if not {0, 4} <= set(s))

    @pytest.mark.parametrize("case", ["plain", "ridge"])
    def test_conditionals_equal_moments_reference(self, case):
        """Mean and factor through the shared plans equal a fresh plan's, plus an eigen-factor.

        Instance 0 builds every plan and instance 1 reuses it, in data space
        (``gaussian_conditional``) and in the copula's latent space.
        """

        def reference(mean, cov, s, x_s):
            plan = conditional_moments(cov, s)
            vals, vecs = np.linalg.eigh(plan.sigma)
            return plan.mean(mean, x_s), vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]

        data = self.data(case)
        coalitions = [s for s in enumerate_coalitions(5).coalitions if 0 < len(s) < 5]
        zero = np.zeros(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            train = TrainingMatrix.from_data(data)
            state = fit_copula(train)
            for i, x_star in enumerate(0.8 * data[:2] + 0.1):
                for s in coalitions:
                    x_s = x_star[list(s)]
                    cond = gaussian_conditional(train, s, x_star)
                    mu, factor = reference(train.mean, train.covariance, s, x_s)
                    assert np.array_equal(cond.mu_cond, mu), (i, s)
                    assert np.array_equal(cond.factor, factor), (i, s)
                    v_star = ndtri(state.cdf(s, x_s))
                    plan = samplers._plan_for(
                        state.plans, state.latent_correlation, s, "copula conditional",
                        state.well_conditioned,
                    )
                    mu, factor = reference(zero, state.latent_correlation, s, v_star)
                    assert np.array_equal(plan.mean(zero, v_star), mu), (i, s)
                    assert np.array_equal(plan.factor, factor), (i, s)
                if i == 0:
                    assert sorted(train.plans) == sorted(state.plans) == sorted(coalitions)
        for plans in (train.plans, state.plans):
            ridged = any(plan.ridge > 0 for plan in plans.values())
            assert ridged == (case == "ridge")

    @pytest.mark.parametrize("case", ["plain", "degenerate"])
    def test_copula_draws_equal_column_by_column_reference(self, case):
        data = self.data(case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            state = fit_copula(TrainingMatrix.from_data(data))
        coalitions = [s for s in enumerate_coalitions(5).coalitions if 0 < len(s) < 5]
        for i, x_star in enumerate(0.8 * data[:2] + 0.1):
            latent = state.latent(x_star)
            for r, s in enumerate(coalitions):
                draws = sample_copula_conditional(state, s, latent[list(s)], self.K, [3, i, r])
                expected = _copula_draws_by_column(state, s, x_star, self.K, [3, i, r])
                assert np.array_equal(draws, expected), (i, s)


class TestRidgeDecidedOncePerMatrix:
    """A well-conditioned matrix settles every block's ridge with one cond call."""

    @staticmethod
    def count_cond_calls(monkeypatch) -> list:
        shapes = []
        original = np.linalg.cond

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting)
        return shapes

    @staticmethod
    def explainers(data) -> list:
        """Four explainers on one fresh training matrix; their solvers' cond calls are made."""
        from condshap.explain import Explainer

        train = TrainingMatrix.from_data(data)
        f = lambda X: np.atleast_2d(X) @ np.arange(1.0, data.shape[1] + 1)
        labels = ("gaussian", "copula", "empirical-aicc-exact+gaussian", "empirical-0.1")
        return [Explainer(train, f, SamplerSpec.from_label(label, d_star=2, n_aicc=60), k=50)
                for label in labels]

    def test_well_conditioned_fit_checks_no_block(self, monkeypatch):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((300, 4)) @ (np.eye(4) + 0.3 * np.ones((4, 4)))
        explainers = self.explainers(data)
        shapes = self.count_cond_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticWarning)
            for explainer in explainers:
                explainer.explain(data[:2])
        assert [shape for shape in shapes if shape[0] < 4] == []
        assert shapes == [(4, 4), (4, 4)]  # the covariance and the latent correlation

    def test_near_collinear_fit_checks_each_block(self, monkeypatch):
        rng = np.random.default_rng(32)
        data = rng.standard_normal((300, 4))
        data[:, 3] = data[:, 2] + 1e-7 * rng.standard_normal(300)
        explainers = self.explainers(data)
        shapes = self.count_cond_calls(monkeypatch)
        with pytest.warns(DiagnosticWarning, match="near-singular covariance block"):
            for explainer in explainers:
                explainer.explain(data[:2])
        assert any(shape[0] < 4 for shape in shapes)


class TestNoSolveOnceThePlansExist:
    """A warm instance takes its Gaussian and copula conditional means from the
    plans' regression matrices, without a solve.

    The only ``np.linalg.solve`` left on such an instance is the empirical
    part's whitening of its own distances (``_whiten``), one per empirical
    coalition: that solve depends on x*.
    """

    @pytest.mark.parametrize("label", ["gaussian", "copula", "empirical-0.1+gaussian"])
    def test_second_instance(self, label, monkeypatch):
        from condshap.explain import Explainer

        rng = np.random.default_rng(33)
        data = rng.standard_normal((300, 5)) @ (np.eye(5) + 0.3 * np.ones((5, 5)))
        f = lambda X: np.atleast_2d(X) @ np.arange(1.0, 6.0)
        spec = SamplerSpec.from_label(label, d_star=2)
        explainer = Explainer(TrainingMatrix.from_data(data), f, spec, k=50)
        explainer.explain_one(data[0], 0)
        callers = []
        solve = np.linalg.solve

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        explainer.explain_one(data[1], 1)
        empirical = [s for s in explainer.cm.coalitions
                     if spec.kind == "combined" and 0 < len(s) <= spec.d_star]
        assert callers == ["_whiten"] * len(empirical)


class TestPlansMatchSlowReference:
    """Plan mean and conditional covariance against the per-call formula of
    ``tests/conditioning_reference.py`` at every proper coalition of m=5.

    The plan solves Sigma_SS once for its regression matrix B_S and takes
    mean_Sbar + (x_s - mean_S) B_S; the reference solves Sigma_SS against
    [Sigma_{S,Sbar}, x_s - mean_S] on each call and multiplies by
    Sigma_{Sbar,S}.  The same moments in a different order of operations
    differ by rounding only: a few ulps of values of order one (at most
    8.9e-16 on these data, ridged blocks included, since the ridge keeps
    cond(Sigma_SS) near 1e8 at worst).  1e-13 is a hundred times that, and
    a formula error would miss it by many orders of magnitude.
    """

    BOUND = 1e-13

    @pytest.mark.parametrize("case", ["plain", "ridge"])
    def test_data_and_latent_space(self, case):
        data = TestPlansMatchPerCallReference.data(case)
        coalitions = [s for s in enumerate_coalitions(5).coalitions if 0 < len(s) < 5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            train = TrainingMatrix.from_data(data)
            state = fit_copula(train)
            spaces = (
                (train.plans, train.mean, train.checked_covariance, train.well_conditioned),
                (state.plans, np.zeros(5), state.latent_correlation, state.well_conditioned),
            )
            for x_star in 0.8 * data[:3] + 0.1:
                latent = state.latent(x_star)
                for (plans, mean, cov, well), values in zip(spaces, (x_star, latent)):
                    for s in coalitions:
                        x_s = values[list(s)]
                        plan = samplers._plan_for(plans, cov, s, "reference", well)
                        mu, sigma = reference_conditional_moments(mean, cov, s, x_s)
                        got = plan.mean(mean, x_s)
                        np.testing.assert_allclose(got, mu, rtol=0, atol=self.BOUND)
                        np.testing.assert_allclose(plan.sigma, sigma, rtol=0, atol=self.BOUND)
        for plans, *_ in spaces:
            assert any(plan.ridge > 0 for plan in plans.values()) == (case == "ridge")
