"""Reference Shapley computation: closed forms, quadrature, Monte Carlo."""

import dataclasses
import functools
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from condshap import oracles
from condshap.coalitions import enumerate_coalitions, exact_shapley
from condshap.errors import DiagnosticWarning, QuadratureConvergenceError
from condshap.oracles import (
    HALF_WIDTH_SDS,
    GridSpec,
    gauss_legendre,
    linear_dependent_shapley,
    linear_dependent_v,
    linear_independent_shapley,
    quadrature_mean_prediction,
    true_shapley_mc,
    true_shapley_quadrature,
)
from condshap.simlab.distributions import (
    GaussianFeatures,
    GHFeatures,
    GHParams,
    MixtureFeatures,
)
from condshap.simlab.models import OlsModel
from shapley_reference import reference_mc_std_error


class TestLinearIndependent:
    def test_direct_substitution(self):
        model = OlsModel(beta0=0.0, beta=np.array([2.0, -1.0]))
        res = linear_independent_shapley(model, [0.0, 0.0], np.array([1.0, 1.0]))
        assert res.phi == pytest.approx([2.0, -1.0])
        assert res.phi0 == 0.0

    def test_zero_at_the_mean(self):
        model = OlsModel(beta0=1.5, beta=np.array([3.0, 4.0]))
        res = linear_independent_shapley(model, [0.2, -0.4], np.array([0.2, -0.4]))
        assert res.phi == pytest.approx([0.0, 0.0], abs=1e-14)
        assert res.phi0 == pytest.approx(model(np.array([[0.2, -0.4]]))[0])

    def test_agrees_with_exact_shapley_on_derived_table(self):
        model = OlsModel(beta0=0.7, beta=np.array([1.0, -2.0, 0.5]))
        feature_mean = np.array([0.3, 0.1, -0.2])
        x_star = np.array([1.0, 0.5, -1.0])

        def v(s):
            total = model.beta0
            for j in range(3):
                total += model.beta[j] * (x_star[j] if j in s else feature_mean[j])
            return total

        table = np.array([v(s) for s in enumerate_coalitions(3).coalitions])
        combinatorial = exact_shapley(table)
        closed = linear_independent_shapley(model, feature_mean, x_star)
        assert combinatorial.phi == pytest.approx(closed.phi, abs=1e-10)
        assert combinatorial.phi0 == pytest.approx(closed.phi0, abs=1e-10)


class TestLinearDependent:
    def test_reduces_to_independence_when_uncorrelated(self):
        model = OlsModel(beta0=0.0, beta=np.array([1.0, 2.0]))
        feature_mean = np.array([0.5, -0.5])
        cond_mean = lambda s, x_s: np.array([feature_mean[j] for j in range(2) if j not in s])
        v = linear_dependent_v(model, cond_mean, (0,), np.array([1.0, 9.9]))
        assert v == pytest.approx(1.0 * 1.0 + 2.0 * (-0.5))

    def test_equicorrelated_hand_example(self):
        rho, a, b = 0.6, 1.3, -0.7
        model = OlsModel(beta0=0.0, beta=np.array([1.0, 1.0]))
        dist = GaussianFeatures.equicorrelated(2, rho)
        v = linear_dependent_v(model, dist.conditional_mean, (0,), np.array([a, b]))
        assert v == pytest.approx(a + rho * a)

    def test_full_coalition_returns_prediction(self):
        model = OlsModel(beta0=0.2, beta=np.array([1.0, -1.0]))
        x_star = np.array([0.4, 0.9])
        cond_mean = lambda s, x_s: np.zeros(0)
        v = linear_dependent_v(model, cond_mean, (0, 1), x_star)
        assert v == pytest.approx(float(model(x_star[None, :])[0]))


@pytest.fixture(scope="module")
def gaussian_case():
    dist = GaussianFeatures.equicorrelated(3, 0.6)
    model = OlsModel(beta0=0.3, beta=np.array([1.0, 2.0, -1.5]))
    predictor = lambda X: model(X)
    x_star = np.array([0.7, -1.2, 0.4])
    return dist, model, predictor, x_star


class TestQuadrature:
    def test_linear_gaussian_matches_closed_form(self, gaussian_case):
        dist, model, predictor, x_star = gaussian_case
        ref = linear_dependent_shapley(model, dist.mean, dist.conditional_mean, x_star)
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        assert quad.phi == pytest.approx(ref.phi, abs=1e-6)
        assert quad.phi0 == pytest.approx(ref.phi0, abs=1e-6)
        assert quad.diagnostics["refined"] is True

    def test_rank_deficient_gaussian_matches_closed_form(self):
        """x3 = x1 + x2: Sigma has rank 2 and several conditional covariances
        are singular; their components integrate through the eigen-factor."""
        rho = 0.3
        cov = np.array([[1.0, rho, 1.0 + rho], [rho, 1.0, 1.0 + rho],
                        [1.0 + rho, 1.0 + rho, 2.0 + 2.0 * rho]])
        model = OlsModel(beta0=0.2, beta=np.array([1.0, -0.5, 2.0]))
        x_star = np.array([0.4, -0.7, -0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            dist = GaussianFeatures(np.zeros(3), cov)
            quad = true_shapley_quadrature(dist, model, x_star)
            exact = linear_dependent_shapley(model, dist.mean, dist.conditional_mean, x_star)
        assert quad.diagnostics["refined"] is True
        np.testing.assert_allclose(quad.phi, exact.phi, rtol=0, atol=1e-9)
        assert quad.phi0 == pytest.approx(exact.phi0, abs=1e-9)

    @pytest.mark.parametrize("points", [0, 129, 100_000])
    def test_grid_spec_refuses_points_out_of_range(self, points):
        message = rf"points_per_axis must be in \[1, 128\], got {points}"
        with pytest.raises(ValueError, match=message):
            GridSpec(points_per_axis=points)

    def test_constant_predictor(self, gaussian_case):
        dist, _, _, x_star = gaussian_case
        predictor = lambda X: np.full(len(np.atleast_2d(X)), 4.5)
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        assert quad.phi == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
        assert quad.phi0 == pytest.approx(4.5)

    def test_independent_features_match_monte_carlo(self):
        dist = GaussianFeatures.equicorrelated(3, 0.0)
        predictor = lambda X: np.tanh(X[:, 0]) + X[:, 1] * X[:, 2]
        x_star = np.array([0.5, -0.3, 0.8])
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        mc = true_shapley_mc(dist, predictor, x_star, 100_000, rng_seed=4)
        assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.diagnostics["mc_std_error"])

    def test_efficiency(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        assert quad.total == pytest.approx(float(predictor(x_star[None, :])[0]), abs=1e-6)

    def test_nonconvergent_refinement_raises(self):
        dist = GaussianFeatures.equicorrelated(2, 0.0)
        wild = lambda X: np.sin(40.0 * X[:, 0]) * np.cos(37.0 * X[:, 1])
        with pytest.raises(QuadratureConvergenceError) as err:
            true_shapley_quadrature(
                dist, wild, np.array([0.1, 0.2]), GridSpec(points_per_axis=4)
            )
        assert err.value.residuals

    def test_dimension_cap(self):
        dist = GaussianFeatures.equicorrelated(5, 0.0)
        with pytest.raises(ValueError, match="dimension"):
            true_shapley_quadrature(dist, lambda X: X[:, 0], np.zeros(5))

    def test_gh_quadrature_agrees_with_monte_carlo(self):
        dist = GHFeatures(GHParams.from_kappa(3, kappa=2.0))
        predictor = lambda X: X[:, 0] + 0.5 * X[:, 1] ** 2 - X[:, 2]
        rng = np.random.default_rng(8)
        x_star = dist.sample(1, rng)[0]
        quad = true_shapley_quadrature(
            dist, predictor, x_star, GridSpec(points_per_axis=48)
        )
        mc = true_shapley_mc(dist, predictor, x_star, 150_000, rng_seed=9)
        assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.diagnostics["mc_std_error"])

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 5.0])
    def test_gh_mixing_weights_sum_to_one(self, kappa):
        # The log-w range is cut where the mixing density's exponential factor
        # is e^-25 of its peak; nothing checks that truncation at run time.
        # The last x* lies far out, where a cut that ignores the peak loses mass.
        dist = GHFeatures(GHParams.from_kappa(3, kappa=kappa))
        xs = np.vstack([dist.sample(3, np.random.default_rng(30)), [4.0, -3.0, 6.0]])
        for x_star in xs:
            for s in enumerate_coalitions(3).coalitions[:-1]:
                comps = dist.conditional_components(s, x_star[list(s)])
                assert len(comps) == 48
                assert sum(c.weight for c in comps) == pytest.approx(1.0, abs=1e-8)

    def test_gh_truths_of_the_digest_case_agree_with_monte_carlo(self):
        """The inputs of the ``truths-quadrature-gh`` digest: 24 points, unrefined."""
        dist = GHFeatures(GHParams.from_kappa(3, kappa=2.0))
        grid = GridSpec(points_per_axis=24, refine=False)
        mean = quadrature_mean_prediction(dist, _digest_nonlinear, grid)
        for i, x_star in enumerate(dist.sample(3, np.random.default_rng(30))):
            quad = true_shapley_quadrature(dist, _digest_nonlinear, x_star, grid, v_empty=mean)
            mc = true_shapley_mc(dist, _digest_nonlinear, x_star, 200_000, rng_seed=[7, i])
            assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.diagnostics["mc_std_error"])

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_refined_gh_truths_match_the_closed_form(self, kappa):
        """The default grid, refined, on an OLS model fitted to 2,000 GH rows."""
        from condshap.samplers import TrainingMatrix
        from condshap.simlab import fit_ols, gh_conditional, linear_sampling_model

        params = GHParams.from_kappa(3, kappa=kappa)
        dist = GHFeatures(params)
        train = dist.sample(2000, np.random.default_rng([0, 0, 0]))
        model = fit_ols(TrainingMatrix.from_data(train), linear_sampling_model(train, [0, 0, 1]))
        mean = quadrature_mean_prediction(dist, model)
        assert mean == pytest.approx(float(model(params.mean())[0]), abs=1e-6)
        for x_star in dist.sample(3, np.random.default_rng([0, 0, 2])):
            quad = true_shapley_quadrature(dist, model, x_star, v_empty=mean)
            assert quad.diagnostics["refined"]
            exact = linear_dependent_shapley(
                model, params.mean(), lambda s, x_s: gh_conditional(params, s, x_s).mean(), x_star
            )
            np.testing.assert_allclose(quad.phi, exact.phi, rtol=0, atol=1e-6)

    def test_mixture_truth_handles_separated_modes(self):
        dist = MixtureFeatures.from_gamma(6.0)
        model = OlsModel(beta0=0.0, beta=np.array([1.0, 1.0, 1.0]))
        predictor = lambda X: model(X)
        rng = np.random.default_rng(0)
        x_star = dist.sample(1, rng)[0]
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        mc = true_shapley_mc(dist, predictor, x_star, 200_000, rng_seed=1)
        assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.diagnostics["mc_std_error"] + 1e-6)


def _reference_gather(center, factor, axes_nodes, index):
    """Column j at the grid rows ``index``: ((center[j] + F[j, 0] u_0) + F[j, 1] u_1) + ...

    The nodes are gathered at each row's unravelled index, then summed term
    by term in the order the oracle's broadcast fill uses.
    """
    nodes = [axis[k] for axis, k in zip(axes_nodes, index)]
    columns = []
    for start, row in zip(center, factor):
        value = start + row[0] * nodes[0]
        for coef, node in zip(row[1:], nodes[1:]):
            value = value + coef * node
        columns.append(value)
    return columns


def _reference_component_integral(predictor, s, x_star, comp, m, points):
    """The whole tensor grid in one batch, gathered at unravelled indices.

    The slow reference for ``oracles._law_integral`` of one unit-weight
    component, with a fresh ``leggauss`` rule per call: nodes u = hw t and
    weights hw w phi(u).
    """
    sbar = [j for j in range(m) if j not in s]
    d = len(sbar)
    nodes, weights = np.polynomial.legendre.leggauss(points)
    u = HALF_WIDTH_SDS * nodes
    w = weights * HALF_WIDTH_SDS * (np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
    index = np.unravel_index(np.arange(points ** d), (points,) * d)
    synth = np.tile(x_star, (points ** d, 1))
    synth[:, sbar] = np.column_stack(_reference_gather(comp.center, comp.factor, [u] * d, index))
    wts = functools.reduce(np.multiply, [w[k] for k in index])
    return float(np.sum(wts * predictor(synth)))


def _digest_nonlinear(x):
    """The nonlinear model of the ``truths-*`` digest cases."""
    return 0.3 + x[:, 0] - 0.5 * x[:, 1] ** 2 + np.tanh(x[:, 2]) + 0.2 * x[:, 0] * x[:, -1]


def _nonlinear(X):
    return 0.3 + X[:, 0] - 0.5 * X[:, 1] ** 2 + np.tanh(X[:, 2]) + 0.2 * X[:, 0] * X[:, 2]


DISTRIBUTIONS = {
    "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
    "mixture": lambda: MixtureFeatures.from_gamma(1.0),
    "gh": lambda: GHFeatures(GHParams.from_kappa(3, kappa=2.0)),
}


class TestChunkedQuadrature:
    """The chunked tensor grid against the one-batch reference, bit for bit."""

    X_STAR = np.array([0.7, -1.2, 0.4])

    @pytest.mark.parametrize("chunk", [1000, 7, None])
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("s", [(0, 1), (2,), ()], ids=["d1", "d2", "d3"])
    def test_component_integral_equals_reference(self, monkeypatch, name, s, chunk):
        if chunk is not None:
            monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
        dist = DISTRIBUTIONS[name]()
        comps = dist.conditional_components(s, self.X_STAR[list(s)])
        if name == "gh":
            assert len(comps) == 48  # the GIG mixing decomposition, conditional or not
        for comp in comps[:: max(1, len(comps) // 3)]:
            points = 11 if len(s) == 0 else 40  # grids of 40 to 6,400 rows: ragged chunks
            unit = dataclasses.replace(comp, weight=1.0)
            got = oracles._law_integral(_nonlinear, s, self.X_STAR, [unit], points)
            expected = _reference_component_integral(
                _nonlinear, s, self.X_STAR, comp, 3, points
            )
            assert got == expected

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_oracle_values_do_not_depend_on_chunk_size(self, monkeypatch, name):
        dist = DISTRIBUTIONS[name]()
        spec = GridSpec(points_per_axis=8, refine=False)

        def run():
            mean = quadrature_mean_prediction(dist, _nonlinear, spec)
            res = true_shapley_quadrature(dist, _nonlinear, self.X_STAR, spec)
            return mean, res.phi0, res.phi.tobytes()

        default = run()
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 1000)
        assert run() == default
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 7)
        assert run() == default

    @pytest.mark.parametrize("chunk", [1000, None])
    def test_predictor_never_sees_more_than_a_chunk(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
        batches = []

        def counting(X):
            batches.append(len(X))
            return _nonlinear(X)

        dist = GaussianFeatures.equicorrelated(3, 0.5)
        # 40**3 = 64,000 grid rows at the base resolution, 80**3 when refined.
        quadrature_mean_prediction(dist, counting, GridSpec(points_per_axis=40))
        assert max(batches) <= oracles.CHUNK_ROWS
        assert sum(batches) == 40 ** 3 + 80 ** 3
        batches.clear()
        true_shapley_quadrature(dist, counting, self.X_STAR, GridSpec(points_per_axis=40))
        assert max(batches) <= oracles.CHUNK_ROWS

    def test_chunks_are_full_where_slices_divide_them(self):
        batches = []

        def counting(X):
            batches.append(len(X))
            return _nonlinear(X)

        dist = GaussianFeatures.equicorrelated(3, 0.5)
        # 32**3 rows in slices of 1,024, then 64**3 in slices of 4,096: both
        # divide a chunk, so the grids go in 1 + 8 full chunks.
        quadrature_mean_prediction(dist, counting, GridSpec(points_per_axis=32))
        assert batches == [oracles.CHUNK_ROWS] * 9

    def test_default_chunk(self):
        assert oracles.CHUNK_ROWS == 2 ** 15


class TestOneMeanPrediction:
    """E[f] is integrated by ``quadrature_mean_prediction`` alone."""

    X_STAR = np.array([0.7, -1.2, 0.4])

    @pytest.mark.parametrize(
        "name, points, refine",
        [(name, 8, False) for name in sorted(DISTRIBUTIONS)]
        + [("gaussian", 32, True), ("mixture", 32, True)],
    )
    def test_without_v_empty_equals_the_shared_mean(self, name, points, refine):
        dist = DISTRIBUTIONS[name]()
        spec = GridSpec(points_per_axis=points, refine=refine)
        mean = quadrature_mean_prediction(dist, _nonlinear, spec)
        given = true_shapley_quadrature(dist, _nonlinear, self.X_STAR, spec, v_empty=mean)
        alone = true_shapley_quadrature(dist, _nonlinear, self.X_STAR, spec)
        assert alone.phi0 == given.phi0 == mean
        assert alone.phi.tobytes() == given.phi.tobytes()
        assert alone.diagnostics == given.diagnostics
        assert alone.estimator_id == "quadrature"
        assert alone.diagnostics["refined"] is refine

    def test_without_v_empty_the_mean_must_converge(self):
        dist = DISTRIBUTIONS["gaussian"]()
        with pytest.raises(QuadratureConvergenceError, match="mean-prediction") as err:
            true_shapley_quadrature(dist, _nonlinear, self.X_STAR, GridSpec(points_per_axis=8))
        assert list(err.value.residuals) == [()]

    def test_an_instance_given_v_empty_integrates_no_mean(self):
        rows = []

        def counting(X):
            rows.append(len(X))
            return _nonlinear(X)

        dist = GaussianFeatures.equicorrelated(3, 0.5)
        spec = GridSpec(points_per_axis=8, refine=False)
        true_shapley_quadrature(dist, counting, self.X_STAR, spec, v_empty=0.25)
        # Three 8 x 8 grids, three 8-node lines and the full row: no 8**3 grid.
        assert sum(rows) == 3 * 8 ** 2 + 3 * 8 + 1
        rows.clear()
        true_shapley_quadrature(dist, counting, self.X_STAR, spec)
        assert sum(rows) == 8 ** 3 + 3 * 8 ** 2 + 3 * 8 + 1


class TestOneFullPrediction:
    """f(x*) is computed once per instance and shared by both grids."""

    def test_a_refined_instance_calls_the_model_once_on_x_star(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        rows = []

        def counting(X):
            rows.append(len(X))
            return predictor(X)

        for x in [x_star, -x_star]:
            rows.clear()
            res = true_shapley_quadrature(dist, counting, x, GridSpec(32), v_empty=0.25)
            assert res.diagnostics["refined"] is True
            # Three lines and three squares at 32 and at 64 points, and f(x*).
            assert rows.count(1) == 1
            assert sum(rows) == 3 * (32 + 64) + 3 * (32 ** 2 + 64 ** 2) + 1


class TestGridChunks:
    """The grid's box chunks tile it once, in row order, and each box's fill
    equals the gather at its rows' unravelled indices bit for bit."""

    @staticmethod
    def check_fill(shape, nodes, weights, center, factor):
        d, size = len(shape), math.prod(shape)
        cols = list(range(d, 0, -1))  # axis j to column d - j; column 0 is left alone
        start = 0
        for lead, lo, hi in oracles._grid_chunks(shape):
            batch = np.full((oracles.CHUNK_ROWS, d + 1), np.nan)
            wts = np.full(oracles.CHUNK_ROWS, np.nan)
            rows = oracles._fill_grid_rows(
                batch, cols, wts, center, factor, nodes, weights, lead, lo, hi
            )
            assert 0 < rows <= oracles.CHUNK_ROWS
            # The box is the next rows of the grid, in row order.
            index = np.unravel_index(np.arange(start, start + rows), shape)
            for col, gathered in zip(cols, _reference_gather(center, factor, nodes, index)):
                assert batch[:rows, col].tobytes() == gathered.tobytes()
            gathered = functools.reduce(np.multiply, [axis[k] for axis, k in zip(weights, index)])
            assert wts[:rows].tobytes() == gathered.tobytes()
            assert np.isnan(batch[:, 0]).all()
            assert np.isnan(batch[rows:]).all() and np.isnan(wts[rows:]).all()
            start += rows
        assert start == size

    @pytest.mark.parametrize("chunk", [1, 7, 13, None], ids=["1", "7", "13", "whole"])
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 5), (4, 1, 3)])
    def test_boxes_tile_the_grid_and_fill_as_the_gather(self, monkeypatch, shape, chunk):
        rng = np.random.default_rng(len(shape))
        nodes = [rng.standard_normal(n) for n in shape]
        weights = [rng.random(n) for n in shape]
        d = len(shape)
        center, factor = rng.standard_normal(d), rng.standard_normal((d, d))
        monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk or math.prod(shape))
        self.check_fill(shape, nodes, weights, center, factor)

    @pytest.mark.parametrize("shape", [(64, 64, 64), (128, 128)], ids=["64x64x64", "128x128"])
    def test_workload_grids_at_the_default_chunk(self, shape):
        """The grids of a 3-D experiment: E[f] at 64 points (eight full
        boxes) and a one-feature coalition refined to 128 (one box), on the
        whitened rule and at the default ``CHUNK_ROWS``."""
        rng = np.random.default_rng(len(shape))
        u, w = oracles._whitened_rule(shape[0])
        d = len(shape)
        center, factor = rng.standard_normal(d), rng.standard_normal((d, d))
        self.check_fill(shape, [u] * d, [w] * d, center, factor)


def _pieces(terms, size):
    """``terms`` in consecutive pieces of ``size``, each written over the
    last in one reused buffer, as the oracle's boxes are."""
    buf = np.empty(size)
    for lo in range(0, len(terms), size):
        piece = buf[: min(size, len(terms) - lo)]
        piece[:] = terms[lo : lo + len(piece)]
        yield piece


class TestStreamedSum:
    """The sum streamed a piece at a time against one ``np.sum``, bit for bit."""

    @pytest.mark.parametrize(
        "n", [1, 7, 8, 129, 24 ** 3, 48 ** 3, 2 ** 18, 1_000_000, 2 ** 21]
    )
    def test_equals_np_sum(self, n):
        rng = np.random.default_rng(n)
        # Magnitudes from e^-30 to e^30 and both signs: every order of
        # addition rounds differently.
        terms = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        expected = float(np.sum(terms))
        for size in [7, 100, 128, 1000, 2 ** 15]:
            assert oracles._streamed_sum(_pieces(terms, size), n) == expected, size


class TestQuadratureMemory:
    """A refined E[f] on the 128**3 grid holds a few chunks, not the grid."""

    def test_mean_prediction_holds_no_grid_sized_buffer(self):
        beta = np.array([1.0, -2.0, 0.5])
        linear = lambda X: 0.3 + X @ beta
        dist = GaussianFeatures.equicorrelated(3, 0.5)
        spec = GridSpec(points_per_axis=64)  # refined: 128**3 rows, 16 MiB a float each
        expected = quadrature_mean_prediction(dist, linear, spec)  # builds the cached rules
        gc.collect()
        gc.disable()
        try:
            tracemalloc.start()
            try:
                value = quadrature_mean_prediction(dist, linear, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Each call's buffers are freed when it returns, not by the cyclic collector.
            garbage = gc.collect()
        finally:
            gc.enable()
        assert value == expected
        assert peak < 4 * 2 ** 20
        assert garbage == 0


class TestGaussLegendre:
    @pytest.mark.parametrize("points", [8, 48, 64, 128])
    def test_equals_leggauss(self, points):
        nodes, weights = gauss_legendre(points)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(points)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)

    def test_built_once_and_read_only(self):
        nodes, weights = gauss_legendre(16)
        assert gauss_legendre(16)[0] is nodes
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            weights *= 2.0


class TestMixtureConditionalDensity:
    def test_integrates_to_one(self):
        mix = MixtureFeatures.from_gamma(2.0)
        comps = mix.conditional_components((0,), np.array([1.0]))

        def density(points):
            # Each component's N(center, F F^T) density, built here from (center, F).
            return sum(
                c.weight * stats.multivariate_normal(c.center, c.factor @ c.factor.T).pdf(points)
                for c in comps
            )

        nodes, weights = np.polynomial.legendre.leggauss(200)
        lo, hi = -20.0, 20.0
        pts1 = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w1 = 0.5 * (hi - lo) * weights
        g1, g2 = np.meshgrid(pts1, pts1, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        total = float(np.sum(np.outer(w1, w1).ravel() * density(pts)))
        assert abs(total - 1.0) < 1e-6

    def test_posterior_weights_favor_nearer_mode(self):
        mix = MixtureFeatures.from_gamma(5.0)
        post = mix.posterior_weights((0,), np.array([5.0]))
        assert post[0] > 0.999  # component 1 has mean +5 in coordinate 0


class TestMonteCarlo:
    def test_ten_dim_linear_matches_closed_form(self):
        dist = GaussianFeatures.equicorrelated(10, 0.5)
        model = OlsModel(beta0=0.1, beta=np.linspace(-1.0, 1.0, 10))
        predictor = lambda X: model(X)
        x_star = np.linspace(-0.5, 0.5, 10)
        ref = linear_dependent_shapley(model, dist.mean, dist.conditional_mean, x_star)
        mc = true_shapley_mc(dist, predictor, x_star, 4000, rng_seed=7)
        assert np.all(np.abs(mc.phi - ref.phi) <= 4 * mc.diagnostics["mc_std_error"])

    def test_standard_error_scaling(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        small = true_shapley_mc(dist, predictor, x_star, 5000, rng_seed=3)
        large = true_shapley_mc(dist, predictor, x_star, 10_000, rng_seed=3)
        ratio = large.diagnostics["mc_std_error"] / small.diagnostics["mc_std_error"]
        assert np.all(ratio > (1 / math.sqrt(2)) * 0.8)
        assert np.all(ratio < (1 / math.sqrt(2)) * 1.2)

    def test_seed_determinism(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        a = true_shapley_mc(dist, predictor, x_star, 2000, rng_seed=11)
        b = true_shapley_mc(dist, predictor, x_star, 2000, rng_seed=11)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.diagnostics["mc_std_error"], b.diagnostics["mc_std_error"])

    @pytest.mark.parametrize("m", range(1, 11))
    def test_standard_errors_match_the_coefficient_map(self, m):
        calls = []

        def recording(X):
            preds = np.sin(X).sum(axis=1) + 0.5 * X[:, 0] * X[:, -1]
            calls.append(preds)
            return preds

        dist = GaussianFeatures.equicorrelated(m, 0.4)
        x_star = np.linspace(-1.0, 1.0, m)
        mc = true_shapley_mc(dist, recording, x_star, 20, rng_seed=m)
        # One predictor call per coalition, in row order; the full row has no variance.
        var = np.array([p.var(ddof=1) / 20 if len(p) > 1 else 0.0 for p in calls])
        assert len(var) == 2 ** m
        se = mc.diagnostics["mc_std_error"]
        assert np.max(np.abs(se - reference_mc_std_error(m, var))) <= 1e-12
        assert mc.estimator_id == "monte_carlo"
        assert mc.diagnostics["n_mc"] == 20

    def test_efficiency_holds_algebraically(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        mc = true_shapley_mc(dist, predictor, x_star, 2000, rng_seed=2)
        # phi0 + sum(phi) equals the exact v(full) = f(x*) by construction.
        assert mc.total == pytest.approx(float(predictor(x_star[None, :])[0]), abs=1e-10)
