"""Reference Shapley computation: closed forms, quadrature, Monte Carlo."""

import functools
import math

import numpy as np
import pytest

from condshap import oracles
from condshap.coalitions import ContributionVector, exact_shapley
from condshap.errors import QuadratureConvergenceError
from condshap.oracles import (
    HALF_WIDTH_SDS,
    GridSpec,
    LinearModelSpec,
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
    MixtureParams,
)


class TestLinearIndependent:
    def test_direct_substitution(self):
        model = LinearModelSpec(beta0=0.0, beta=[2.0, -1.0], feature_mean=[0.0, 0.0])
        res = linear_independent_shapley(model, np.array([1.0, 1.0]))
        assert res.phi == pytest.approx([2.0, -1.0])
        assert res.phi0 == 0.0

    def test_zero_at_the_mean(self):
        model = LinearModelSpec(beta0=1.5, beta=[3.0, 4.0], feature_mean=[0.2, -0.4])
        res = linear_independent_shapley(model, np.array([0.2, -0.4]))
        assert res.phi == pytest.approx([0.0, 0.0], abs=1e-14)
        assert res.phi0 == pytest.approx(model.predict(np.array([[0.2, -0.4]]))[0])

    def test_agrees_with_exact_shapley_on_derived_table(self):
        model = LinearModelSpec(
            beta0=0.7, beta=[1.0, -2.0, 0.5], feature_mean=[0.3, 0.1, -0.2]
        )
        x_star = np.array([1.0, 0.5, -1.0])

        def v(s):
            total = model.beta0
            for j in range(3):
                total += model.beta[j] * (x_star[j] if j in s else model.feature_mean[j])
            return total

        table = ContributionVector.from_function(3, v)
        combinatorial = exact_shapley(table)
        closed = linear_independent_shapley(model, x_star)
        assert combinatorial.phi == pytest.approx(closed.phi, abs=1e-10)
        assert combinatorial.phi0 == pytest.approx(closed.phi0, abs=1e-10)


class TestLinearDependent:
    def test_reduces_to_independence_when_uncorrelated(self):
        model = LinearModelSpec(beta0=0.0, beta=[1.0, 2.0], feature_mean=[0.5, -0.5])
        cond_mean = lambda s, x_s: np.array(
            [model.feature_mean[j] for j in range(2) if j not in s]
        )
        v = linear_dependent_v(model, cond_mean, (0,), np.array([1.0, 9.9]))
        assert v == pytest.approx(1.0 * 1.0 + 2.0 * (-0.5))

    def test_equicorrelated_hand_example(self):
        rho, a, b = 0.6, 1.3, -0.7
        model = LinearModelSpec(beta0=0.0, beta=[1.0, 1.0], feature_mean=[0.0, 0.0])
        dist = GaussianFeatures.equicorrelated(2, rho)
        v = linear_dependent_v(model, dist.conditional_mean, (0,), np.array([a, b]))
        assert v == pytest.approx(a + rho * a)

    def test_full_coalition_returns_prediction(self):
        model = LinearModelSpec(beta0=0.2, beta=[1.0, -1.0], feature_mean=[0.0, 0.0])
        x_star = np.array([0.4, 0.9])
        cond_mean = lambda s, x_s: np.zeros(0)
        v = linear_dependent_v(model, cond_mean, (0, 1), x_star)
        assert v == pytest.approx(float(model.predict(x_star[None, :])[0]))


@pytest.fixture(scope="module")
def gaussian_case():
    dist = GaussianFeatures.equicorrelated(3, 0.6)
    model = LinearModelSpec(beta0=0.3, beta=[1.0, 2.0, -1.5], feature_mean=np.zeros(3))
    predictor = lambda X: model.predict(X)
    x_star = np.array([0.7, -1.2, 0.4])
    return dist, model, predictor, x_star


class TestQuadrature:
    def test_linear_gaussian_matches_closed_form(self, gaussian_case):
        dist, model, predictor, x_star = gaussian_case
        ref = linear_dependent_shapley(model, dist.conditional_mean, x_star)
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        assert quad.phi == pytest.approx(ref.phi, abs=1e-6)
        assert quad.phi0 == pytest.approx(ref.phi0, abs=1e-6)
        assert quad.grid["refined"] is True

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
        assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.mc_std_error)

    def test_efficiency(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        assert quad.prediction == pytest.approx(float(predictor(x_star[None, :])[0]), abs=1e-6)

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
        assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.mc_std_error)

    def test_gh_mixing_decomposition_mass(self):
        from condshap.simlab.distributions import _gh_mixing_components

        star = GHFeatures(GHParams.from_kappa(3, kappa=5.0)).star()
        total = sum(c.weight for c in _gh_mixing_components(star))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mixture_truth_handles_separated_modes(self):
        params = MixtureParams.from_gamma(6.0)
        dist = MixtureFeatures(params)
        model = LinearModelSpec(beta0=0.0, beta=[1.0, 1.0, 1.0], feature_mean=np.zeros(3))
        predictor = lambda X: model.predict(X)
        rng = np.random.default_rng(0)
        x_star = dist.sample(1, rng)[0]
        quad = true_shapley_quadrature(dist, predictor, x_star, GridSpec(points_per_axis=32))
        mc = true_shapley_mc(dist, predictor, x_star, 200_000, rng_seed=1)
        assert np.all(np.abs(quad.phi - mc.phi) <= 4 * mc.mc_std_error + 1e-6)


def _reference_component_integral(predictor, s, x_star, comp, m, points):
    """The whole tensor grid in one batch: meshgrid, column_stack and tile.

    The slow reference for ``oracles._component_integral``, with a fresh
    ``leggauss`` rule per call.
    """
    sbar = [j for j in range(m) if j not in s]
    nodes, weights = np.polynomial.legendre.leggauss(points)
    tail_nodes, tail_weights = np.polynomial.legendre.leggauss(max(points // 2, 8))
    axes_nodes, axes_weights = [], []
    for i in range(len(sbar)):
        core_lo = comp.center[i] - HALF_WIDTH_SDS * comp.sd[i]
        core_hi = comp.center[i] + HALF_WIDTH_SDS * comp.sd[i]
        lo = comp.lo[i] if comp.lo is not None else core_lo
        hi = comp.hi[i] if comp.hi is not None else core_hi
        core_lo, core_hi = max(lo, core_lo), min(hi, core_hi)
        panels = [(core_lo, core_hi, nodes, weights)]
        if lo < core_lo:
            panels.insert(0, (lo, core_lo, tail_nodes, tail_weights))
        if hi > core_hi:
            panels.append((core_hi, hi, tail_nodes, tail_weights))
        axes_nodes.append(np.concatenate([0.5 * (b - a) * pn + 0.5 * (b + a)
                                          for a, b, pn, _ in panels]))
        axes_weights.append(np.concatenate([0.5 * (b - a) * pw for a, b, _, pw in panels]))
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    pts = np.column_stack([g.reshape(-1) for g in mesh])
    wmesh = np.meshgrid(*axes_weights, indexing="ij")
    wts = np.prod(np.column_stack([g.reshape(-1) for g in wmesh]), axis=1)
    dens = np.asarray(comp.density(pts), float).reshape(-1)
    synth = np.tile(x_star, (len(pts), 1))
    synth[:, sbar] = pts
    preds = predictor(synth)
    return float(np.sum(wts * dens * preds))


def _nonlinear(X):
    return 0.3 + X[:, 0] - 0.5 * X[:, 1] ** 2 + np.tanh(X[:, 2]) + 0.2 * X[:, 0] * X[:, 2]


DISTRIBUTIONS = {
    "gaussian": lambda: GaussianFeatures.equicorrelated(3, 0.6),
    "mixture": lambda: MixtureFeatures(MixtureParams.from_gamma(1.0)),
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
        if name == "gh" and s:
            assert comps[0].lo is not None  # the tail panels are exercised
        if name == "gh" and not s:
            assert len(comps) == 48  # the GIG mixing decomposition
        for comp in comps[:: max(1, len(comps) // 3)]:
            points = 11 if len(s) == 0 else 40  # grids of 40 to 6,400 rows: ragged chunks
            got = oracles._component_integral(_nonlinear, s, self.X_STAR, comp, 3, points)
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
        assert max(batches) == oracles.CHUNK_ROWS
        assert sum(batches) == 40 ** 3 + 80 ** 3
        batches.clear()
        true_shapley_quadrature(dist, counting, self.X_STAR, GridSpec(points_per_axis=40))
        assert max(batches) <= oracles.CHUNK_ROWS

    def test_default_chunk(self):
        assert oracles.CHUNK_ROWS == 2 ** 15


class TestGridBoxes:
    """The box-wise chunk fill against the ``np.unravel_index`` gather it
    replaced, bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 7, 13, None], ids=["1", "7", "13", "whole"])
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 5), (4, 1, 3)])
    def test_fill_equals_unravel_gather(self, shape, chunk):
        rng = np.random.default_rng(len(shape))
        nodes = [rng.standard_normal(n) for n in shape]
        weights = [rng.random(n) for n in shape]
        d, size = len(shape), math.prod(shape)
        chunk = chunk or size
        cols = list(range(d, 0, -1))  # axis j to column d - j; column 0 is left alone
        for start in range(0, size, chunk):
            stop = min(start + chunk, size)
            index = np.unravel_index(np.arange(start, stop), shape)
            batch = np.full((stop - start, d + 1), np.nan)
            wts = np.full(stop - start, np.nan)
            oracles._fill_grid_rows(batch, cols, wts, nodes, weights, start, stop)
            for col, axis, k in zip(cols, nodes, index):
                assert batch[:, col].tobytes() == axis[k].tobytes()
            gathered = functools.reduce(np.multiply, [axis[k] for axis, k in zip(weights, index)])
            assert wts.tobytes() == gathered.tobytes()
            assert np.isnan(batch[:, 0]).all()
            assert len(list(oracles._grid_boxes(shape, start, stop))) <= 2 * d - 1


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
        mix = MixtureFeatures(MixtureParams.from_gamma(2.0))
        comps = mix.conditional_components((0,), np.array([1.0]))

        def density(points):
            return sum(c.weight * c.density(points) for c in comps)

        nodes, weights = np.polynomial.legendre.leggauss(200)
        lo, hi = -20.0, 20.0
        pts1 = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w1 = 0.5 * (hi - lo) * weights
        g1, g2 = np.meshgrid(pts1, pts1, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        total = float(np.sum(np.outer(w1, w1).ravel() * density(pts)))
        assert abs(total - 1.0) < 1e-6

    def test_posterior_weights_favor_nearer_mode(self):
        mix = MixtureFeatures(MixtureParams.from_gamma(5.0))
        post = mix.posterior_weights((0,), np.array([5.0]))
        assert post[0] > 0.999  # component 1 has mean +5 in coordinate 0


class TestMonteCarlo:
    def test_ten_dim_linear_matches_closed_form(self):
        dist = GaussianFeatures.equicorrelated(10, 0.5)
        model = LinearModelSpec(
            beta0=0.1,
            beta=np.linspace(-1.0, 1.0, 10),
            feature_mean=np.zeros(10),
        )
        predictor = lambda X: model.predict(X)
        x_star = np.linspace(-0.5, 0.5, 10)
        ref = linear_dependent_shapley(model, dist.conditional_mean, x_star)
        mc = true_shapley_mc(dist, predictor, x_star, 4000, rng_seed=7)
        assert np.all(np.abs(mc.phi - ref.phi) <= 4 * mc.mc_std_error)

    def test_standard_error_scaling(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        small = true_shapley_mc(dist, predictor, x_star, 5000, rng_seed=3)
        large = true_shapley_mc(dist, predictor, x_star, 10_000, rng_seed=3)
        ratio = large.mc_std_error / small.mc_std_error
        assert np.all(ratio > (1 / math.sqrt(2)) * 0.8)
        assert np.all(ratio < (1 / math.sqrt(2)) * 1.2)

    def test_seed_determinism(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        a = true_shapley_mc(dist, predictor, x_star, 2000, rng_seed=11)
        b = true_shapley_mc(dist, predictor, x_star, 2000, rng_seed=11)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.mc_std_error, b.mc_std_error)

    def test_efficiency_holds_algebraically(self, gaussian_case):
        dist, _, predictor, x_star = gaussian_case
        mc = true_shapley_mc(dist, predictor, x_star, 2000, rng_seed=2)
        # phi0 + sum(phi) equals the exact v(full) = f(x*) by construction.
        assert mc.prediction == pytest.approx(float(predictor(x_star[None, :])[0]), abs=1e-10)
