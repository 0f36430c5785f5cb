"""Coalition design, kernel weights, and the two Shapley solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condshap.coalitions import (
    CoalitionMatrix,
    EFFICIENCY_RTOL,
    Explanation,
    WlsSolver,
    enumerate_coalitions,
    exact_shapley,
    sample_coalitions,
    shapley_kernel_weight,
    shapley_matrix,
)
from condshap.errors import (
    DegenerateDesignError,
    EfficiencyViolationError,
    EnumerationTooLargeError,
    InfiniteWeightCoalitionError,
)
from shapley_reference import (
    reference_coefficient_map,
    reference_exact_shapley,
    reference_mc_std_error,
)


def game(m: int, fn) -> np.ndarray:
    """The game v(S) = fn(S) over the rows of ``enumerate_coalitions(m)``."""
    return np.array([fn(s) for s in enumerate_coalitions(m).coalitions], float)


def rows_of(m: int, coalitions) -> np.ndarray:
    """The row of each coalition in ``enumerate_coalitions(m)``."""
    row = {s: i for i, s in enumerate(enumerate_coalitions(m).coalitions)}
    return np.array([row[tuple(sorted(s))] for s in coalitions])


def swap_rows(m: int, a: int, b: int) -> np.ndarray:
    """Rows of every coalition with features a and b swapped, so that
    ``v[swap_rows(m, a, b)]`` is the game with the two features relabelled."""
    swap = {a: b, b: a}
    return rows_of(m, [[swap.get(j, j) for j in s] for s in enumerate_coalitions(m).coalitions])


class TestKernelWeight:
    def test_known_values(self):
        assert shapley_kernel_weight(3, 1) == pytest.approx(1 / 3)
        assert shapley_kernel_weight(3, 2) == pytest.approx(1 / 3)
        assert shapley_kernel_weight(4, 2) == pytest.approx(1 / 8)
        assert shapley_kernel_weight(2, 1) == pytest.approx(1 / 2)

    def test_formula(self):
        for m in range(2, 10):
            for s in range(1, m):
                expected = (m - 1) / (math.comb(m, s) * s * (m - s))
                assert shapley_kernel_weight(m, s) == pytest.approx(expected)

    def test_infinite_weight_endpoints(self):
        with pytest.raises(InfiniteWeightCoalitionError):
            shapley_kernel_weight(4, 0)
        with pytest.raises(InfiniteWeightCoalitionError):
            shapley_kernel_weight(4, 4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shapley_kernel_weight(4, -1)
        with pytest.raises(ValueError):
            shapley_kernel_weight(4, 5)


class TestEnumeration:
    def test_m1_both_rows_infinite(self):
        cm = enumerate_coalitions(1)
        assert cm.coalitions == ((), (0,))
        assert np.all(cm.weights == np.inf)

    def test_m2_rows_and_weights(self):
        cm = enumerate_coalitions(2)
        assert cm.coalitions == ((), (0,), (1,), (0, 1))
        assert cm.weights == pytest.approx([np.inf, 0.5, 0.5, np.inf])

    def test_m3_shape_and_weights(self):
        cm = enumerate_coalitions(3)
        assert cm.n_rows == 8
        assert cm.weights[cm.coalitions.index((0,))] == pytest.approx(1 / 3)
        assert cm.n_rows == 2 ** cm.m  # exhaustive

    def test_ordering_size_then_lex(self):
        cm = enumerate_coalitions(3)
        sizes = [len(s) for s in cm.coalitions]
        assert sizes == sorted(sizes)
        assert cm.coalitions[4:7] == ((0, 1), (0, 2), (1, 2))

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError, match="sample_coalitions"):
            enumerate_coalitions(14)


class TestSampledCoalitions:
    def test_m2_draws_only_singletons(self):
        cm = sample_coalitions(2, 500, rng_seed=4)
        assert cm.coalitions == ((), (0,), (1,), (0, 1))

    def test_deterministic(self):
        a = sample_coalitions(10, 500, rng_seed=99)
        b = sample_coalitions(10, 500, rng_seed=99)
        assert a.coalitions == b.coalitions
        assert np.array_equal(a.weights, b.weights)

    def test_multiplicities_sum_to_draws(self):
        n_draws = 20_000
        cm = sample_coalitions(4, n_draws, rng_seed=8)
        proper = [i for i, s in enumerate(cm.coalitions) if 0 < len(s) < 4]
        assert cm.weights[proper].sum() == pytest.approx(n_draws)
        assert cm.coalitions[0] == () and cm.coalitions[-1] == (0, 1, 2, 3)
        assert cm.weights[0] == np.inf and cm.weights[-1] == np.inf

    def test_size_frequencies_match_kernel_mass(self):
        # For m=3 the two proper sizes carry equal total kernel mass.
        n_draws = 10**6
        cm = sample_coalitions(3, n_draws, rng_seed=123)
        mass = {1: 0.0, 2: 0.0}
        for s, w in zip(cm.coalitions, cm.weights):
            if 0 < len(s) < 3:
                mass[len(s)] += w / n_draws
        assert mass[1] == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / n_draws))
        assert mass[2] == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / n_draws))


class TestWlsSolver:
    def test_additive_game(self):
        cm = enumerate_coalitions(3)
        c = [1.0, 2.0, 3.0]
        v = game(3, lambda s: sum(c[j] for j in s))
        e = WlsSolver(cm).solve(v)
        assert e.phi0 == pytest.approx(0.0, abs=1e-12)
        assert e.phi == pytest.approx(c, abs=1e-10)

    def test_symmetric_two_player_game(self):
        cm = enumerate_coalitions(2)
        v = np.array([0.0, 0.0, 0.0, 1.0])  # rows (), (0,), (1,), (0, 1)
        e = WlsSolver(cm).solve(v)
        assert e.phi == pytest.approx([0.5, 0.5])

    def test_matches_exact_on_random_tables(self):
        rng = np.random.default_rng(42)
        for m in range(1, 7):
            cm = enumerate_coalitions(m)
            solver = WlsSolver(cm)
            for _ in range(20):
                v = rng.standard_normal(2 ** m)
                a = solver.solve(v)
                b = exact_shapley(v)
                assert a.phi0 == pytest.approx(b.phi0, abs=1e-8)
                assert a.phi == pytest.approx(b.phi, abs=1e-8)

    def test_projection_reuse_matches_fresh_solves(self):
        rng = np.random.default_rng(3)
        cm = enumerate_coalitions(4)
        solver = WlsSolver(cm)
        for _ in range(5):
            v = rng.standard_normal(2 ** 4)
            reused = solver.solve(v)
            fresh = WlsSolver(cm).solve(v)
            assert reused.phi == pytest.approx(fresh.phi, abs=1e-14)

    def test_solver_works_on_sampled_design(self):
        rng = np.random.default_rng(5)
        cm = sample_coalitions(6, 4000, rng_seed=17)
        v = rng.standard_normal(2 ** 6)
        e = WlsSolver(cm).solve(v[rows_of(6, cm.coalitions)])
        # Hard constraints hold exactly on sampled designs too.
        assert e.phi0 == pytest.approx(v[0])
        assert e.total == pytest.approx(v[-1])

    def test_degenerate_design_raises(self):
        cm = CoalitionMatrix(
            m=3, coalitions=((), (0,), (0, 1, 2)), weights=np.array([np.inf, 1.0, np.inf])
        )
        with pytest.raises(DegenerateDesignError, match="condition number"):
            WlsSolver(cm)

    def test_design_without_the_full_row_raises(self):
        coalitions = ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
        cm = CoalitionMatrix(m=3, coalitions=coalitions, weights=np.array([np.inf] + [1.0] * 6))
        with pytest.raises(ValueError, match="must include the empty and full rows"):
            WlsSolver(cm)

    def test_length_mismatch(self):
        cm = enumerate_coalitions(3)
        with pytest.raises(ValueError, match="rows"):
            WlsSolver(cm).solve(np.zeros(5))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_game_vector_for_both_solvers(self, m):
        # The exact formula and the solver take the same array, in the
        # enumeration's row order, and agree.
        v = np.random.default_rng(m).standard_normal(2 ** m)
        a = exact_shapley(v)
        b = WlsSolver(enumerate_coalitions(m)).solve(v)
        assert a.phi0 == b.phi0 == v[0]
        assert a.prediction == b.prediction == v[-1]
        assert b.phi == pytest.approx(a.phi, abs=1e-10)


class TestExactShapley:
    def test_three_player_expansion_weights(self):
        # The size-0 and size-2 terms carry weight 1/3, size-1 terms 1/6.
        c = shapley_matrix(3)[0, rows_of(3, [(0,), (), (0, 1), (1,), (0, 1, 2), (1, 2)])]
        assert c[0] == pytest.approx(1 / 3)  # v({1}) enters +1/3
        assert c[1] == pytest.approx(-1 / 3)
        assert c[2] == pytest.approx(1 / 6)
        assert c[3] == pytest.approx(-1 / 6)
        assert c[4] == pytest.approx(1 / 3)
        assert c[5] == pytest.approx(-1 / 3)

    def test_full_set_indicator_game(self):
        v = game(3, lambda s: 1.0 if len(s) == 3 else 0.0)
        e = exact_shapley(v)
        assert e.phi == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert e.phi0 == 0.0

    def test_efficiency_on_random_table(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(2 ** 4)
        e = exact_shapley(v)
        assert e.total == pytest.approx(v[-1], abs=1e-10)

    @pytest.mark.parametrize("prediction", [0.5, 1000.0])
    def test_check_efficiency_tolerance(self, prediction):
        # The tolerance is relative above |f(x*)| = 1 and absolute below it.
        tol = EFFICIENCY_RTOL * max(1.0, prediction)
        phi = np.array([prediction - 0.25, 0.25])
        Explanation(phi0=0.9 * tol, phi=phi, prediction=prediction).check_efficiency()
        with pytest.raises(EfficiencyViolationError, match="efficiency violated"):
            Explanation(phi0=1.1 * tol, phi=phi, prediction=prediction).check_efficiency()

    def test_check_efficiency_rejects_nan(self):
        phi = np.array([0.5, np.nan])
        with pytest.raises(EfficiencyViolationError, match="efficiency violated"):
            Explanation(phi0=0.0, phi=phi, prediction=0.5).check_efficiency()

    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (6,), (2, 2)])
    def test_wrong_length_raises(self, shape):
        with pytest.raises(ValueError, match="2\\^m entries"):
            exact_shapley(np.zeros(shape))
        with pytest.raises(ValueError, match="design has 4 rows"):
            WlsSolver(enumerate_coalitions(2)).solve(np.zeros(shape))

    def test_above_the_cap_raises(self):
        with pytest.raises(EnumerationTooLargeError, match="m <= 13"):
            exact_shapley(np.zeros(2 ** 14))

    def test_kernel_mass_normalization(self):
        # Combinatorial weights over all S excluding j sum to 1 for each j.
        for m in range(1, 8):
            c = shapley_matrix(m)
            positive = np.where(c > 0, c, 0.0).sum(axis=1)
            assert positive == pytest.approx(np.ones(m), abs=1e-12)

    def test_matrix_is_shared_and_read_only(self):
        assert shapley_matrix(4) is shapley_matrix(4)
        with pytest.raises(ValueError, match="read-only"):
            shapley_matrix(4)[0, 0] = 1.0

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matrix_matches_the_slow_references(self, m):
        c = shapley_matrix(m)
        coeff = reference_coefficient_map(m)
        rows = {s: i for i, s in enumerate(enumerate_coalitions(m).coalitions)}
        expected = np.zeros((m, 2 ** m))
        for j, table in coeff.items():
            expected[j, [rows[s] for s in table]] = list(table.values())
        assert np.array_equal(c, expected)
        rng = np.random.default_rng(100 + m)
        v = rng.standard_normal(2 ** m)
        assert np.max(np.abs(exact_shapley(v).phi - reference_exact_shapley(v))) <= 1e-12
        var = rng.uniform(0.0, 2.0, 2 ** m)
        se = np.sqrt((c * c) @ var)
        assert np.max(np.abs(se - reference_mc_std_error(m, var))) <= 1e-12


class TestAxioms:
    """Axiom property suite on randomized games."""

    def test_symmetry_exact_and_wls(self):
        rng = np.random.default_rng(10)
        m, a, b = 4, 1, 3
        base = rng.standard_normal(2 ** m)
        v = 0.5 * (base + base[swap_rows(m, a, b)])
        e = exact_shapley(v)
        assert e.phi[a] == pytest.approx(e.phi[b], abs=1e-12)
        w = WlsSolver(enumerate_coalitions(m)).solve(v)
        assert w.phi[a] == pytest.approx(w.phi[b], abs=1e-8)

    def test_permutation_symmetry(self):
        # Permuting two features permutes their phi values exactly.
        rng = np.random.default_rng(14)
        m, a, b = 5, 0, 2
        base = rng.standard_normal(2 ** m)
        e1 = exact_shapley(base)
        e2 = exact_shapley(base[swap_rows(m, a, b)])
        assert e2.phi[a] == pytest.approx(e1.phi[b], abs=1e-12)
        assert e2.phi[b] == pytest.approx(e1.phi[a], abs=1e-12)

    def test_dummy_player(self):
        rng = np.random.default_rng(11)
        m, dummy = 4, 2
        without = [s for s in enumerate_coalitions(m).coalitions if dummy not in s]
        v = np.empty(2 ** m)
        v[rows_of(m, without)] = rng.standard_normal(len(without))
        v[rows_of(m, [s + (dummy,) for s in without])] = v[rows_of(m, without)]
        assert abs(exact_shapley(v).phi[dummy]) < 1e-10
        assert abs(WlsSolver(enumerate_coalitions(m)).solve(v).phi[dummy]) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(12)
        m, a = 4, -2.5
        v = rng.standard_normal(2 ** m)
        w = rng.standard_normal(2 ** m)
        combo = a * v + w
        ev, ew, ec = exact_shapley(v), exact_shapley(w), exact_shapley(combo)
        assert ec.phi == pytest.approx(a * ev.phi + ew.phi, abs=1e-10)
        assert ec.phi0 == pytest.approx(a * ev.phi0 + ew.phi0, abs=1e-10)

    @given(
        m=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_wls_equals_exact_property(self, m, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(2 ** m)
        a = WlsSolver(enumerate_coalitions(m)).solve(v)
        b = exact_shapley(v)
        assert np.allclose(a.phi, b.phi, atol=1e-8)
        assert a.phi0 == pytest.approx(b.phi0, abs=1e-8)
        assert b.total == pytest.approx(v[-1], abs=1e-9)
