"""Coalition design, kernel weights, and the two Shapley solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condshap.coalitions import (
    ContributionVector,
    DEFAULT_C,
    EFFICIENCY_RTOL,
    Explanation,
    WlsSolver,
    enumerate_coalitions,
    exact_shapley,
    sample_coalitions,
    shapley_coefficient_map,
    shapley_kernel_weight,
    solve_wls,
)
from condshap.errors import (
    DegenerateDesignError,
    EfficiencyViolationError,
    EnumerationTooLargeError,
    IncompleteContributionError,
    InfiniteWeightCoalitionError,
)


def random_table(m: int, rng) -> ContributionVector:
    return ContributionVector.from_function(m, lambda s: float(rng.standard_normal()))


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
        assert np.all(cm.weights == DEFAULT_C)

    def test_m2_rows_and_weights(self):
        cm = enumerate_coalitions(2)
        assert cm.coalitions == ((), (0,), (1,), (0, 1))
        assert cm.weights == pytest.approx([DEFAULT_C, 0.5, 0.5, DEFAULT_C])

    def test_m3_shape_and_weights(self):
        cm = enumerate_coalitions(3)
        assert cm.n_rows == 8
        assert cm.weights[cm.coalitions.index((0,))] == pytest.approx(1 / 3)
        assert cm.n_rows == 2 ** cm.m  # exhaustive

    def test_z_matrix_encoding(self):
        cm = enumerate_coalitions(4)
        assert np.all(cm.z[:, 0] == 1.0)
        for i, s in enumerate(cm.coalitions):
            members = tuple(j for j in range(4) if cm.z[i, j + 1] == 1.0)
            assert members == s

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
        assert np.array_equal(a.z, b.z)

    def test_multiplicities_sum_to_draws(self):
        n_draws = 20_000
        cm = sample_coalitions(4, n_draws, rng_seed=8)
        proper = [i for i, s in enumerate(cm.coalitions) if 0 < len(s) < 4]
        assert cm.weights[proper].sum() == pytest.approx(n_draws)
        assert cm.coalitions[0] == () and cm.coalitions[-1] == (0, 1, 2, 3)
        assert cm.weights[0] == DEFAULT_C and cm.weights[-1] == DEFAULT_C

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
        v = ContributionVector.from_function(3, lambda s: sum(c[j] for j in s))
        e = solve_wls(cm, v)
        assert e.phi0 == pytest.approx(0.0, abs=1e-12)
        assert e.phi == pytest.approx(c, abs=1e-10)

    def test_symmetric_two_player_game(self):
        cm = enumerate_coalitions(2)
        v = ContributionVector.from_mapping(2, {(): 0.0, (0,): 0.0, (1,): 0.0, (0, 1): 1.0})
        e = solve_wls(cm, v)
        assert e.phi == pytest.approx([0.5, 0.5])

    def test_matches_exact_on_random_tables(self):
        rng = np.random.default_rng(42)
        for m in range(1, 7):
            cm = enumerate_coalitions(m)
            solver = WlsSolver(cm)
            for _ in range(20):
                v = random_table(m, rng)
                a = solver.solve(v)
                b = exact_shapley(v)
                assert a.phi0 == pytest.approx(b.phi0, abs=1e-8)
                assert a.phi == pytest.approx(b.phi, abs=1e-8)

    def test_projection_reuse_matches_fresh_solves(self):
        rng = np.random.default_rng(3)
        cm = enumerate_coalitions(4)
        solver = WlsSolver(cm)
        for _ in range(5):
            v = random_table(4, rng)
            reused = solver.solve(v)
            fresh = solve_wls(cm, v)
            assert reused.phi == pytest.approx(fresh.phi, abs=1e-14)

    def test_solver_works_on_sampled_design(self):
        rng = np.random.default_rng(5)
        cm = sample_coalitions(6, 4000, rng_seed=17)
        v = random_table(6, rng)
        e = solve_wls(cm, v.aligned_to(cm))
        # Hard constraints hold exactly on sampled designs too.
        assert e.phi0 == pytest.approx(v.value(()))
        assert e.total == pytest.approx(v.value(tuple(range(6))))

    def test_degenerate_design_raises(self):
        from condshap.coalitions import CoalitionMatrix, _build_z

        coalitions = ((), (0,), (0, 1, 2))
        cm = CoalitionMatrix(
            m=3,
            coalitions=coalitions,
            z=_build_z(3, coalitions),
            weights=np.array([DEFAULT_C, 1.0, DEFAULT_C]),
        )
        with pytest.raises(DegenerateDesignError, match="condition number"):
            WlsSolver(cm)

    def test_design_without_the_full_row_raises(self):
        from condshap.coalitions import CoalitionMatrix, _build_z

        coalitions = ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
        cm = CoalitionMatrix(
            m=3,
            coalitions=coalitions,
            z=_build_z(3, coalitions),
            weights=np.array([DEFAULT_C] + [1.0] * 6),
        )
        with pytest.raises(ValueError, match="must include the empty and full rows"):
            WlsSolver(cm)

    def test_length_mismatch(self):
        cm = enumerate_coalitions(3)
        with pytest.raises(ValueError, match="rows"):
            WlsSolver(cm).solve(np.zeros(5))


class TestExactShapley:
    def test_three_player_expansion_weights(self):
        # The size-0 and size-2 terms carry weight 1/3, size-1 terms 1/6.
        coeff = shapley_coefficient_map(3)
        assert coeff[0][(0,)] == pytest.approx(1 / 3)  # v({1}) enters +1/3
        assert coeff[0][()] == pytest.approx(-1 / 3)
        assert coeff[0][(0, 1)] == pytest.approx(1 / 6)
        assert coeff[0][(1,)] == pytest.approx(-1 / 6)
        assert coeff[0][(0, 1, 2)] == pytest.approx(1 / 3)
        assert coeff[0][(1, 2)] == pytest.approx(-1 / 3)

    def test_full_set_indicator_game(self):
        v = ContributionVector.from_function(3, lambda s: 1.0 if len(s) == 3 else 0.0)
        e = exact_shapley(v)
        assert e.phi == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert e.phi0 == 0.0

    def test_efficiency_on_random_table(self):
        rng = np.random.default_rng(0)
        v = random_table(4, rng)
        e = exact_shapley(v)
        assert e.total == pytest.approx(v.value((0, 1, 2, 3)), abs=1e-10)

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

    def test_missing_value_raises(self):
        v = ContributionVector(m=2, values={(): 0.0, (0,): 1.0, (0, 1): 2.0})
        with pytest.raises(IncompleteContributionError, match="incomplete"):
            exact_shapley(v)

    def test_kernel_mass_normalization(self):
        # Combinatorial weights over all S excluding j sum to 1 for each j.
        for m in range(1, 8):
            coeff = shapley_coefficient_map(m)
            for j in range(m):
                positive = sum(c for c in coeff[j].values() if c > 0)
                assert positive == pytest.approx(1.0, abs=1e-12)


class TestAxioms:
    """Axiom property suite on randomized games."""

    def test_symmetry_exact_and_wls(self):
        rng = np.random.default_rng(10)
        m, a, b = 4, 1, 3
        base = {s: float(rng.standard_normal()) for s in enumerate_coalitions(m).coalitions}

        def swap(s):
            return tuple(sorted({a if j == b else b if j == a else j for j in s}))

        sym = {s: 0.5 * (base[s] + base[swap(s)]) for s in base}
        v = ContributionVector.from_mapping(m, sym)
        e = exact_shapley(v)
        assert e.phi[a] == pytest.approx(e.phi[b], abs=1e-12)
        w = solve_wls(enumerate_coalitions(m), v)
        assert w.phi[a] == pytest.approx(w.phi[b], abs=1e-8)

    def test_permutation_symmetry(self):
        # Permuting two features permutes their phi values exactly.
        rng = np.random.default_rng(14)
        m, a, b = 5, 0, 2
        base = {s: float(rng.standard_normal()) for s in enumerate_coalitions(m).coalitions}

        def swap(s):
            return tuple(sorted({a if j == b else b if j == a else j for j in s}))

        permuted = {s: base[swap(s)] for s in base}
        e1 = exact_shapley(ContributionVector.from_mapping(m, base))
        e2 = exact_shapley(ContributionVector.from_mapping(m, permuted))
        assert e2.phi[a] == pytest.approx(e1.phi[b], abs=1e-12)
        assert e2.phi[b] == pytest.approx(e1.phi[a], abs=1e-12)

    def test_dummy_player(self):
        rng = np.random.default_rng(11)
        m, dummy = 4, 2
        values = {}
        for s in enumerate_coalitions(m).coalitions:
            if dummy in s:
                continue
            values[s] = float(rng.standard_normal())
        for s in list(values):
            values[tuple(sorted(s + (dummy,)))] = values[s]
        v = ContributionVector.from_mapping(m, values)
        assert abs(exact_shapley(v).phi[dummy]) < 1e-10
        assert abs(solve_wls(enumerate_coalitions(m), v).phi[dummy]) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(12)
        m, a = 4, -2.5
        v = random_table(m, rng)
        w = random_table(m, rng)
        combo = ContributionVector.from_mapping(
            m, {s: a * v.values[s] + w.values[s] for s in v.values}
        )
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
        v = random_table(m, rng)
        a = solve_wls(enumerate_coalitions(m), v)
        b = exact_shapley(v)
        assert np.allclose(a.phi, b.phi, atol=1e-8)
        assert a.phi0 == pytest.approx(b.phi0, abs=1e-8)
        assert b.total == pytest.approx(v.value(tuple(range(m))), abs=1e-9)
