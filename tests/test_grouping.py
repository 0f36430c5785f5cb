"""Kendall's tau, dissimilarity, complete linkage, KGS cut, aggregation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condshap.coalitions import Explanation
from condshap.errors import DiagnosticWarning, SchemaError
from condshap.grouping import (
    ClusterAssignment,
    DissimilarityMatrix,
    aggregate_shapley,
    complete_linkage,
    dissimilarity,
    kendall_tau,
    kgs_cut,
)
from condshap.samplers import TrainingMatrix
from kendall_reference import kendall_tau_naive, kendall_tau_scipy


def dmatrix(d, names=None):
    d = np.asarray(d, float)
    names = names or tuple(f"x{i + 1}" for i in range(d.shape[0]))
    return DissimilarityMatrix(d=d, column_names=tuple(names))


def _edge_pairs():
    """A constant column, and tie-heavy columns at n=2000 (a few distinct values)."""
    rng = np.random.default_rng(3)
    constant = (np.full(30, 2.5), rng.standard_normal(30))
    x = rng.integers(0, 5, size=2000).astype(float)
    y = np.clip(x + rng.integers(-1, 2, size=2000), 0, 4).astype(float)
    return [constant, (x, y)]


EDGE_PAIRS = _edge_pairs()


class TestKendallTau:
    def test_perfect_concordance(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert kendall_tau(x, x) == pytest.approx(1.0)

    def test_perfect_discordance(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert kendall_tau(x, -x) == pytest.approx(-1.0)

    def test_small_example(self):
        assert kendall_tau(np.array([1, 2, 3]), np.array([1, 3, 2])) == pytest.approx(1 / 3)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            kendall_tau(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            kendall_tau(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_fast_equals_naive_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert kendall_tau(x, y) == kendall_tau_naive(x, y)
        for x, y in EDGE_PAIRS:
            assert kendall_tau(x, y) == kendall_tau_naive(x, y)

    def test_fast_equals_naive_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 3, size=n).astype(float)
            assert kendall_tau(x, y) == kendall_tau_naive(x, y)
        for x, y in EDGE_PAIRS:
            assert kendall_tau(y, x) == kendall_tau_naive(y, x)

    @given(
        data=st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=30
        )
    )
    @example(data=[(3, b) for b in range(-5, 6)])
    @example(data=[(i % 7 - 3, (i * i) % 5 - 2) for i in range(2000)])
    @settings(max_examples=80, deadline=None)
    def test_fast_equals_naive_property(self, data):
        x = np.array([a for a, _ in data], float)
        y = np.array([b for _, b in data], float)
        assert kendall_tau(x, y) == kendall_tau_naive(x, y)

    @pytest.mark.parametrize("kind", ["continuous", "tie-heavy"])
    def test_bits_equal_scipy_formula_on_20000_rows(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(3):
            if kind == "continuous":
                x = rng.standard_normal(20_000)
                y = 0.6 * x + rng.standard_normal(20_000)
            else:
                x = rng.integers(0, 6, size=20_000).astype(float)
                y = np.clip(x + rng.integers(-2, 3, size=20_000), 0, 5).astype(float)
            assert kendall_tau(x, y).hex() == kendall_tau_scipy(x, y).hex()
            assert kendall_tau(y, x).hex() == kendall_tau_scipy(y, x).hex()

    def test_joint_ties(self):
        # Pairs: (0,1) tied in both, (2,3) tied in x only, the other four concordant.
        assert kendall_tau([1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 3.0]) == 4 / 6
        # Rows repeated whole: every pair of copies is a joint tie.
        rng = np.random.default_rng(9)
        x = np.repeat(rng.integers(0, 4, size=12), 5).astype(float)
        y = np.repeat(rng.integers(0, 3, size=12), 5).astype(float)
        assert kendall_tau(x, y) == kendall_tau_naive(x, y)
        assert kendall_tau(y, x) == kendall_tau_naive(y, x)

    def test_two_points(self):
        assert kendall_tau([1.0, 2.0], [3.0, 4.0]) == 1.0
        assert kendall_tau([1.0, 2.0], [4.0, 3.0]) == -1.0
        assert kendall_tau([1.0, 2.0], [3.0, 3.0]) == 0.0
        assert kendall_tau([1.0, 1.0], [3.0, 3.0]) == 0.0

    def test_constant_column_gives_zero(self):
        y = np.random.default_rng(10).standard_normal(500)
        constant = np.full(500, -1.5)
        assert kendall_tau(constant, y) == 0.0
        assert kendall_tau(y, constant) == 0.0
        assert kendall_tau(constant, constant) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.arange(6.0)
        y = x.copy()
        y[3] = bad
        with pytest.raises(ValueError, match="not finite"):
            kendall_tau(x, y)
        with pytest.raises(ValueError, match="not finite"):
            kendall_tau(y, x)


class TestDissimilarity:
    def test_duplicated_feature_has_zero_dissimilarity(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(200)
        train = TrainingMatrix.from_data(np.column_stack([col, col, rng.standard_normal(200)]))
        d = dissimilarity(train)
        assert d.d[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diag(d.d) == 0.0)

    def test_independent_features_near_one(self):
        rng = np.random.default_rng(3)
        train = TrainingMatrix.from_data(rng.standard_normal((2000, 3)))
        d = dissimilarity(train)
        off = d.d[~np.eye(3, dtype=bool)]
        assert np.all(off >= 0.9)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((300, 3))
        d1 = dissimilarity(TrainingMatrix.from_data(data))
        transformed = data.copy()
        transformed[:, 1] = np.exp(3.0 * transformed[:, 1])
        d2 = dissimilarity(TrainingMatrix.from_data(transformed))
        assert np.allclose(d1.d, d2.d)

    def test_non_finite_column_named(self):
        data = np.random.default_rng(11).standard_normal((50, 3))
        data[7, 1] = np.nan
        # The training matrix refuses the column before any Kendall pair is formed.
        with pytest.raises(SchemaError, match="column 'b' is not finite"):
            dissimilarity(TrainingMatrix.from_data(data, column_names=("a", "b", "c")))

    def test_constant_column_warns_and_maxes(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((100, 3))
        data[:, 2] = 4.0
        with pytest.warns(DiagnosticWarning, match="constant column"):
            d = dissimilarity(TrainingMatrix.from_data(data))
        assert d.d[0, 2] == 1.0 and d.d[1, 2] == 1.0
        assert d.d[2, 2] == 0.0

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(6)
        train = TrainingMatrix.from_data(rng.standard_normal((50, 4)))
        d = dissimilarity(train)
        assert np.all(d.d >= 0.0) and np.all(d.d <= 1.0)


class TestCompleteLinkage:
    def test_three_feature_hand_trace(self):
        d = dmatrix([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]])
        tree = complete_linkage(d)
        assert tree.merges[0] == (0, 1, 0.1)
        assert tree.merges[1] == (2, 3, 0.9)
        assert tree.leaf_order() in ((2, 0, 1), (0, 1, 2))

    def test_zero_blocks_merge_before_cross_block(self):
        m = 6
        d = np.ones((m, m)) * 0.8
        for block in ((0, 1, 2), (3, 4, 5)):
            for a in block:
                for b in block:
                    d[a, b] = 0.0
        tree = complete_linkage(dmatrix(d))
        heights = tree.heights()
        assert np.all(heights[:4] == 0.0)
        assert heights[4] == pytest.approx(0.8)
        assert sorted(tree.cut(2), key=min) == [(0, 1, 2), (3, 4, 5)]

    def test_heights_non_decreasing_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            raw = rng.random((m, m))
            d = 0.5 * (raw + raw.T)
            np.fill_diagonal(d, 0.0)
            tree = complete_linkage(dmatrix(d))
            heights = tree.heights()
            assert np.all(np.diff(heights) >= -1e-12)

    def test_cluster_distance_is_max_pairwise(self):
        d = np.array(
            [
                [0.0, 0.2, 0.5, 0.9],
                [0.2, 0.0, 0.6, 0.7],
                [0.5, 0.6, 0.0, 0.3],
                [0.9, 0.7, 0.3, 0.0],
            ]
        )
        tree = complete_linkage(dmatrix(d))
        # Merges: (0,1)@0.2, (2,3)@0.3, then the two pairs at max = 0.9.
        assert tree.merges[0] == (0, 1, 0.2)
        assert tree.merges[1] == (2, 3, 0.3)
        assert tree.merges[2][2] == pytest.approx(0.9)


class TestKgsCut:
    def test_two_zero_blocks_recovered(self):
        m = 6
        d = np.ones((m, m)) * 0.9
        for block in ((0, 1, 2), (3, 4, 5)):
            for a in block:
                for b in block:
                    d[a, b] = 0.0
        dm = dmatrix(d)
        cut = kgs_cut(complete_linkage(dm), alpha=1.0, dmatrix=dm)
        assert sorted(cut.groups, key=min) == [(0, 1, 2), (3, 4, 5)]

    def test_cluster_count_non_increasing_in_alpha(self):
        rng = np.random.default_rng(8)
        m = 8
        base = rng.random((m, m)) * 0.5 + 0.4
        d = 0.5 * (base + base.T)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 0.05
        d[2, 3] = d[3, 2] = 0.08
        dm = dmatrix(d)
        tree = complete_linkage(dm)
        counts = [
            kgs_cut(tree, alpha=a, dmatrix=dm).n_groups for a in (0.01, 1.0, 10.0)
        ]
        assert counts[0] >= counts[1] >= counts[2]

    def test_identical_features_single_cluster(self):
        m = 5
        d = np.zeros((m, m))
        dm = dmatrix(d)
        for alpha in (0.1, 1.0, 7.0):
            cut = kgs_cut(complete_linkage(dm), alpha=alpha, dmatrix=dm)
            assert cut.n_groups == 1
            assert cut.groups[0] == tuple(range(m))

    def test_two_features(self):
        dm = dmatrix([[0.0, 0.8], [0.8, 0.0]])
        cut = kgs_cut(complete_linkage(dm), alpha=1.0, dmatrix=dm)
        assert cut.n_groups == 2

    def test_penalty_table_exported(self):
        rng = np.random.default_rng(9)
        m = 6
        raw = rng.random((m, m))
        d = 0.5 * (raw + raw.T)
        np.fill_diagonal(d, 0.0)
        dm = dmatrix(d)
        cut = kgs_cut(complete_linkage(dm), alpha=1.0, dmatrix=dm)
        assert len(cut.penalty_table) == m - 2
        for entry in cut.penalty_table:
            assert {"n_clusters", "spread", "scaled_spread", "penalty"} <= set(entry)

    def test_labels_follow_leaf_order(self):
        m = 4
        d = np.ones((m, m)) * 0.9
        d[0, 1] = d[1, 0] = 0.0
        d[2, 3] = d[3, 2] = 0.0
        np.fill_diagonal(d, 0.0)
        dm = dmatrix(d)
        tree = complete_linkage(dm)
        cut = kgs_cut(tree, alpha=1.0, dmatrix=dm)
        assert cut.labels == [f"g{i + 1}" for i in range(cut.n_groups)]

    def test_reorder_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(10)
        data = rng.multivariate_normal(
            np.zeros(4),
            np.array(
                [
                    [1.0, 0.9, 0.0, 0.0],
                    [0.9, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.85],
                    [0.0, 0.0, 0.85, 1.0],
                ]
            ),
            size=1500,
        )
        perm = [2, 0, 3, 1]
        dm1 = dissimilarity(TrainingMatrix.from_data(data))
        dm2 = dissimilarity(TrainingMatrix.from_data(data[:, perm]))
        cut1 = kgs_cut(complete_linkage(dm1), alpha=1.0, dmatrix=dm1)
        cut2 = kgs_cut(complete_linkage(dm2), alpha=1.0, dmatrix=dm2)
        back = [set(perm[j] for j in g) for g in cut2.groups]
        assert sorted(map(sorted, back)) == sorted(map(sorted, (set(g) for g in cut1.groups)))


class TestAggregate:
    @staticmethod
    def assignment(groups, m):
        names = tuple(f"x{i + 1}" for i in range(m))
        return ClusterAssignment(
            groups=[tuple(g) for g in groups],
            labels=[f"g{i + 1}" for i in range(len(groups))],
            column_names=names,
        )

    def test_singletons_identity(self):
        e = Explanation(phi0=0.5, phi=np.array([0.2, -0.5, 1.0]), prediction=1.2)
        grouped = aggregate_shapley(e, self.assignment([(0,), (1,), (2,)], 3))
        assert grouped.phi == pytest.approx(e.phi)

    def test_single_group_gets_everything(self):
        e = Explanation(phi0=0.5, phi=np.array([0.2, -0.5, 1.0]), prediction=1.2)
        grouped = aggregate_shapley(e, self.assignment([(0, 1, 2)], 3))
        assert grouped.phi == pytest.approx([e.prediction - e.phi0])

    def test_pairwise_sum_example(self):
        e = Explanation(phi0=0.0, phi=np.array([0.2, -0.5, 1.0]), prediction=0.7)
        grouped = aggregate_shapley(e, self.assignment([(0, 1), (2,)], 3))
        assert grouped.phi == pytest.approx([-0.3, 1.0])

    def test_efficiency_preserved_for_random_partitions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            phi = rng.standard_normal(m)
            phi0 = float(rng.standard_normal())
            e = Explanation(phi0=phi0, phi=phi, prediction=phi0 + phi.sum())
            labels = rng.integers(0, max(1, m // 2), size=m)
            groups = [
                tuple(np.nonzero(labels == g)[0]) for g in np.unique(labels)
            ]
            grouped = aggregate_shapley(e, self.assignment(groups, m))
            assert grouped.phi0 + grouped.phi.sum() == pytest.approx(e.prediction)

    def test_carries_the_explanation_over(self):
        e = Explanation(phi0=0.5, phi=np.array([0.2, -0.5, 1.0]), prediction=1.2,
                        estimator_id="gaussian", seed=7, sample_budget=1000,
                        diagnostics={"ridged": 1})
        grouped = aggregate_shapley(e, self.assignment([(0, 2), (1,)], 3))
        assert (grouped.phi0, grouped.prediction) == (e.phi0, e.prediction)
        assert (grouped.estimator_id, grouped.seed, grouped.sample_budget) == ("gaussian", 7, 1000)
        assert grouped.diagnostics == e.diagnostics
        assert grouped.diagnostics is not e.diagnostics
        grouped.check_efficiency()

    def test_partition_mismatch_raises(self):
        e = Explanation(phi0=0.0, phi=np.array([1.0, 2.0, 3.0]), prediction=6.0)
        with pytest.raises(ValueError, match="partition"):
            aggregate_shapley(e, self.assignment([(0, 1)], 3))
        with pytest.raises(ValueError, match="partition"):
            aggregate_shapley(e, self.assignment([(0, 1), (1, 2)], 3))


class TestPlantedBlocks:
    def test_blocks_recovered_from_latent_factors(self):
        rng = np.random.default_rng(12)
        n = 2000
        blocks = [(0, 1, 2), (3, 4), (5, 6, 7, 8)]
        data = np.empty((n, 9))
        for block in blocks:
            latent = rng.standard_normal(n)
            for j in block:
                data[:, j] = latent + 0.1 * rng.standard_normal(n)
        dm = dissimilarity(TrainingMatrix.from_data(data))
        cut = kgs_cut(complete_linkage(dm), alpha=1.0, dmatrix=dm)
        assert sorted(cut.groups, key=min) == [tuple(b) for b in blocks]
