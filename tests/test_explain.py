"""End-to-end explanation pipeline behavior."""

import hashlib
import re

import numpy as np
import pytest
from numpy.random import SeedSequence

from condshap import samplers
from condshap.coalitions import sample_coalitions
from condshap.errors import DiagnosticWarning
from condshap.explain import Explainer, instance_stream
from condshap.samplers import SamplerSpec, TrainingMatrix
from condshap.simlab import fit_ols, linear_sampling_model, sample_equicorrelated_gaussian


@pytest.fixture(scope="module")
def fitted():
    train = sample_equicorrelated_gaussian(3, 0.5, 600, rng_seed=1)
    y = linear_sampling_model(train.data, rng_seed=2)
    return train, fit_ols(train, y)


def as_bytes(explanations) -> list[bytes]:
    return [np.float64(e.phi0).tobytes() + e.phi.tobytes() for e in explanations]


class TestExplainer:
    def test_deterministic_across_runs(self, fitted):
        train, predictor = fitted
        x = train.data[:5]
        a = Explainer(train, predictor, SamplerSpec(kind="gaussian"), k=300, seed=4).explain(x)
        b = Explainer(train, predictor, SamplerSpec(kind="gaussian"), k=300, seed=4).explain(x)
        for e1, e2 in zip(a, b):
            assert np.array_equal(e1.phi, e2.phi)
            assert e1.phi0 == e2.phi0

    @pytest.mark.parametrize("label", ["gaussian", "copula", "empirical-0.1+gaussian"])
    def test_plans_built_in_any_order_match(self, label):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((400, 6)) @ (np.eye(6) + 0.3 * rng.standard_normal((6, 6)))
        beta = rng.standard_normal(6)
        predictor = lambda X: np.atleast_2d(X) @ beta
        spec = SamplerSpec.from_label(label, d_star=2)

        def fresh():
            return Explainer(TrainingMatrix.from_data(data), predictor, spec, k=100, seed=5)

        forward = fresh().explain(data[:8])
        backward = fresh()
        reverse = [backward.explain_one(data[i], i) for i in reversed(range(8))][::-1]
        for e1, e2 in zip(forward, reverse):
            assert np.array_equal(e1.phi, e2.phi)
        sampler = backward.sampler
        plans = sampler.train.plans if sampler.copula is None else sampler.copula.plans
        parametric = [s for s in backward.cm.coalitions
                      if 0 < len(s) < 6 and (spec.kind != "combined" or len(s) > spec.d_star)]
        assert sorted(plans) == sorted(parametric)

    def test_instance_index_drives_randomness(self, fitted):
        train, predictor = fitted
        explainer = Explainer(train, predictor, SamplerSpec(kind="gaussian"), k=100, seed=3)
        x_star = train.data[0]
        e0 = explainer.explain_one(x_star, instance_index=0)
        e1 = explainer.explain_one(x_star, instance_index=1)
        assert not np.array_equal(e0.phi, e1.phi)

    def test_efficiency_and_metadata(self, fitted):
        train, predictor = fitted
        spec = SamplerSpec(kind="empirical", sigma=0.2)
        explainer = Explainer(train, predictor, spec, k=500, seed=11)
        e = explainer.explain_one(train.data[3], instance_index=3)
        assert e.efficiency_gap() <= 1e-6 * max(1.0, abs(e.prediction))
        assert e.estimator_id == "empirical-0.2"
        assert e.seed == 11
        assert e.sample_budget == 500

    def test_mean_prediction_is_v_empty(self, fitted):
        train, predictor = fitted
        explainer = Explainer(train, predictor, SamplerSpec(kind="independence"), k=100, seed=0)
        v = explainer.contribution_vector(train.data[0], instance_index=0)
        assert v[0] == pytest.approx(float(predictor(train.data).mean()))
        assert v[-1] == pytest.approx(float(predictor(train.data[:1])[0]))

    def test_auto_coalition_sampling_above_cap(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((300, 15))
        train = TrainingMatrix.from_data(data)
        beta = rng.standard_normal(15)
        predictor = lambda X: np.atleast_2d(X) @ beta
        with pytest.warns(DiagnosticWarning, match="sampling"):
            explainer = Explainer(
                train,
                predictor,
                SamplerSpec(kind="independence"),
                k=100,
                seed=2,
                coalition_draws=256,
            )
        assert explainer.cm.n_rows < 2 ** explainer.cm.m  # not exhaustive
        e = explainer.explain_one(data[0])
        assert e.efficiency_gap() <= 1e-6 * max(1.0, abs(e.prediction))

    def test_explicit_coalition_matrix_is_used(self, fitted):
        train, predictor = fitted
        cm = sample_coalitions(3, 64, rng_seed=7)
        explainer = Explainer(
            train, predictor, SamplerSpec(kind="gaussian"), k=100, seed=1, coalition_matrix=cm
        )
        assert explainer.cm is cm

    def test_aicc_exact_and_approx_modes_run(self, fitted):
        train, predictor = fitted
        x_star = train.data[2]
        for mode in ("aicc_exact", "aicc_approx"):
            spec = SamplerSpec(kind="empirical", bandwidth_mode=mode, n_aicc=150)
            e = Explainer(train, predictor, spec, k=300, seed=6).explain_one(x_star)
            assert e.efficiency_gap() <= 1e-6 * max(1.0, abs(e.prediction))

    def test_combined_only_computes_bandwidths_below_dstar(self, fitted):
        train, predictor = fitted
        spec = SamplerSpec(
            kind="combined", bandwidth_mode="aicc_approx", d_star=1, n_aicc=100
        )
        explainer = Explainer(train, predictor, spec, k=200, seed=8)
        [table] = explainer.sampler.bandwidths(predictor, explainer.cm.coalitions, train.data[0])
        assert set(table) == {(0,), (1,), (2,)}


AICC_LABELS = ["empirical-aicc-exact", "empirical-aicc-approx",
               "empirical-aicc-exact+gaussian", "empirical-aicc-approx+copula"]


class TestBlockedAicc:
    """explain(X) searches AICc bandwidths per block; explain_one is a block of one."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((300, 4)) @ (np.eye(4) + 0.4 * rng.standard_normal((4, 4)))
        beta = np.array([1.0, -2.0, 0.5, 1.5])
        return x, lambda X: np.atleast_2d(X) @ beta + np.sin(np.atleast_2d(X)[:, 0])

    @staticmethod
    def fresh(data, label, predictor=None):
        x, f = data
        spec = SamplerSpec.from_label(label, d_star=2, n_aicc=80)
        return Explainer(TrainingMatrix.from_data(x), predictor or f, spec, k=50, seed=3)

    @pytest.mark.parametrize("label", AICC_LABELS)
    def test_explain_equals_explain_one(self, data, label):
        rows = data[0][:7] * 0.8
        explainer = self.fresh(data, label)
        one_by_one = as_bytes(explainer.explain_one(x, i) for i, x in enumerate(rows))
        blocked = self.fresh(data, label).explain(rows)
        assert as_bytes(blocked) == one_by_one

    @pytest.mark.parametrize("batch_rows", [samplers.AICC_BATCH_ROWS, 160])
    def test_one_aicc_predictor_call_per_coalition_per_block(self, data, monkeypatch, batch_rows):
        monkeypatch.setattr(samplers, "AICC_BATCH_ROWS", batch_rows)
        sizes = []

        def counting(X):
            sizes.append(len(X))
            return data[1](X)

        rows = data[0][:7] * 0.8
        explainer = self.fresh(data, "empirical-aicc-exact+gaussian", counting)
        sizes.clear()  # the mean training prediction
        blocked = explainer.explain(rows)
        block = explainer.sampler.aicc_block
        assert block == batch_rows // 80
        block_sizes = [len(rows[i : i + block]) for i in range(0, 7, block)]
        # 10 coalitions with |S| <= d_star = 2; other calls hold 1 row (f(x*))
        # or k = 50 rows at most.
        assert [n for n in sizes if n >= 80] == [80 * b for b in block_sizes for _ in range(10)]
        one_by_one = [explainer.explain_one(x, i) for i, x in enumerate(rows)]
        assert as_bytes(blocked) == as_bytes(one_by_one)

    def test_infinite_grid_names_the_instance(self, data):
        x, f = data
        rows = x[:3].copy()
        rows[1, 0] = 1e6
        nan_far = lambda X: np.where(np.atleast_2d(X)[:, 0] > 1e5, np.nan, f(X))
        explainer = self.fresh(data, "empirical-aicc-exact", nan_far)
        named = re.escape(np.array2string(rows[1], precision=6))
        with pytest.raises(ValueError, match="infinite on the whole bandwidth grid.*" + named):
            explainer.explain(rows)


class TestInstanceStream:
    """The Gaussian and copula coalitions of an instance draw in turn from one stream."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((400, 5)) @ (np.eye(5) + 0.4 * rng.standard_normal((5, 5)))
        beta = np.array([1.0, -2.0, 0.5, 1.5, 0.7])
        return x, lambda X: np.atleast_2d(X) @ beta + np.sin(np.atleast_2d(X)[:, 1])

    @staticmethod
    def fresh(data, label, seed=9):
        x, f = data
        spec = SamplerSpec.from_label(label, d_star=2)
        return Explainer(TrainingMatrix.from_data(x), f, spec, k=80, seed=seed)

    @pytest.mark.parametrize(
        "label", ["original", "gaussian", "copula", "empirical-0.1+gaussian", "empirical-0.1+copula"]
    )
    def test_explain_explain_one_and_reverse_order_give_identical_bytes(self, data, label):
        rows = data[0][:6] * 0.9
        blocked = as_bytes(self.fresh(data, label).explain(rows))
        forward = self.fresh(data, label)
        assert as_bytes(forward.explain_one(x, i) for i, x in enumerate(rows)) == blocked
        backward = self.fresh(data, label)
        reverse = [backward.explain_one(rows[i], i) for i in reversed(range(len(rows)))]
        assert as_bytes(reverse[::-1]) == blocked

    @pytest.mark.parametrize("label", ["gaussian", "copula", "empirical-0.1+copula"])
    def test_coalitions_draw_in_row_order_from_the_instance_stream(self, data, label):
        explainer = self.fresh(data, label)
        x_star, k = data[0][3], explainer.k
        v = explainer.contribution_vector(x_star, 3)
        draws = explainer.sampler.instance_draws(x_star, instance_stream(explainer.seed, 3))
        for row, s in enumerate(explainer.cm.coalitions):
            if 0 < len(s) < 5:
                alone = explainer.sampler.contribution(
                    explainer.predictor, s, x_star, k, [explainer.seed, 3, row], sigma=0.1,
                    draws=draws)
                assert v[row] == alone, s

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 32 + 7, 2 ** 63 - 1])
    def test_instance_stream_differs_from_every_row_stream(self, seed):
        def state(seq):
            return tuple(seq.generate_state(8))

        # The reason for the spawn key: a plain [seed, instance] pads to row 0's key.
        assert state(SeedSequence([seed, 2])) == state(SeedSequence([seed, 2, 0]))
        rows = {state(SeedSequence([seed, i, r])) for i in range(4) for r in range(40)}
        streams = {state(instance_stream(seed, i)) for i in range(4)}
        assert len(streams) == 4
        assert not streams & rows


# SHA-256 of the phi0/phi bytes of non_parametric_digest, computed before the
# Gaussian and copula parts drew from one stream per instance (numpy 2.4,
# OpenBLAS).  These labels draw nothing from that stream, so no byte may move.
NON_PARAMETRIC_DIGESTS = {
    "original": "5d9a9995ab93d5fa8f5aabc2ceb4a67b15a451d7d716b8978ff81f0b6bb65a83",
    "empirical-0.1": "50e29b96272243903da0e80fcb6267b44bc2599c00fffc6f2ee413cd57c38cb7",
    "empirical-aicc-exact": "beb6a36ef80068bf6d2b8e49da2242a97db83700a80200ee2d0fe73917381ce2",
    "empirical-aicc-approx": "7dd4a60e9a445fe5363adb6478a38c3eae3c2c52f935295a82a483659dc788b6",
}


def non_parametric_digest(label: str) -> str:
    rng = np.random.default_rng(29)
    x = rng.standard_normal((300, 4)) @ (np.eye(4) + 0.3 * rng.standard_normal((4, 4)))
    beta = np.array([1.0, -0.5, 2.0, 0.25])
    model = lambda X: np.atleast_2d(X) @ beta + np.cos(np.atleast_2d(X)[:, 0])
    spec = SamplerSpec.from_label(label, n_aicc=100)
    explanations = Explainer(TrainingMatrix.from_data(x), model, spec, k=150, seed=13).explain(x[:4])
    return hashlib.sha256(b"".join(as_bytes(explanations))).hexdigest()


@pytest.mark.parametrize("label", sorted(NON_PARAMETRIC_DIGESTS))
def test_labels_without_a_gaussian_or_copula_part_keep_their_digests(label):
    assert non_parametric_digest(label) == NON_PARAMETRIC_DIGESTS[label]
