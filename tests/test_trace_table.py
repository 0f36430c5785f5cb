"""The benchmark's trace table (``perfbench/tracing.py``) against the package.

The traced benchmark step patches condshap functions and methods by name and
requires a set of spans to fire on each workload.  These checks catch a
traced name that was renamed away or that the explain or simulate path no
longer calls, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from condshap import Explainer, SamplerSpec, TrainingMatrix
from condshap.simlab import experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for module_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name, cls_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(cls.__dict__.get(method)), (module_name, cls_name, method)


def test_explain_m10_spans_fire_on_a_small_run(tracing):
    """The four ``explain-m10`` labels at m=4 fire every span that workload expects."""
    rng = np.random.default_rng(3)
    m = 4
    cov = np.full((m, m), 0.5) + 0.5 * np.eye(m)
    x = rng.standard_normal((200, m)) @ np.linalg.cholesky(cov).T
    beta = np.arange(1.0, m + 1)

    def model(rows):
        return np.atleast_2d(rows) @ beta

    labels = ("original", "gaussian", "copula", "empirical-0.1+gaussian")
    with tracing.Tracer() as tracer:
        traced = tracer.wrap("model", model)
        train = TrainingMatrix.from_data(x)
        for label in labels:
            explainer = Explainer(train, traced, SamplerSpec.from_label(label), k=50, seed=1)
            explainer.explain_one(x[0], 0)
    assert tracing.missing_spans(tracer.spans, "explain-m10") == []


def test_simulate_3d_spans_fire_on_a_small_run(tracing):
    """A small Gaussian and mixture 3-D linear experiment, with the
    ``simulate-3d`` labels, fires every span that workload expects."""
    labels = ("original", "gaussian", "copula", "empirical-0.1")
    specs = tuple(SamplerSpec.from_label(label) for label in labels)
    families = (experiment.FeatureFamily("gaussian", rho=0.5),
                experiment.FeatureFamily("mixture", gamma=1.0))
    configs = [experiment.ExperimentConfig(
        dimension=3, features=family, sampling_model="linear", estimators=specs,
        n_train=200, n_test_per_batch=1, batches=1, k=50, seed=1,
        quadrature_points=8, quadrature_refine=False) for family in families]
    with tracing.Tracer() as tracer:
        for config in configs:
            # Looked up at call time, so that the tracer's wrapper runs.
            experiment.run_experiment(config)
    assert tracing.missing_spans(tracer.spans, "simulate-3d") == []
