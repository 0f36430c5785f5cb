"""Spans around condshap's public calls, recorded from outside the package.

A :class:`Tracer` replaces each traced function or method with a wrapper that
appends ``[name, start, end, parent, rows]`` to an in-memory list.  Callers
bind functions by name (``from .samplers import call_predictor``), so a
function is patched in every loaded ``condshap`` module that binds it, not
only where it is defined.  Methods are patched once on their class.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Imported before patching, so that every module binding a traced name is seen.
MODULES = (
    "condshap", "condshap.simlab", "condshap.simlab.experiment", "condshap.shell",
    "condshap.shell.run", "condshap.shell.cli",
)

# (module, attribute) of every traced function; the span is named by the attribute.
FUNCTIONS = (
    ("condshap.coalitions", "enumerate_coalitions"),
    ("condshap.samplers", "call_predictor"),
    ("condshap.samplers", "mean_training_prediction"),
    ("condshap.samplers", "gaussian_conditional"),
    ("condshap.samplers", "conditional_moments"),
    ("condshap.samplers", "sample_gaussian_conditional"),
    ("condshap.samplers", "sample_copula_conditional"),
    ("condshap.samplers", "estimate_v_empirical"),
    ("condshap.samplers", "aicc_bandwidth"),
    ("condshap.oracles", "quadrature_mean_prediction"),
    ("condshap.oracles", "true_shapley_quadrature"),
    ("condshap.grouping", "dissimilarity"),
    ("condshap.grouping", "kendall_tau"),
    ("condshap.grouping", "complete_linkage"),
    ("condshap.grouping", "kgs_cut"),
    ("condshap.grouping", "aggregate_shapley"),
    ("condshap.simlab.models", "fit_ols"),
    ("condshap.simlab.experiment", "run_experiment"),
    ("condshap.shell.io", "read_numeric_csv"),
    ("condshap.shell.io", "write_explanations"),
)

# (module, class, method); the span is named "Class.method".
METHODS = (
    ("condshap.coalitions", "WlsSolver", "__init__"),
    ("condshap.coalitions", "WlsSolver", "solve"),
    ("condshap.samplers", "FittedSampler", "__init__"),
    ("condshap.samplers", "FittedSampler", "contribution"),
    ("condshap.explain", "Explainer", "explain_one"),
    ("condshap.explain", "Explainer", "explain"),
    ("condshap.simlab.models", "OlsModel", "__call__"),
    ("condshap.simlab.distributions", "GaussianFeatures", "sample"),
    ("condshap.simlab.distributions", "MixtureFeatures", "sample"),
    ("condshap.shell.protocol", "ExternalModel", "__init__"),
    ("condshap.shell.protocol", "ExternalModel", "__call__"),
)

MODEL_SPANS = ("model", "OlsModel.__call__", "ExternalModel.__call__")
ORACLE_SPANS = ("quadrature_mean_prediction", "true_shapley_quadrature")

# name -> (unit, how, spans, workload on which it must be non-zero).
# how: "total" sums spans not nested in another span of the group, "self" sums
# self times, "count" counts spans, "rows"/"max_rows" read call_predictor's
# batch sizes, "oracle_rows"/"oracle_max_rows" only under an oracle span,
# "under_experiment" sums spans nested in run_experiment, "external" is filled
# in by the workload.
LAYERS = {
    "coalitions.design_s": ("s", "total", ("enumerate_coalitions", "WlsSolver.__init__"), "explain-m10"),
    "coalitions.solve_s": ("s", "total", ("WlsSolver.solve",), "explain-m10"),
    "samplers.fit_s": ("s", "total", ("FittedSampler.__init__",), "explain-m10"),
    "samplers.contribution_s": ("s", "self", ("FittedSampler.contribution",), "explain-m10"),
    "samplers.contributions": ("count", "count", ("FittedSampler.contribution",), "explain-m10"),
    "samplers.conditioning_s": ("s", "total", ("gaussian_conditional", "conditional_moments"), "explain-m10"),
    "samplers.draws_s": ("s", "self", ("sample_gaussian_conditional", "sample_copula_conditional"), "explain-m10"),
    "samplers.empirical_s": ("s", "self", ("estimate_v_empirical",), "cli-external-m3"),
    "samplers.aicc_s": ("s", "self", ("aicc_bandwidth",), "cli-external-m3"),
    "samplers.aicc_calls": ("count", "count", ("aicc_bandwidth",), "cli-external-m3"),
    "predictor.calls": ("count", "count", ("call_predictor",), "cli-external-m3"),
    "predictor.rows": ("count", "rows", ("call_predictor",), "explain-m10"),
    "predictor.s": ("s", "total", MODEL_SPANS, "cli-external-m3"),
    "predictor.max_batch_rows": ("rows", "max_rows", ("call_predictor",), "explain-m10"),
    "explain.self_s": ("s", "self", ("Explainer.explain_one",), "explain-m10"),
    "explain.mean_prediction_s": ("s", "total", ("mean_training_prediction",), "cli-external-m3"),
    "shell.import_s": ("s", "external", (), "cli-external-m3"),
    "shell.csv_read_s": ("s", "total", ("read_numeric_csv",), "cli-external-m3"),
    "shell.write_s": ("s", "total", ("write_explanations",), "cli-external-m3"),
    "shell.protocol_start_s": ("s", "total", ("ExternalModel.__init__",), "cli-external-m3"),
    "shell.protocol_s": ("s", "total", ("ExternalModel.__call__",), "cli-external-m3"),
    "shell.protocol_requests": ("count", "external", (), "cli-external-m3"),
    "shell.protocol_bytes": ("bytes", "external", (), "cli-external-m3"),
    "grouping.dissimilarity_s": ("s", "total", ("dissimilarity",), "cli-external-m3"),
    "grouping.kendall_pairs": ("count", "count", ("kendall_tau",), "cli-external-m3"),
    "grouping.linkage_s": ("s", "total", ("complete_linkage", "kgs_cut", "aggregate_shapley"), "cli-external-m3"),
    "oracles.mean_prediction_s": ("s", "total", ("quadrature_mean_prediction",), "simulate-3d"),
    "oracles.quadrature_s": ("s", "total", ("true_shapley_quadrature",), "simulate-3d"),
    "oracles.predictor_rows": ("count", "oracle_rows", ("call_predictor",), "simulate-3d"),
    "oracles.max_batch_rows": ("rows", "oracle_max_rows", ("call_predictor",), "simulate-3d"),
    "simlab.sample_s": ("s", "total", ("GaussianFeatures.sample", "MixtureFeatures.sample"), "simulate-3d"),
    "simlab.fit_s": ("s", "total", ("fit_ols",), "simulate-3d"),
    "simlab.estimators_s": ("s", "under_experiment", ("Explainer.explain",), "simulate-3d"),
}

# Spans that must fire at least once in a traced round of each workload.
EXPECTED = {
    "explain-m10": (
        "enumerate_coalitions", "WlsSolver.__init__", "WlsSolver.solve",
        "FittedSampler.__init__", "FittedSampler.contribution", "gaussian_conditional",
        "conditional_moments", "sample_gaussian_conditional", "sample_copula_conditional",
        "estimate_v_empirical", "call_predictor", "model", "Explainer.explain_one",
        "mean_training_prediction",
    ),
    "cli-external-m3": (
        "read_numeric_csv", "write_explanations", "ExternalModel.__init__",
        "ExternalModel.__call__", "dissimilarity", "kendall_tau", "complete_linkage",
        "kgs_cut", "aggregate_shapley", "estimate_v_empirical", "aicc_bandwidth",
        "call_predictor", "mean_training_prediction", "Explainer.explain_one",
        "WlsSolver.solve", "FittedSampler.contribution",
    ),
    "simulate-3d": (
        "run_experiment", "quadrature_mean_prediction", "true_shapley_quadrature",
        "GaussianFeatures.sample", "MixtureFeatures.sample", "fit_ols", "OlsModel.__call__",
        "Explainer.explain", "Explainer.explain_one", "call_predictor",
        "sample_gaussian_conditional", "sample_copula_conditional", "estimate_v_empirical",
    ),
}


def _batch_rows(args: tuple) -> int:
    rows = np.asarray(args[1]) if len(args) > 1 else np.empty((0, 0))
    return int(rows.shape[0]) if rows.ndim == 2 else 1


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_rows = name == "call_predictor"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          _batch_rows(args) if counts_rows else 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module_name in MODULES:
            importlib.import_module(module_name)
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(attr, original)
            for name, module in list(sys.modules.items()):
                if (name == "condshap" or name.startswith("condshap.")) and \
                        getattr(module, attr, None) is original:
                    self._set(module, attr, wrapper)
        for module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, method, self.wrap(f"{cls_name}.{method}", cls.__dict__[method]))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _has_ancestor(spans: list, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list, external: dict | None = None) -> dict[str, float]:
    """Every per-layer metric from one traced round's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for metric, (_, how, names, _) in LAYERS.items():
        picked = [i for i, span in enumerate(spans) if span[0] in names]
        if how == "total":
            value = sum(spans[i][2] - spans[i][1] for i in picked
                        if not _has_ancestor(spans, i, names))
        elif how == "self":
            value = sum(spans[i][2] - spans[i][1] - child_time[i] for i in picked)
        elif how == "count":
            value = len(picked)
        elif how in ("rows", "max_rows", "oracle_rows", "oracle_max_rows"):
            if how.startswith("oracle"):
                picked = [i for i in picked if _has_ancestor(spans, i, ORACLE_SPANS)]
            rows = [spans[i][4] for i in picked]
            value = (max(rows, default=0) if how.endswith("max_rows") else sum(rows))
        elif how == "under_experiment":
            value = sum(spans[i][2] - spans[i][1] for i in picked
                        if _has_ancestor(spans, i, ("run_experiment",)))
        else:
            value = (external or {}).get(metric, 0)
        out[metric] = value
    return out


def missing_spans(spans: list, workload: str) -> list[str]:
    fired = {span[0] for span in spans}
    return [name for name in EXPECTED[workload] if name not in fired]


def zero_layers(metrics: dict[str, float], workload: str) -> list[str]:
    return [name for name, (_, _, _, owner) in LAYERS.items()
            if owner == workload and not metrics[name] > 0]
