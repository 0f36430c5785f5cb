"""Declarative experiment configs, the batch runner, and accuracy metrics.

Each batch draws a fresh training set, fits the predictor, and explains a
fresh test set with every configured estimator; reference Shapley values come
from the quadrature oracle in three dimensions and the Monte Carlo oracle in
ten.  Everything is reproducible from the master seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..coalitions import Explanation
from ..errors import ConfigError, DegenerateReferenceError
from ..explain import Explainer
from ..oracles import (
    MAX_POINTS,
    GridSpec,
    fold_seed,
    quadrature_mean_prediction,
    true_shapley_mc,
    true_shapley_quadrature,
)
from ..samplers import SamplerSpec, TrainingMatrix
from .distributions import (
    GaussianFeatures,
    GHFeatures,
    GHParams,
    MixtureFeatures,
    equicorrelated_cov,
    gh_params_10d,
)
from .models import fit_ols, fit_stump_ensemble, linear_sampling_model, piecewise_sampling_model


@dataclass(frozen=True)
class FeatureFamily:
    """Which feature distribution an experiment draws from."""

    kind: str  # gaussian | gh | mixture
    rho: float = 0.0
    kappa: float = 1.0
    gamma: float = 1.0

    def build(self, dimension: int):
        if self.kind == "gaussian":
            return GaussianFeatures.equicorrelated(dimension, self.rho)
        if self.kind == "gh":
            if dimension == 10:
                return GHFeatures(gh_params_10d())
            return GHFeatures(GHParams.from_kappa(dimension, self.kappa))
        if self.kind == "mixture":
            return MixtureFeatures.from_gamma(self.gamma, m=dimension)
        raise ConfigError(f"unknown feature family {self.kind!r}")

    @property
    def parameter(self) -> float:
        return {"gaussian": self.rho, "gh": self.kappa, "mixture": self.gamma}[self.kind]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: feature family x sampling model x estimator set."""

    dimension: int = 3
    features: FeatureFamily = FeatureFamily("gaussian", rho=0.0)
    sampling_model: str = "linear"  # linear | piecewise
    estimators: tuple[SamplerSpec, ...] = (SamplerSpec(kind="independence"),)
    n_train: int = 2000
    n_test_per_batch: int = 100
    batches: int = 10
    noise_sd: float = 0.1
    k: int = 1000
    seed: int = 0
    quadrature_points: int = 64
    quadrature_refine: bool = True
    n_mc: int = 100_000
    name: str = ""

    def __post_init__(self):
        if self.dimension not in (3, 10):
            raise ConfigError("dimension must be 3 or 10")
        if self.sampling_model not in ("linear", "piecewise"):
            raise ConfigError(f"unknown sampling model {self.sampling_model!r}")
        if self.batches < 1:
            raise ConfigError("batches must be >= 1")
        if self.n_train < 2 or self.n_test_per_batch < 1:
            raise ConfigError("n_train and n_test_per_batch must be positive")
        if not self.estimators:
            raise ConfigError("at least one estimator is required")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 1 <= self.quadrature_points <= MAX_POINTS:
            bound = ">= 1" if self.quadrature_points < 1 else f"<= {MAX_POINTS}"
            raise ConfigError(f"quadrature_points must be {bound}, got {self.quadrature_points}")
        if self.n_mc < 2:
            raise ConfigError(f"n_mc must be >= 2, got {self.n_mc}")
        for key in ("kappa", "gamma"):
            value = getattr(self.features, key)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ConfigError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.features.kind == "gaussian":
            try:
                equicorrelated_cov(self.dimension, self.features.rho)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @property
    def truth_method(self) -> str:
        return "quadrature" if self.dimension == 3 else "monte_carlo"

    @property
    def parameter(self) -> float | None:
        """The family parameter the law reads; None for the fixed ten-feature GH law."""
        if self.features.kind == "gh" and self.dimension == 10:
            return None
        return self.features.parameter


@dataclass
class ExperimentReport:
    """Aggregated accuracy results; serialized forms exclude wall-clock data."""

    name: str
    parameter: float | None
    estimator_labels: tuple[str, ...]
    mae: dict[str, float]
    skill: dict[str, float | None]
    per_batch_mae: dict[str, list[float]]
    truth: dict
    config: dict
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameter": self.parameter,
            "estimators": list(self.estimator_labels),
            "mae": self.mae,
            "skill": self.skill,
            "per_batch_mae": self.per_batch_mae,
            "truth": self.truth,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list[tuple]:
        """Long format: experiment, parameter, estimator, batch, mae."""
        rows = []
        for label in self.estimator_labels:
            for b, value in enumerate(self.per_batch_mae[label]):
                rows.append((self.name, self.parameter, label, b, value))
        return rows

    def summary_table(self) -> str:
        width = max(len(label) for label in self.estimator_labels)
        lines = [f"{'estimator':<{width}}  {'MAE':>10}  {'skill':>8}"]
        for label in self.estimator_labels:
            skill = self.skill[label]
            skill_text = f"{skill:8.3f}" if skill is not None else "     n/a"
            lines.append(f"{label:<{width}}  {self.mae[label]:10.5f}  {skill_text}")
        return "\n".join(lines)


def mae(estimated: Sequence[Explanation], truth: Sequence[Explanation]) -> float:
    """The mean over instances of each instance's mean absolute error over
    its features; phi0 is excluded."""
    if len(estimated) != len(truth):
        raise ValueError("estimated and truth lists differ in length")
    if not estimated:
        raise ValueError("empty explanation list")
    errors = []
    for est, ref in zip(estimated, truth):
        if est.phi.shape != ref.phi.shape:
            raise ValueError("feature counts differ between estimate and truth")
        errors.append(float(np.abs(ref.phi - est.phi).mean()))
    return float(np.mean(errors))


def skill_score(mae_q: float, mae_original: float) -> float:
    """1 - mae_q / mae_original; 1 is perfect, 0 matches the reference."""
    if mae_original <= 0.0:
        raise DegenerateReferenceError("degenerate reference: reference MAE is zero")
    return 1.0 - mae_q / mae_original


def _fit_predictor(config: ExperimentConfig, train: TrainingMatrix, y: np.ndarray):
    if config.sampling_model == "linear":
        return fit_ols(train, y)
    return fit_stump_ensemble(train, y)


def _sample_response(config: ExperimentConfig, x: np.ndarray, rng_seed) -> np.ndarray:
    model = linear_sampling_model if config.sampling_model == "linear" else piecewise_sampling_model
    with np.errstate(over="ignore", invalid="ignore"):
        y = model(x, rng_seed, noise_sd=config.noise_sd)
    if not np.isfinite(y).all():
        raise ConfigError(f"noise_sd = {config.noise_sd:g} overflows the responses")
    return y


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all batches of one experiment and aggregate MAE / skill scores."""
    dist = config.features.build(config.dimension)
    labels = tuple(spec.label for spec in config.estimators)
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate estimator labels: {labels}")
    explained: dict[str, list[Explanation]] = {label: [] for label in labels}
    truths: list[Explanation] = []
    per_batch: dict[str, list[float]] = {label: [] for label in labels}
    timings: dict[str, float] = {}
    truth_meta: dict = {"method": config.truth_method}
    if config.dimension == 3:
        truth_meta.update(
            {
                "quadrature_points": config.quadrature_points,
                "refine": config.quadrature_refine,
            }
        )
    else:
        truth_meta.update({"n_mc": config.n_mc})

    t_start = time.perf_counter()
    for batch in range(config.batches):
        instance = ""  # names the test instance while its truth is computed
        try:
            t0 = time.perf_counter()
            train_x = dist.sample(
                config.n_train, np.random.default_rng([config.seed, batch, 0])
            )
            train = TrainingMatrix.from_data(train_x)
            y = _sample_response(config, train_x, [config.seed, batch, 1])
            predictor = _fit_predictor(config, train, y)
            test_x = dist.sample(
                config.n_test_per_batch, np.random.default_rng([config.seed, batch, 2])
            )

            truth: list[Explanation] = []
            grid = GridSpec(
                points_per_axis=config.quadrature_points,
                refine=config.quadrature_refine,
            )
            v_empty = (
                quadrature_mean_prediction(dist, predictor, grid)
                if config.dimension == 3
                else None
            )
            for i, x_star in enumerate(test_x):
                instance = f", instance {i} (x* = {x_star.tolist()})"
                if config.dimension == 3:
                    truth.append(
                        true_shapley_quadrature(
                            dist, predictor, x_star, grid, v_empty=v_empty
                        )
                    )
                else:
                    truth.append(
                        true_shapley_mc(
                            dist,
                            predictor,
                            x_star,
                            config.n_mc,
                            rng_seed=[config.seed, batch, 3, i],
                        )
                    )
            instance = ""
            timings[f"batch{batch}_truth_s"] = time.perf_counter() - t0
            truths.extend(truth)

            for index, (spec, label) in enumerate(zip(config.estimators, labels)):
                t1 = time.perf_counter()
                explainer = Explainer(
                    train,
                    predictor,
                    spec,
                    k=config.k,
                    seed=fold_seed([config.seed, batch, 4, index]),
                )
                explanations = explainer.explain(test_x)
                explained[label].extend(explanations)
                per_batch[label].append(mae(explanations, truth))
                timings[f"batch{batch}_{label}_s"] = time.perf_counter() - t1
        except Exception as exc:
            raise RuntimeError(
                f"experiment {config.name or config.features.kind!r} failed in "
                f"batch {batch}{instance}: {exc}"
            ) from exc
    timings["total_s"] = time.perf_counter() - t_start

    mae_by_label = {label: mae(explained[label], truths) for label in labels}
    reference = next(
        (label for spec, label in zip(config.estimators, labels) if spec.kind == "independence"),
        None,
    )
    skill: dict[str, float | None] = {}
    for label in labels:
        if reference is None or mae_by_label[reference] <= 0.0:
            skill[label] = None
        else:
            skill[label] = skill_score(mae_by_label[label], mae_by_label[reference])
    config_meta = {
        "dimension": config.dimension,
        "features": config.features.kind,
        "parameter": config.parameter,
        "sampling_model": config.sampling_model,
        "n_train": config.n_train,
        "n_test_per_batch": config.n_test_per_batch,
        "batches": config.batches,
        "noise_sd": config.noise_sd,
        "k": config.k,
        "seed": config.seed,
    }
    return ExperimentReport(
        name=config.name or f"{config.features.kind}-{config.sampling_model}",
        parameter=config.parameter,
        estimator_labels=labels,
        mae=mae_by_label,
        skill=skill,
        per_batch_mae=per_batch,
        truth=truth_meta,
        config=config_meta,
        timings=timings,
    )

