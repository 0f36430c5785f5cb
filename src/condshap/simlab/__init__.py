"""Simulation laboratory: feature generators, sampling models, built-in
predictors, the batch experiment runner, and the MAE / skill-score metrics."""

from .distributions import (
    GaussianFeatures,
    GHFeatures,
    GHParams,
    MixtureFeatures,
    equicorrelated_cov,
    gh_conditional,
    gh_params_10d,
    gig_mean,
    gig_moment,
    sample_gig,
)
from .models import (
    OlsModel,
    StumpEnsembleModel,
    fit_ols,
    fit_stump_ensemble,
    fun1,
    fun2,
    fun3,
    linear_sampling_model,
    piecewise_sampling_model,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    FeatureFamily,
    mae,
    run_experiment,
    skill_score,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureFamily",
    "GaussianFeatures",
    "GHFeatures",
    "GHParams",
    "MixtureFeatures",
    "OlsModel",
    "StumpEnsembleModel",
    "equicorrelated_cov",
    "fit_ols",
    "fit_stump_ensemble",
    "fun1",
    "fun2",
    "fun3",
    "gh_conditional",
    "gh_params_10d",
    "gig_mean",
    "gig_moment",
    "linear_sampling_model",
    "mae",
    "piecewise_sampling_model",
    "run_experiment",
    "sample_gig",
    "skill_score",
]
