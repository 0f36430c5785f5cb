"""Shapley-value prediction explanations with dependence-aware samplers."""

from .coalitions import (
    CoalitionMatrix,
    ContributionVector,
    Explanation,
    WlsSolver,
    enumerate_coalitions,
    exact_shapley,
    sample_coalitions,
    shapley_kernel_weight,
    solve_wls,
)
from .explain import Explainer
from .samplers import (
    FittedSampler,
    SamplerSpec,
    TrainingMatrix,
)

__all__ = [
    "CoalitionMatrix",
    "ContributionVector",
    "Explanation",
    "Explainer",
    "FittedSampler",
    "SamplerSpec",
    "TrainingMatrix",
    "WlsSolver",
    "enumerate_coalitions",
    "exact_shapley",
    "sample_coalitions",
    "shapley_kernel_weight",
    "solve_wls",
]

__version__ = "0.1.0"
