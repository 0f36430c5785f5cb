"""Shapley-value prediction explanations with dependence-aware samplers."""

from .coalitions import (
    CoalitionMatrix,
    Explanation,
    WlsSolver,
    enumerate_coalitions,
    exact_shapley,
    sample_coalitions,
    shapley_kernel_weight,
)
from .explain import Explainer
from .samplers import (
    FittedSampler,
    SamplerSpec,
    TrainingMatrix,
)

__all__ = [
    "CoalitionMatrix",
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
]

__version__ = "0.1.0"
