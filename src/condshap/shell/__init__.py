"""CLI, configuration, data ingestion, result persistence, and the
external-model prediction protocol."""

from .io import read_numeric_csv, write_explanations
from .protocol import ExternalModel
from .config import parse_simulation_config
from .run import ExplainRequest, run_explain

__all__ = [
    "ExplainRequest",
    "ExternalModel",
    "parse_simulation_config",
    "read_numeric_csv",
    "run_explain",
    "write_explanations",
]
