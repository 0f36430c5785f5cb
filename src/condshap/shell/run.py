"""The explain workflow behind the CLI: validated request in, files out."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import SchemaError
from ..explain import Explainer
from ..grouping import aggregate_shapley, complete_linkage, dissimilarity, kgs_cut
from ..samplers import SamplerSpec, TrainingMatrix
from ..simlab.models import fit_ols, fit_stump_ensemble
from .io import ExplanationRecord, read_numeric_csv, write_explanations
from .protocol import ExternalModel

MODEL_SOURCES = ("builtin_ols", "builtin_stumps", "external_command")

_SOURCE_ALIASES = {"ols": "builtin_ols", "stumps": "builtin_stumps", "external": "external_command"}


@dataclass
class ExplainRequest:
    """Everything one explanation run needs, validated before any work."""

    train_path: Path
    test_path: Path
    estimator: SamplerSpec
    model_source: str = "builtin_ols"
    model_command: str | None = None
    response: str | None = None
    seed: int = 0
    k: int = 1000
    output_path: str = "explanations"
    cluster_alpha: float | None = None
    coalition_draws: int = 2048
    timeout: float = 60.0

    def __post_init__(self):
        self.train_path = Path(self.train_path)
        self.test_path = Path(self.test_path)
        self.model_source = _SOURCE_ALIASES.get(self.model_source, self.model_source)
        if self.model_source not in MODEL_SOURCES:
            raise ValueError(f"unknown model source {self.model_source!r}")
        if not self.train_path.exists():
            raise SchemaError(f"training CSV not found: {self.train_path}")
        if not self.test_path.exists():
            raise SchemaError(f"test CSV not found: {self.test_path}")
        if self.model_source == "external_command" and not self.model_command:
            raise ValueError("external_command model source needs model_command")
        if self.model_source != "external_command" and self.response is None:
            raise ValueError(f"{self.model_source} requires a response column name")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _load_features(path: Path, response: str | None):
    header, matrix = read_numeric_csv(path)
    if response is None:
        return header, matrix, None
    if response not in header:
        raise SchemaError(f"{path}: response column {response!r} not found")
    r_idx = header.index(response)
    keep = [j for j in range(len(header)) if j != r_idx]
    return [header[j] for j in keep], matrix[:, keep], matrix[:, r_idx]


def run_explain(request: ExplainRequest) -> tuple[Path, Path]:
    """Fit or connect the model, explain every test row, write CSV + JSON."""
    train_names, train_x, y = _load_features(request.train_path, request.response)
    test_names, test_x, _ = _load_features(request.test_path, None)
    missing = [c for c in train_names if c not in test_names]
    extra = [c for c in test_names if c not in train_names]
    if missing or extra:
        raise SchemaError(
            f"train/test column mismatch: missing {missing or 'none'}, "
            f"unexpected {extra or 'none'}"
        )
    test_x = test_x[:, [test_names.index(c) for c in train_names]]

    train = TrainingMatrix.from_data(train_x, train_names)
    model_handle = None
    if request.model_source == "builtin_ols":
        predictor = fit_ols(train, y)
    elif request.model_source == "builtin_stumps":
        predictor = fit_stump_ensemble(train, y)
    else:
        predictor = model_handle = ExternalModel(
            request.model_command, timeout=request.timeout
        )

    try:
        explainer = Explainer(
            train,
            predictor,
            request.estimator,
            k=request.k,
            seed=request.seed,
            coalition_draws=request.coalition_draws,
        )
        assignment = None
        if request.cluster_alpha is not None:
            dmat = dissimilarity(train)
            assignment = kgs_cut(
                complete_linkage(dmat), alpha=request.cluster_alpha, dmatrix=dmat
            )

        records = []
        for i, expl in enumerate(explainer.explain(test_x)):
            group_phi, group_labels = None, ()
            if assignment is not None:
                grouped = aggregate_shapley(expl, assignment)
                group_phi, group_labels = grouped.group_phi, tuple(grouped.labels)
            records.append(
                ExplanationRecord(
                    instance_id=i,
                    prediction=expl.prediction,
                    phi0=expl.phi0,
                    phi=expl.phi,
                    feature_names=tuple(train_names),
                    group_phi=group_phi,
                    group_labels=group_labels,
                    estimator_id=request.estimator.label,
                    seed=request.seed,
                    sample_budget=request.k,
                )
            )
        return write_explanations(request.output_path, records)
    finally:
        if model_handle is not None:
            model_handle.close()
