"""The explain workflow behind the CLI: validated request in, files out."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import SchemaError
from ..explain import Explainer, check_run
from ..grouping import check_alpha, complete_linkage, dissimilarity, kgs_cut
from ..samplers import SamplerSpec, TrainingMatrix
from ..simlab.models import fit_ols, fit_stump_ensemble
from .io import read_numeric_csv, write_explanations
from .protocol import ExternalModel

MODEL_SOURCES = ("ols", "stumps", "external")


@dataclass
class ExplainRequest:
    """Everything one explanation run needs, validated before any work."""

    train_path: Path
    test_path: Path
    estimator: SamplerSpec
    model_source: str = "ols"
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
        if self.model_source not in MODEL_SOURCES:
            raise ValueError(f"unknown model source {self.model_source!r}")
        if not self.train_path.exists():
            raise SchemaError(f"training CSV not found: {self.train_path}")
        if not self.test_path.exists():
            raise SchemaError(f"test CSV not found: {self.test_path}")
        if self.model_source == "external" and not self.model_command:
            raise ValueError("external model source needs model_command")
        if self.model_source != "external" and self.response is None:
            raise ValueError(f"{self.model_source} requires a response column name")
        check_run(self.k, self.seed, self.coalition_draws)
        if self.cluster_alpha is not None:
            check_alpha(self.cluster_alpha)


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
    if request.model_source == "ols":
        predictor = fit_ols(train, y)
    elif request.model_source == "stumps":
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
        return write_explanations(
            request.output_path, explainer.explain(test_x), train_names, assignment
        )
    finally:
        if model_handle is not None:
            model_handle.close()
