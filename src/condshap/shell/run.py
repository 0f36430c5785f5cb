"""The explain workflow behind ``condshap explain``: parsed options in, files out."""

from __future__ import annotations

from pathlib import Path

from ..errors import ConfigError, SchemaError
from ..explain import Explainer, check_run
from ..grouping import check_alpha, dissimilarity, kgs_cut
from ..samplers import SamplerSpec, TrainingMatrix
from ..simlab.models import fit_ols, fit_stump_ensemble
from .io import read_numeric_csv, write_explanations
from .protocol import ExternalModel


def _load_features(path: str | Path, response: str | None):
    header, matrix = read_numeric_csv(path)
    if response is None:
        return header, matrix, None
    if response not in header:
        raise SchemaError(f"{path}: response column {response!r} not found")
    r_idx = header.index(response)
    keep = [j for j in range(len(header)) if j != r_idx]
    return [header[j] for j in keep], matrix[:, keep], matrix[:, r_idx]


def run_explain(
    spec: SamplerSpec, *, train_path, test_path, model, model_command, response, k, seed,
    output, cluster_alpha, coalition_draws, timeout,
) -> tuple[Path, Path]:
    """Fit (``model`` ols or stumps) or start (external) the model, explain every
    test row, write CSV + JSON.  The keywords are ``condshap explain``'s options
    as click names them; they are checked before any CSV is read or model started.
    """
    if model == "external" and not model_command:
        raise ConfigError("--model external needs --model-command")
    if model != "external" and response is None:
        raise ConfigError(f"--model {model} needs --response, the response column")
    check_run(k, seed, coalition_draws)
    if cluster_alpha is not None:
        check_alpha(cluster_alpha)

    train_names, train_x, y = _load_features(train_path, response)
    test_names, test_x, _ = _load_features(test_path, None)
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
    if model == "ols":
        predictor = fit_ols(train, y)
    elif model == "stumps":
        predictor = fit_stump_ensemble(train, y)
    else:
        predictor = model_handle = ExternalModel(model_command, timeout=timeout)

    try:
        explainer = Explainer(
            train, predictor, spec, k=k, seed=seed, coalition_draws=coalition_draws
        )
        assignment = None
        if cluster_alpha is not None:
            assignment = kgs_cut(dissimilarity(train), alpha=cluster_alpha)
        return write_explanations(output, explainer.explain(test_x), train_names, assignment)
    finally:
        if model_handle is not None:
            model_handle.close()
