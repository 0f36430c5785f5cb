"""Flat key-value simulation config files.

Format: one ``key = value`` pair per line, ``#`` comments, UTF-8.  Unknown
keys are errors so that a config always means what it says, and so is a
family parameter that the chosen law ignores (see the table).

Recognized keys (defaults in parentheses):

    name                experiment label ("")
    dimension           3 or 10 (3)
    features            gaussian | gh | mixture (gaussian)
    rho                 gaussian correlation (0.0); features = gaussian only
    kappa               gh skewness ladder (1.0); features = gh at dimension 3 only
    gamma               mixture mode separation (1.0); features = mixture only
    model               linear | piecewise (linear)
    estimators          comma-separated estimator labels (original,gaussian)
    n_train             training rows per batch (2000)
    n_test              test rows per batch (100)
    batches             batch count (10)
    noise_sd            response noise (0.1)
    k                   per-coalition sample budget; caps the empirical rows (1000)
    seed                master seed (0)
    quadrature_points   3-D truth grid per axis, 1 to 128 (64)
    quadrature_refine   true | false (true)
    n_mc                10-D truth draws per coalition (100000)
    d_star              combined-dispatch threshold (3)
    eta                 empirical weight-mass threshold (0.9)
    n_aicc              AICc subsample size (400)
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ConfigError
from ..samplers import SamplerSpec
from ..simlab.experiment import ExperimentConfig, FeatureFamily

_DEFAULTS = {
    "name": "",
    "dimension": 3,
    "features": "gaussian",
    "rho": 0.0,
    "kappa": 1.0,
    "gamma": 1.0,
    "model": "linear",
    "estimators": "original,gaussian",
    "n_train": 2000,
    "n_test": 100,
    "batches": 10,
    "noise_sd": 0.1,
    "k": 1000,
    "seed": 0,
    "quadrature_points": 64,
    "quadrature_refine": True,
    "n_mc": 100_000,
    "d_star": 3,
    "eta": 0.9,
    "n_aicc": 400,
}

# The family parameters and the one family each one steers.
_FAMILY_KEYS = {"rho": "gaussian", "kappa": "gh", "gamma": "mixture"}


def _parse_value(key: str, raw: str, path: str, line_no: int):
    """Parse ``raw`` as the type of the key's default value."""
    raw = raw.strip()
    kind = type(_DEFAULTS[key])
    try:
        if kind is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{path}:{line_no}: cannot parse {key} = {raw!r}"
        ) from None


def parse_simulation_config(path: str | Path) -> ExperimentConfig:
    """Parse, validate, and materialize an ExperimentConfig."""
    path = Path(path)
    values = dict(_DEFAULTS)
    unknown: list[str] = []
    seen: set[str] = set()
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            unknown.append(key)
            continue
        if key in seen:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _parse_value(key, raw, str(path), line_no)
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")

    kind = str(values["features"])
    for key, family in _FAMILY_KEYS.items():
        if key in seen and kind != family:
            raise ConfigError(f"{path}: {key} applies only to features = {family}, not {kind}")
    if "kappa" in seen and values["dimension"] == 10:
        raise ConfigError(f"{path}: kappa does not apply at dimension 10 (one fixed GH law)")

    overrides = {key: values[key] for key in ("d_star", "eta", "n_aicc")}
    try:
        estimators = tuple(
            SamplerSpec.from_label(label, **overrides)
            for label in str(values["estimators"]).split(",")
            if label.strip()
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    family = FeatureFamily(
        kind=kind,
        rho=float(values["rho"]),
        kappa=float(values["kappa"]),
        gamma=float(values["gamma"]),
    )
    return ExperimentConfig(
        dimension=int(values["dimension"]),
        features=family,
        sampling_model=str(values["model"]),
        estimators=estimators,
        n_train=int(values["n_train"]),
        n_test_per_batch=int(values["n_test"]),
        batches=int(values["batches"]),
        noise_sd=float(values["noise_sd"]),
        k=int(values["k"]),
        seed=int(values["seed"]),
        quadrature_points=int(values["quadrature_points"]),
        quadrature_refine=bool(values["quadrature_refine"]),
        n_mc=int(values["n_mc"]),
        name=str(values["name"]),
    )
