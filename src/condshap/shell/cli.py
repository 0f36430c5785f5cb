"""Command-line interface: explain, simulate, cluster.

Exit codes: 0 success, 1 an explanation that fails the efficiency identity,
2 schema, configuration or other package errors, 3 external model protocol
failures.  Each failure prints one ``error:`` line and no traceback.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path

import click

from ..errors import CondShapError, EfficiencyViolationError, ModelProtocolError
from ..grouping import check_alpha, complete_linkage, dissimilarity, kgs_cut
from ..samplers import SamplerSpec, TrainingMatrix
from ..simlab.experiment import run_experiment
from .config import parse_simulation_config
from .io import read_numeric_csv, write_numeric_csv
from .run import ExplainRequest, run_explain


@click.group()
def main() -> None:
    """Shapley-value explanations with dependence-aware conditional samplers."""


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {' '.join(message.splitlines())}", err=True)
    sys.exit(code)


# First match wins; CondShapError covers every remaining package error.
EXIT_CODES = ((ModelProtocolError, 3), (EfficiencyViolationError, 1), (CondShapError, 2))


def _exit_code(exc: BaseException | None) -> int | None:
    """Exit code of a package error, looking through ``raise ... from`` wrappers."""
    while exc is not None:
        for kind, code in EXIT_CODES:
            if isinstance(exc, kind):
                return code
        exc = exc.__cause__
    return None


def _exit_codes(command):
    """End a subcommand that raised a package error with its exit code."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except Exception as exc:
            code = _exit_code(exc)
            if code is None:
                raise
            _fail(code, str(exc))

    return run


@main.command()
@click.option("--train", "train_path", required=True, type=click.Path(exists=True))
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option(
    "--estimator",
    default="gaussian",
    show_default=True,
    help="original | gaussian | copula | empirical-<sigma> | empirical-aicc-exact "
    "| empirical-aicc-approx | <empirical...>+gaussian | <empirical...>+copula",
)
@click.option(
    "--model",
    type=click.Choice(["ols", "stumps", "external"]),
    default="ols",
    show_default=True,
)
@click.option("--model-command", default=None, help="command for --model external")
@click.option("--response", default=None, help="response column for builtin models")
@click.option("--k", default=1000, show_default=True,
              help="samples per coalition; the empirical row cap")
@click.option("--seed", default=0, show_default=True)
@click.option("--output", default="explanations", show_default=True, help="output prefix")
@click.option("--cluster-alpha", default=None, type=float, help="group features and aggregate")
@click.option("--d-star", default=3, show_default=True)
@click.option("--eta", default=0.9, show_default=True)
@click.option("--coalition-draws", default=2048, show_default=True)
@click.option("--timeout", default=60.0, show_default=True, help="model protocol timeout (s)")
@_exit_codes
def explain(
    train_path,
    test_path,
    estimator,
    model,
    model_command,
    response,
    k,
    seed,
    output,
    cluster_alpha,
    d_star,
    eta,
    coalition_draws,
    timeout,
) -> None:
    """Explain every row of the test CSV against a model fitted or served."""
    try:
        spec = SamplerSpec.from_label(estimator, d_star=d_star, eta=eta)
        request = ExplainRequest(
            train_path=train_path,
            test_path=test_path,
            estimator=spec,
            model_source=model,
            model_command=model_command,
            response=response,
            seed=seed,
            k=k,
            output_path=output,
            cluster_alpha=cluster_alpha,
            coalition_draws=coalition_draws,
            timeout=timeout,
        )
    except ValueError as exc:
        _fail(2, str(exc))
    csv_path, json_path = run_explain(request)
    click.echo(f"wrote {csv_path} and {json_path}")


@main.command()
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--output-dir", default=".", show_default=True)
@_exit_codes
def simulate(config_path, output_dir) -> None:
    """Run the experiment described by a flat key-value config file."""
    config = parse_simulation_config(config_path)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_experiment(config)

    json_path = out / "report.json"
    json_path.write_text(report.to_json(), encoding="utf-8")
    csv_path = out / "report.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "parameter", "estimator", "batch", "mae"])
        for name, parameter, label, batch, mae in report.csv_rows():
            # The ten-feature GH law reads no family parameter: an empty cell.
            parameter = "" if parameter is None else repr(float(parameter))
            writer.writerow([name, parameter, label, batch, repr(float(mae))])
    summary_path = out / "summary.txt"
    summary_path.write_text(report.summary_table() + "\n", encoding="utf-8")
    # Wall-clock data goes to a sidecar; the report files stay reproducible.
    (out / "timings.json").write_text(
        json.dumps(report.timings, indent=2, sort_keys=True), encoding="utf-8"
    )
    click.echo(report.summary_table())
    click.echo(f"wrote {json_path}, {csv_path}, {summary_path}", err=True)


@main.command()
@click.argument("train_path", type=click.Path(exists=True))
@click.option("--alpha", default=1.0, show_default=True, help="penalty scale")
@click.option("--output", default="clusters", show_default=True, help="output prefix")
@_exit_codes
def cluster(train_path, alpha, output) -> None:
    """Cluster features by rank dependence and write the assignment."""
    check_alpha(alpha)
    header, matrix = read_numeric_csv(train_path)
    if matrix.shape[1] < 2:
        _fail(2, f"{train_path}: need at least two numeric columns")
    train = TrainingMatrix.from_data(matrix, header)
    dmat = dissimilarity(train)
    assignment = kgs_cut(complete_linkage(dmat), alpha=alpha, dmatrix=dmat)
    prefix = Path(output)
    json_path = prefix.parent / (prefix.name + ".json")
    json_path.write_text(
        json.dumps(assignment.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    tau_path = prefix.parent / (prefix.name + "_tau.csv")
    write_numeric_csv(tau_path, list(header), 1.0 - dmat.d)
    click.echo(f"{assignment.n_groups} groups -> {json_path}, {tau_path}")


if __name__ == "__main__":
    main()
