"""CSV ingestion and explanation persistence.

CSV contract: UTF-8, header row required, '.' decimal point, every cell a
finite number, no missing values.  Floats are written with shortest
round-trip formatting so ingest -> serialize -> ingest is lossless.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ..coalitions import Explanation
from ..errors import SchemaError
from ..grouping import ClusterAssignment, aggregate_shapley


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a fully numeric CSV with a header row.

    Raises SchemaError naming the offending columns for non-numeric cells,
    and rejects missing/blank and non-finite values outright.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header")
        rows: list[list[float]] = []
        bad_columns: dict[str, str] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise SchemaError(
                        f"{path}:{line_no}: missing value in column {name!r}"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    bad_columns.setdefault(name, cell)
                    value = math.nan
                else:
                    if not math.isfinite(value):
                        raise SchemaError(
                            f"{path}:{line_no}: non-finite value in column {name!r}"
                        )
                parsed.append(value)
            rows.append(parsed)
        if bad_columns:
            cols = ", ".join(f"{k} (e.g. {v!r})" for k, v in sorted(bad_columns.items()))
            raise SchemaError(f"{path}: non-numeric columns: {cols}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return header, np.asarray(rows, float)


def write_numeric_csv(path: str | Path, header: list[str], matrix: np.ndarray) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([_fmt(x) for x in row])


def write_explanations(
    output_prefix: str | Path,
    explanations: list[Explanation],
    feature_names: Sequence[str],
    assignment: ClusterAssignment | None = None,
) -> tuple[Path, Path]:
    """Write explanations to <prefix>.csv and <prefix>.json.

    Record i is test row i; with an ``assignment`` each record also carries
    its group sums.  Every explanation is efficiency-checked first; a
    violation is a hard error and nothing is written.  The files hold no
    wall-clock data, so reruns with the same seed are byte-identical.
    """
    if not explanations:
        raise ValueError("no explanations to write")
    for expl in explanations:
        expl.check_efficiency()
    labels, group_phi = [], [None] * len(explanations)
    if assignment is not None:
        labels = assignment.labels
        group_phi = [aggregate_shapley(e, assignment).phi for e in explanations]
    first = explanations[0]
    prefix = Path(output_prefix)
    csv_path = prefix.parent / (prefix.name + ".csv")
    json_path = prefix.parent / (prefix.name + ".json")

    header = (
        ["instance_id", "prediction", "phi0"]
        + [f"phi_{name}" for name in feature_names]
        + [f"group_{label}" for label in labels]
    )
    records = []
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, (expl, sums) in enumerate(zip(explanations, group_phi)):
            row = [str(i), _fmt(expl.prediction), _fmt(expl.phi0)] + [_fmt(v) for v in expl.phi]
            record = {
                "instance_id": i,
                "prediction": expl.prediction,
                "phi0": expl.phi0,
                "phi": {name: float(v) for name, v in zip(feature_names, expl.phi)},
                "estimator": expl.estimator_id,
                "seed": expl.seed,
                "sample_budget": expl.sample_budget,
            }
            if sums is not None:
                row += [_fmt(v) for v in sums]
                record["group_phi"] = {label: float(v) for label, v in zip(labels, sums)}
            writer.writerow(row)
            records.append(record)

    payload = {
        "estimator": first.estimator_id,
        "seed": first.seed,
        "sample_budget": first.sample_budget,
        "records": records,
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return csv_path, json_path
