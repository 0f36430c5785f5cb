"""CSV ingestion and explanation persistence.

CSV contract: UTF-8, header row required, '.' decimal point, every cell a
finite number, no missing values.  Floats are written with shortest
round-trip formatting so ingest -> serialize -> ingest is lossless.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import EfficiencyViolationError, SchemaError

EFFICIENCY_RTOL = 1e-6


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


@dataclass
class ExplanationRecord:
    """One explained instance as persisted by the CLI.

    Holds no wall-clock data; serialized outputs must be byte-identical
    across reruns with the same seed.
    """

    instance_id: int
    prediction: float
    phi0: float
    phi: np.ndarray
    feature_names: tuple[str, ...]
    group_phi: np.ndarray | None = None
    group_labels: tuple[str, ...] = ()
    estimator_id: str = ""
    seed: int | None = None
    sample_budget: int | None = None

    def check_efficiency(self) -> None:
        gap = abs(self.phi0 + float(np.sum(self.phi)) - self.prediction)
        tol = EFFICIENCY_RTOL * max(1.0, abs(self.prediction))
        if gap > tol:
            raise EfficiencyViolationError(
                f"record {self.instance_id}: efficiency gap {gap:.3e} exceeds {tol:.3e}"
            )

    def to_dict(self) -> dict:
        out = {
            "instance_id": self.instance_id,
            "prediction": self.prediction,
            "phi0": self.phi0,
            "phi": {name: float(v) for name, v in zip(self.feature_names, self.phi)},
            "estimator": self.estimator_id,
            "seed": self.seed,
            "sample_budget": self.sample_budget,
        }
        if self.group_phi is not None:
            out["group_phi"] = {
                label: float(v) for label, v in zip(self.group_labels, self.group_phi)
            }
        return out


def write_explanations(
    output_prefix: str | Path, records: list[ExplanationRecord]
) -> tuple[Path, Path]:
    """Write records to <prefix>.csv and <prefix>.json.

    Every record is efficiency-checked first; a violation is a hard error and
    nothing is written.
    """
    if not records:
        raise ValueError("no records to write")
    for record in records:
        record.check_efficiency()
    first = records[0]
    prefix = Path(output_prefix)
    csv_path = prefix.parent / (prefix.name + ".csv")
    json_path = prefix.parent / (prefix.name + ".json")

    header = (
        ["instance_id", "prediction", "phi0"]
        + [f"phi_{name}" for name in first.feature_names]
        + [f"group_{label}" for label in first.group_labels]
    )
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            row = [str(record.instance_id), _fmt(record.prediction), _fmt(record.phi0)]
            row += [_fmt(v) for v in record.phi]
            if record.group_phi is not None:
                row += [_fmt(v) for v in record.group_phi]
            writer.writerow(row)

    payload = {
        "estimator": first.estimator_id,
        "seed": first.seed,
        "sample_budget": first.sample_budget,
        "records": [record.to_dict() for record in records],
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return csv_path, json_path
