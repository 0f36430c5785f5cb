"""Compare two condshap outputs leaf by leaf and print the largest float change.

The outputs are ``condshap simulate`` reports (``report.json``,
``report.csv``) or ``condshap explain`` outputs (the ``--output`` CSV and
JSON).  Usage::

    python3 scripts/report_delta.py before/report.json after/report.json
    python3 scripts/report_delta.py before/report.csv after/report.csv
    python3 scripts/report_delta.py before/explain.csv after/explain.csv

The two reports must have the same structure and the same non-float leaves
(keys, names, counts, rows); otherwise the script names the first
difference and exits with code 1.  Float leaves may differ: the script
prints how many changed and the largest absolute and relative change, each
with its path and both values, and exits with code 0.  A CSV is read as a
list of rows keyed by its header; a cell is an int, else a float, else
text.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load(path: Path):
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    return json.loads(path.read_text(encoding="utf-8"))


def float_pairs(a, b, path: str = "$"):
    """Yield ``(path, a, b)`` for every pair of finite float leaves.

    Raises ``ValueError`` at the first difference of any other kind: keys,
    lengths, types, or a non-float (or non-finite) leaf.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise ValueError(f"{path}: keys {list(a)} != {list(b)}")
        for key in a:
            yield from float_pairs(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from float_pairs(x, y, f"{path}[{i}]")
    elif type(a) is float and type(b) is float and math.isfinite(a) and math.isfinite(b):
        yield path, a, b
    elif type(a) is not type(b) or (a != b and not (a != a and b != b)):
        raise ValueError(f"{path}: {a!r} != {b!r}")


def absolute(a: float, b: float) -> float:
    return abs(b - a)


def relative(a: float, b: float) -> float:
    return abs(b - a) / max(abs(a), abs(b))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    try:
        pairs = list(float_pairs(load(args.before), load(args.after)))
    except ValueError as exc:
        print(f"reports differ beyond their floats: {exc}", file=sys.stderr)
        return 1
    changed = [(path, a, b) for path, a, b in pairs if a != b]
    print(f"{len(pairs)} floats, {len(changed)} changed")
    for name, measure in (("absolute", absolute), ("relative", relative)):
        if changed:
            path, a, b = max(changed, key=lambda t: measure(t[1], t[2]))
            print(f"largest {name} change {measure(a, b):.3g} at {path}: {a!r} -> {b!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
