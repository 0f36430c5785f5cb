"""scripts/report_delta.py: two simulate reports, or two explain outputs, compared leaf by leaf."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_delta.py"

REPORT = {
    "config": {"batches": 2, "features": "gaussian", "parameter": 0.5, "seed": 5},
    "estimators": ["original", "gaussian"],
    "mae": {"gaussian": 0.08731230839793959, "original": 0.3121592191069132},
    "missing_batches": [],
    "name": "sim-gaussian",
    "per_batch_mae": {
        "gaussian": [0.06428130571095965, 0.11034331108491953],
        "original": [0.40453568257796474, 0.2197827556358617],
    },
    "skill": {"gaussian": 0.7202955957932624, "original": 0.0},
}


def run(tmp_path, before, after, suffix=".json"):
    paths = []
    for name, body in (("before", before), ("after", after)):
        path = tmp_path / (name + suffix)
        path.write_text(body if isinstance(body, str) else json.dumps(body), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *paths], capture_output=True, text=True
    )


def test_identical_reports(tmp_path):
    done = run(tmp_path, REPORT, REPORT)
    assert done.returncode == 0
    assert done.stdout == "9 floats, 0 changed\n"


def test_largest_changes_with_their_paths(tmp_path):
    after = copy.deepcopy(REPORT)
    after["mae"]["original"] = 0.3121592191069133  # 1.1e-16 absolute, 1.8e-16 relative
    after["per_batch_mae"]["gaussian"][0] = 0.0642813057109597  # 5.6e-17, 8.6e-16
    done = run(tmp_path, REPORT, after)
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[0] == "9 floats, 2 changed"
    assert lines[1].startswith("largest absolute change 1.11e-16 at $.mae.original: ")
    assert lines[2] == (
        "largest relative change 8.64e-16 at $.per_batch_mae.gaussian[0]: "
        "0.06428130571095965 -> 0.0642813057109597"
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["mae"].update(copula=0.1),  # a new key
        lambda r: r["per_batch_mae"]["original"].append(0.3),  # a longer list
        lambda r: r.update(name="sim-mixture"),  # a text leaf
        lambda r: r["config"].update(batches=3),  # an int leaf
        lambda r: r["skill"].update(original=0),  # a float written as an int
        lambda r: r["mae"].update(gaussian=float("nan")),  # a non-finite float
    ],
    ids=["key", "length", "text", "int", "type", "nan"],
)
def test_any_other_difference_fails(tmp_path, edit):
    after = copy.deepcopy(REPORT)
    edit(after)
    done = run(tmp_path, REPORT, after)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("reports differ beyond their floats: $.")


def test_csv_reports(tmp_path):
    header = "experiment,parameter,estimator,batch,mae\n"
    before = header + "sim,0.5,original,0,0.40453568257796474\nsim,0.5,original,1,0.2\n"
    after = header + "sim,0.5,original,0,0.4045356825779648\nsim,0.5,original,1,0.2\n"
    done = run(tmp_path, before, after, suffix=".csv")
    assert done.returncode == 0
    assert done.stdout.splitlines()[:2] == [
        "4 floats, 1 changed",
        "largest absolute change 5.55e-17 at $[0].mae: 0.40453568257796474 -> 0.4045356825779648",
    ]
    renamed = after.replace("original,1", "gaussian,1")
    assert run(tmp_path, before, renamed, suffix=".csv").returncode == 1


def test_explain_csv(tmp_path):
    """An explain CSV: ``instance_id`` is an int leaf, every other column a float."""
    header = "instance_id,prediction,phi0,phi_a,phi_b,group_g1\n"
    before = header + (
        "0,-1.8277451209399167,-0.149063094957629,1.1425943594015369,0.2457600585045655,1.0\n"
        "1,3.9279630206772658,-0.149063094957629,2.5513956875817816,0.5317767643918306,2.0\n"
    )
    after = before.replace("0.5317767643918306", "0.5317767643918307")  # one ulp
    done = run(tmp_path, before, after, suffix=".csv")
    assert done.returncode == 0
    assert done.stdout.splitlines()[:2] == [
        "10 floats, 1 changed",
        "largest absolute change 1.11e-16 at $[1].phi_b: 0.5317767643918306 -> 0.5317767643918307",
    ]
    reindexed = before.replace("\n1,", "\n2,")
    assert run(tmp_path, before, reindexed, suffix=".csv").returncode == 1
