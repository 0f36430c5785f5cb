"""Each output check of the benchmark passes on a right answer and fails on a
slightly wrong one.

    PYTHONPATH=src python3 -m pytest perfbench -q

The explain-m10 case runs the program once (about 10 s); the others feed the
checks hand-made outputs.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


def shifted(phi, j, delta):
    out = np.array(phi, float, copy=True)
    out[j] += delta
    return out


@pytest.fixture(scope="module")
def m10():
    work = workloads.ExplainM10(0, None)
    explainers = work.setup()
    warm = work.warmup(explainers)
    outputs = [work._explain(explainers)]
    return work, warm, outputs, work.references()


def test_m10_right_answer_passes(m10):
    work, warm, outputs, refs = m10
    assert work.check(warm, outputs, refs) == []


@pytest.mark.parametrize("label", workloads.ExplainM10.labels)
def test_m10_efficiency_and_phi0_bite(m10, label):
    work, warm, outputs, refs = m10
    i = work.labels.index(label)
    bad = copy.deepcopy(outputs)
    bad[0][i][1].phi = shifted(bad[0][i][1].phi, 3, 0.05)
    assert any(f"{label} efficiency" in p for p in work.check(warm, bad, refs))
    bad = copy.deepcopy(outputs)
    bad[0][i][1].phi0 += 0.05
    bad[0][i][1].phi = shifted(bad[0][i][1].phi, 3, -0.05)
    problems = work.check(warm, bad, refs)
    assert any(f"{label} phi0" in p for p in problems)
    assert not any(f"{label} efficiency" in p for p in problems)


@pytest.mark.parametrize("label", workloads.ExplainM10.labels)
def test_m10_rerun_identity_bites(m10, label):
    work, warm, outputs, refs = m10
    i = work.labels.index(label)
    later = copy.deepcopy(outputs[0])
    later[i][0].phi = shifted(later[i][0].phi, 0, 1e-12)
    assert any(f"{label} later round" in p for p in work.check(warm, outputs + [later], refs))
    bad_warm = copy.deepcopy(warm)
    bad_warm[i].phi = shifted(bad_warm[i].phi, 0, 1e-12)
    assert any(f"{label} re-explained" in p for p in work.check(bad_warm, outputs, refs))


@pytest.mark.parametrize("label", workloads.ExplainM10.labels)
def test_m10_accuracy_bites_just_past_its_tolerance(m10, label):
    """A shift of the tolerance plus 0.05 on one phi, taken back from another
    so that efficiency still holds, fails the accuracy check."""
    work, warm, outputs, refs = m10
    i = work.labels.index(label)
    reference, tolerance = refs[label]
    gap = outputs[0][i][1].phi - reference[1]
    delta = tolerance[1, 3] + 0.05 + abs(gap[3])
    bad = copy.deepcopy(outputs)
    bad[0][i][1].phi = shifted(shifted(bad[0][i][1].phi, 3, delta), 5, -delta)
    problems = work.check(warm, bad, refs)
    assert any(f"{label} vs" in p for p in problems)
    assert not any(f"{label} efficiency" in p for p in problems)


def test_m10_tolerances_are_what_the_readme_states(m10):
    """Monte Carlo tolerances about 0.11 (original) and 0.08 (gaussian); the
    true-law tolerances of copula and the combined estimator are wider."""
    _, _, _, refs = m10
    assert 0.05 < np.median(refs["original"][1]) < 0.2
    assert 0.04 < np.median(refs["gaussian"][1]) < 0.15
    assert np.median(refs["copula"][1]) > np.median(refs["gaussian"][1])
    assert np.median(refs["empirical-0.1+gaussian"][1]) > np.median(refs["gaussian"][1])


# -- cli-external-m3: exact answers through the output format ----------------


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    work = workloads.CliExternalM3(0, tmp_path_factory.mktemp("cli"))
    b0, beta = work.model.b0, work.model.beta
    truth = (checks.linear_values(b0, beta, np.zeros(3), work.cov, work.x_test)[0]
             @ checks.shapley_matrix(3).T)
    phi0 = float(work.model(work.x_train).mean())
    records = [{
        "instance_id": i, "prediction": float(work.model(x)[0]), "phi0": phi0,
        "phi": {c: float(v) for c, v in zip(work.columns, row)},
        "group_phi": {"g1": float(row[0] + row[1]), "g2": float(row[2])},
    } for i, (x, row) in enumerate(zip(work.x_test, truth))]
    # The exact values sum to f(x*) - E f; shift them so phi0 + sum(phi) = f(x*).
    for record in records:
        gap = record["prediction"] - phi0 - sum(record["phi"].values())
        record["phi"]["c"] += gap
        record["group_phi"]["g2"] += gap
    return work, records


def cli_output(records):
    return (json.dumps({"records": records}), "csv")


def test_cli_right_answer_passes(cli):
    work, records = cli
    assert work.check(None, [cli_output(records)]) == []


def test_cli_checks_bite(cli):
    work, records = cli
    bad = copy.deepcopy(records)
    bad[7]["phi"]["a"] += 0.05
    assert any("efficiency" in p for p in work.check(None, [cli_output(bad)]))
    bad = copy.deepcopy(records)
    bad[7]["phi0"] += 0.05
    bad[7]["phi"]["a"] -= 0.05
    assert any("phi0" in p for p in work.check(None, [cli_output(bad)]))
    bad = copy.deepcopy(records)
    bad[7]["group_phi"]["g1"] += 0.05
    assert any("group sums" in p for p in work.check(None, [cli_output(bad)]))
    assert any("records" in p for p in work.check(None, [cli_output(records[:-1])]))
    assert any("different bytes" in p
               for p in work.check(None, [cli_output(records), cli_output(records[::-1])]))


def test_cli_mae_bites(cli):
    """Independence answers, kept efficient, fail both MAE conditions."""
    work, records = cli
    bad = copy.deepcopy(records)
    for record, x in zip(bad, work.x_test):
        phi = work.model.beta * x
        record["phi"] = dict(zip(work.columns, phi))
        record["group_phi"] = {"g1": float(phi[0] + phi[1]), "g2": float(phi[2])}
    problems = work.check(None, [cli_output(bad)])
    assert any("not below the bound" in p for p in problems)
    assert any("not below independence" in p for p in problems)


def test_cli_mae_bound_value(cli):
    work, _ = cli
    assert 0.05 < work.mae_bound() < 0.2


# -- simulate-3d: report checks ---------------------------------------------


def report(skills, maes=None):
    labels = list(workloads.Simulate3D.labels)
    maes = maes or dict.fromkeys(labels, 0.05)
    return {"name": "r", "estimators": labels, "mae": maes, "skill": skills,
            "per_batch_mae": {label: [maes[label]] for label in labels},
            "config": {"n_test_per_batch": workloads.Simulate3D.n_test},
            "truth": {"method": "quadrature"}}


def test_simulate_checks_pass_and_bite():
    work = workloads.Simulate3D(0, None)
    good = dict(zip(work.labels, (0.0, 0.8, 0.8, 0.6)))
    ok = [json.dumps(report(good)), json.dumps(report(good))]
    assert work.check(None, [ok]) == []
    bad_skill = dict(good, copula=-0.05)
    assert any("skill of copula" in p
               for p in work.check(None, [[json.dumps(report(bad_skill)), ok[1]]]))
    bad_mix = dict(good, **{"empirical-0.1": -0.05})
    assert any("skill of empirical-0.1" in p
               for p in work.check(None, [[ok[0], json.dumps(report(bad_mix))]]))
    zero = report(good, dict.fromkeys(work.labels, 0.05) | {"gaussian": 0.0})
    assert any("MAE of gaussian" in p for p in work.check(None, [[json.dumps(zero), ok[1]]]))
    partial = report(good)
    del partial["mae"]["copula"]
    assert any("mae does not cover" in p for p in work.check(None, [[json.dumps(partial), ok[1]]]))
    assert any("different report" in p for p in work.check(None, [ok, [ok[1], ok[0] + " "]]))
