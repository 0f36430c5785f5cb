"""CSV ingestion, config parsing, the model protocol, and the CLI."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from condshap.errors import (
    ConfigError,
    EfficiencyViolationError,
    ModelProtocolError,
    QuadratureConvergenceError,
    SchemaError,
)
from condshap.shell.cli import _exit_code, main
from condshap.shell.config import parse_simulation_config
from condshap.coalitions import Explanation, WlsSolver
from condshap.grouping import ClusterAssignment
from condshap.shell.io import read_numeric_csv, write_explanations
from condshap.shell.protocol import ExternalModel


# ---------------------------------------------------------------------------
# Test model scripts (spawned via sys.executable -c)
# ---------------------------------------------------------------------------

MEAN_MODEL = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        preds = [sum(r) / len(r) if r else 0.0 for r in req["rows"]]
        print(json.dumps({"id": req["id"], "predictions": preds}), flush=True)
    """
)

# MEAN_MODEL that also appends each request's row count to the file named by argv[1].
LOGGING_MEAN_MODEL = textwrap.dedent(
    """
    import json, sys
    log = open(sys.argv[1], "a")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        log.write(f"{len(req['rows'])}\\n")
        log.flush()
        preds = [sum(r) / len(r) if r else 0.0 for r in req["rows"]]
        print(json.dumps({"id": req["id"], "predictions": preds}), flush=True)
    """
)

CONSTANT_MODEL = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        print(json.dumps({"id": req["id"], "predictions": [2.5] * len(req["rows"])}), flush=True)
    """
)

OUT_OF_ORDER_MODEL = textwrap.dedent(
    """
    import json, sys
    pending = []
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        pending.append(req)
        if len(pending) == 2:
            for r in reversed(pending):
                preds = [sum(x) for x in r["rows"]]
                print(json.dumps({"id": r["id"], "predictions": preds}), flush=True)
            pending = []
        elif req["id"] == 0:
            print(json.dumps({"id": 0, "predictions": []}), flush=True)
            pending = []
    """
)

SHORT_MODEL = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        n = max(len(req["rows"]) - 1, 0)
        print(json.dumps({"id": req["id"], "predictions": [0.0] * n}), flush=True)
    """
)

GARBAGE_MODEL = textwrap.dedent(
    """
    import sys, os
    sys.stdin.readline()
    os.write(1, bytes(range(256)) + b"\\n")
    sys.stdout.flush()
    import time; time.sleep(10)
    """
)

DYING_MODEL = textwrap.dedent(
    """
    import json, sys
    sys.stdin.readline()
    print(json.dumps({"id": 0, "predictions": []}), flush=True)
    sys.stdin.readline()
    sys.exit(7)
    """
)

SLOW_MODEL = textwrap.dedent(
    """
    import sys, time
    sys.stdin.readline()
    time.sleep(30)
    """
)


def model_command(script: str) -> list[str]:
    return [sys.executable, "-u", "-c", script]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


class TestCsv:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((20, 3)) * np.array([1e-7, 1.0, 1e9])
        path = tmp_path / "data.csv"
        from condshap.shell.io import write_numeric_csv

        write_numeric_csv(path, ["a", "b", "c"], matrix)
        header, back = read_numeric_csv(path)
        assert header == ["a", "b", "c"]
        assert np.array_equal(back, matrix)

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="missing value"):
            read_numeric_csv(path)

    def test_non_numeric_columns_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1.0,x,2.0\n3.0,y,4.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="non-numeric columns: b"):
            read_numeric_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="header"):
            read_numeric_csv(path)

    def test_duplicate_columns_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="duplicate"):
            read_numeric_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\ninf\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="non-finite"):
            read_numeric_csv(path)


class TestExplanationRecords:
    @staticmethod
    def explanation(phi0=1.0, phi=(0.5, -0.5), prediction=1.0):
        return Explanation(
            phi0=phi0,
            phi=np.asarray(phi, float),
            prediction=prediction,
            estimator_id="gaussian",
            seed=0,
            sample_budget=100,
        )

    def test_write_and_content(self, tmp_path):
        csv_path, json_path = write_explanations(
            tmp_path / "out", [self.explanation()], ("a", "b")
        )
        header, matrix = read_numeric_csv(csv_path)
        assert header == ["instance_id", "prediction", "phi0", "phi_a", "phi_b"]
        payload = json.loads(json_path.read_text())
        assert payload["records"][0]["phi"] == {"a": 0.5, "b": -0.5}
        assert payload["estimator"] == "gaussian" and payload["sample_budget"] == 100

    def test_efficiency_violation_is_fatal(self, tmp_path):
        good = self.explanation()
        bad = self.explanation(phi0=1.0, phi=(0.5, -0.5), prediction=9.9)
        with pytest.raises(EfficiencyViolationError):
            write_explanations(tmp_path / "out", [good, bad], ("a", "b"))
        assert not (tmp_path / "out.csv").exists()

    def test_group_columns(self, tmp_path):
        expl = self.explanation(phi0=1.0, phi=(0.25, 0.75), prediction=2.0)
        assignment = ClusterAssignment(groups=[(0, 1)], labels=["g1"], column_names=("a", "b"))
        csv_path, json_path = write_explanations(
            tmp_path / "grouped", [expl, expl], ("a", "b"), assignment
        )
        header, matrix = read_numeric_csv(csv_path)
        assert header[-1] == "group_g1"
        assert matrix[:, 0].tolist() == [0.0, 1.0]
        assert matrix[:, -1].tolist() == [1.0, 1.0]
        payload = json.loads(json_path.read_text())
        assert payload["records"][1]["group_phi"] == {"g1": 1.0}


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


class TestConfig:
    def test_defaults_and_estimators(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "features = gaussian\nrho = 0.3\nestimators = original, gaussian, empirical-0.1\n",
            encoding="utf-8",
        )
        config = parse_simulation_config(path)
        assert config.dimension == 3
        assert config.features.rho == 0.3
        assert tuple(s.label for s in config.estimators) == (
            "original",
            "gaussian",
            "empirical-0.1",
        )

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("zardoz = 1\nfrobnicate = yes\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="frobnicate, zardoz"):
            parse_simulation_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("rho = 0.1\nrho = 0.2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_simulation_config(path)

    def test_zero_batches_invalid(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("batches = 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="batches"):
            parse_simulation_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# a comment\n\nrho = 0.5  # trailing\n", encoding="utf-8")
        assert parse_simulation_config(path).features.rho == 0.5

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("batches = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_simulation_config(path)


# ---------------------------------------------------------------------------
# External model protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_mean_model_round_trip(self):
        with ExternalModel(model_command(MEAN_MODEL), timeout=15) as model:
            x = np.arange(12.0).reshape(4, 3)
            assert model(x) == pytest.approx([1.0, 4.0, 7.0, 10.0])

    def test_full_coalition_value_is_row_mean(self):
        with ExternalModel(model_command(MEAN_MODEL), timeout=15) as model:
            x_star = np.array([[1.0, 2.0, 6.0]])
            assert model(x_star) == pytest.approx([3.0])

    def test_default_budget_splits_large_calls(self, tmp_path):
        log = tmp_path / "requests.txt"
        x = np.random.default_rng(3).standard_normal((4001, 3))
        with ExternalModel(model_command(LOGGING_MEAN_MODEL) + [str(log)], timeout=15) as model:
            out = model(x)
        assert log.read_text().split() == ["0", "2000", "2000", "1"]  # handshake, 3 requests
        assert out.tolist() == [sum(row) / len(row) for row in x.tolist()]

    def test_out_of_order_ids_matched(self):
        with ExternalModel(
            model_command(OUT_OF_ORDER_MODEL), timeout=15, batch_rows=2
        ) as model:
            x = np.arange(8.0).reshape(4, 2)  # two batches, answered reversed
            assert model(x) == pytest.approx(x.sum(axis=1))

    def test_short_predictions_error(self):
        with pytest.raises(ModelProtocolError, match="predictions for"):
            with ExternalModel(model_command(SHORT_MODEL), timeout=15) as model:
                model(np.ones((3, 2)))

    def test_garbage_bytes_become_protocol_error(self):
        with pytest.raises(ModelProtocolError):
            ExternalModel(model_command(GARBAGE_MODEL), timeout=5)

    def test_midstream_exit_detected(self):
        with pytest.raises(ModelProtocolError, match="exit|timed"):
            with ExternalModel(model_command(DYING_MODEL), timeout=15) as model:
                model(np.ones((2, 2)))

    def test_timeout(self):
        with pytest.raises(ModelProtocolError, match="timed out"):
            ExternalModel(model_command(SLOW_MODEL), timeout=0.5)

    def test_handshake_failure_on_bad_length(self):
        bad = textwrap.dedent(
            """
            import json, sys
            sys.stdin.readline()
            print(json.dumps({"id": 0, "predictions": [1.0]}), flush=True)
            """
        )
        with pytest.raises(ModelProtocolError, match="0 rows"):
            ExternalModel(model_command(bad), timeout=15)

    def test_missing_command(self):
        with pytest.raises(ModelProtocolError, match="cannot start"):
            ExternalModel(["/nonexistent/model-binary"], timeout=5)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def make_dataset(tmp_path: Path, n=200, seed=0, rho=0.5):
    rng = np.random.default_rng(seed)
    cov = np.full((3, 3), rho)
    np.fill_diagonal(cov, 1.0)
    x = rng.multivariate_normal(np.zeros(3), cov, size=n)
    y = x.sum(axis=1) + 0.1 * rng.standard_normal(n)
    train = tmp_path / "train.csv"
    with train.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f1", "f2", "f3", "target"])
        for row, target in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    test = tmp_path / "test.csv"
    with test.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f1", "f2", "f3"])
        for row in x[:4]:
            writer.writerow([repr(float(v)) for v in row])
    return train, test


class TestExplainRequest:
    def test_validation(self, tmp_path):
        from condshap.samplers import SamplerSpec
        from condshap.shell.run import ExplainRequest

        train, test = make_dataset(tmp_path)
        spec = SamplerSpec(kind="gaussian")
        with pytest.raises(ValueError, match="model source"):
            ExplainRequest(train, test, spec, model_source="oracle", response="target")
        with pytest.raises(ValueError, match="model source"):
            ExplainRequest(train, test, spec, model_source="builtin_ols", response="target")
        with pytest.raises(ValueError, match="model_command"):
            ExplainRequest(train, test, spec, model_source="external")
        with pytest.raises(ValueError, match="response"):
            ExplainRequest(train, test, spec, model_source="ols")
        with pytest.raises(SchemaError, match="not found"):
            ExplainRequest(tmp_path / "nope.csv", test, spec, response="target")
        for alpha in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError, match="alpha must be positive"):
                ExplainRequest(train, test, spec, response="target", cluster_alpha=alpha)

    def test_programmatic_run(self, tmp_path):
        from condshap.samplers import SamplerSpec
        from condshap.shell.run import ExplainRequest, run_explain

        train, test = make_dataset(tmp_path)
        request = ExplainRequest(
            train_path=train,
            test_path=test,
            estimator=SamplerSpec(kind="gaussian"),
            model_source="ols",
            response="target",
            k=200,
            seed=3,
            output_path=str(tmp_path / "direct"),
        )
        csv_path, json_path = run_explain(request)
        header, matrix = read_numeric_csv(csv_path)
        assert header[:3] == ["instance_id", "prediction", "phi0"]
        assert matrix.shape[0] == 4


class TestCliExplain:
    def test_ols_runs_and_is_reproducible(self, tmp_path):
        train, test = make_dataset(tmp_path)
        runner = CliRunner()
        args = [
            "explain",
            "--train", str(train),
            "--test", str(test),
            "--response", "target",
            "--model", "ols",
            "--estimator", "gaussian",
            "--k", "300",
            "--seed", "5",
        ]
        r1 = runner.invoke(main, args + ["--output", str(tmp_path / "a")])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(main, args + ["--output", str(tmp_path / "b")])
        assert r2.exit_code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_constant_external_model_gives_zero_phi(self, tmp_path):
        train, test = make_dataset(tmp_path)
        runner = CliRunner()
        script = tmp_path / "constant_model.py"
        script.write_text(CONSTANT_MODEL, encoding="utf-8")
        command = f"{sys.executable} -u {script}"
        result = runner.invoke(
            main,
            [
                "explain",
                "--train", str(train),
                "--test", str(test),
                "--response", "target",
                "--model", "external",
                "--model-command", command,
                "--estimator", "original",
                "--k", "100",
                "--output", str(tmp_path / "const"),
            ],
        )
        assert result.exit_code == 0, result.output
        header, matrix = read_numeric_csv(tmp_path / "const.csv")
        phi_cols = [i for i, h in enumerate(header) if h.startswith("phi_")]
        assert np.all(np.abs(matrix[:, phi_cols]) < 1e-9)
        assert matrix[:, header.index("phi0")] == pytest.approx(2.5)

    def test_schema_mismatch_exits_2(self, tmp_path):
        train, _ = make_dataset(tmp_path)
        bad_test = tmp_path / "bad_test.csv"
        bad_test.write_text("f1,f2,other\n1,2,3\n", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "explain",
                "--train", str(train),
                "--test", str(bad_test),
                "--response", "target",
                "--output", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 2
        assert "mismatch" in result.output
        assert "f3" in result.output and "other" in result.output

    def test_bad_estimator_exits_2(self, tmp_path):
        train, test = make_dataset(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "explain",
                "--train", str(train),
                "--test", str(test),
                "--response", "target",
                "--estimator", "quantum",
                "--output", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 2

    def test_missing_response_for_builtin_exits_2(self, tmp_path):
        train, test = make_dataset(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["explain", "--train", str(train), "--test", str(test), "--output", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    def test_protocol_error_exits_3(self, tmp_path):
        train, test = make_dataset(tmp_path)
        runner = CliRunner()
        script = tmp_path / "short_model.py"
        script.write_text(SHORT_MODEL, encoding="utf-8")
        command = f"{sys.executable} -u {script}"
        result = runner.invoke(
            main,
            [
                "explain",
                "--train", str(train),
                "--test", str(test),
                "--response", "target",
                "--model", "external",
                "--model-command", command,
                "--output", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 3

    def test_clustered_output_appends_group_columns(self, tmp_path):
        train, test = make_dataset(tmp_path, rho=0.9)
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "explain",
                "--train", str(train),
                "--test", str(test),
                "--response", "target",
                "--estimator", "gaussian",
                "--k", "200",
                "--cluster-alpha", "1.0",
                "--output", str(tmp_path / "grouped"),
            ],
        )
        assert result.exit_code == 0, result.output
        header, matrix = read_numeric_csv(tmp_path / "grouped.csv")
        group_cols = [h for h in header if h.startswith("group_")]
        assert group_cols
        # Group sums must reproduce the total attribution.
        phi_cols = [i for i, h in enumerate(header) if h.startswith("phi_")]
        g_cols = [i for i, h in enumerate(header) if h.startswith("group_")]
        assert matrix[:, phi_cols].sum(axis=1) == pytest.approx(
            matrix[:, g_cols].sum(axis=1)
        )


class TestCliSimulate:
    def test_micro_simulation(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "name = cli-micro\nrho = 0.5\nestimators = original, gaussian\n"
            "n_train = 300\nn_test = 3\nbatches = 2\nk = 150\nseed = 9\n"
            "quadrature_points = 32\n",
            encoding="utf-8",
        )
        runner = CliRunner()
        out = tmp_path / "results"
        r1 = runner.invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        assert r1.exit_code == 0, r1.output
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "summary.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["skill"]["original"] == 0.0
        out2 = tmp_path / "results2"
        r2 = runner.invoke(main, ["simulate", str(cfg), "--output-dir", str(out2)])
        assert r2.exit_code == 0
        assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("volume = 11\n", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["simulate", str(cfg)])
        assert result.exit_code == 2
        assert "volume" in result.output

    def test_workers_option_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_test = 1\nbatches = 1\n", encoding="utf-8")
        out = tmp_path / "o"
        result = CliRunner().invoke(
            main, ["simulate", str(cfg), "--output-dir", str(out), "--workers", "2"]
        )
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert result.output.startswith("Usage: ")
        assert "No such option" in result.output and "--workers" in result.output
        assert not out.exists()

    def test_oracle_failure_exits_2_without_traceback(self, tmp_path):
        # The mean-prediction quadrature of this fitted stump model does not
        # converge; run_experiment wraps the error and the CLI maps it.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "dimension = 3\nfeatures = gaussian\nrho = 0.5\nmodel = piecewise\n"
            "n_test = 2\nbatches = 1\nseed = 0\n",
            encoding="utf-8",
        )
        runner = CliRunner()
        result = runner.invoke(main, ["simulate", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def test_ten_dim_gh_piecewise_summary_rows(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "name = gh10-micro\ndimension = 10\nfeatures = gh\nmodel = piecewise\n"
            "estimators = original, gaussian, copula, empirical-0.1, "
            "empirical-0.1+gaussian, empirical-0.1+copula\n"
            "n_train = 300\nn_test = 1\nbatches = 1\nk = 60\nseed = 21\nn_mc = 60\n",
            encoding="utf-8",
        )
        runner = CliRunner()
        out = tmp_path / "gh10"
        result = runner.invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
        summary = (out / "summary.txt").read_text()
        for row in (
            "original",
            "gaussian",
            "copula",
            "empirical-0.1",
            "empirical-0.1+gaussian",
            "empirical-0.1+copula",
        ):
            assert row in summary
        report = json.loads((out / "report.json").read_text())
        assert report["truth"]["method"] == "monte_carlo"


class TestCliCluster:
    def test_duplicated_columns_share_group(self, tmp_path):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(300)
        other = rng.standard_normal(300)
        path = tmp_path / "train.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "a_copy", "b"])
            for ca, cb in zip(col, other):
                writer.writerow([repr(float(ca)), repr(float(ca)), repr(float(cb))])
        runner = CliRunner()
        result = runner.invoke(
            main, ["cluster", str(path), "--alpha", "1.0", "--output", str(tmp_path / "cl")]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "cl.json").read_text())
        groups = [set(g["member_names"]) for g in payload["groups"]]
        assert {"a", "a_copy"} in groups
        assert payload["alpha"] == 1.0

    def test_non_numeric_column_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n2,y\n", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["cluster", str(path), "--output", str(tmp_path / "cl")])
        assert result.exit_code == 2
        assert "b" in result.output

    def test_tau_matrix_written(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((200, 3))
        path = tmp_path / "train.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            for row in data:
                writer.writerow([repr(float(v)) for v in row])
        runner = CliRunner()
        result = runner.invoke(
            main, ["cluster", str(path), "--output", str(tmp_path / "cl")]
        )
        assert result.exit_code == 0
        header, tau = read_numeric_csv(tmp_path / "cl_tau.csv")
        assert header == ["a", "b", "c"]
        assert np.all(np.diag(tau) == 1.0)
        assert np.all((tau >= 0.0) & (tau <= 1.0))


class TestCliBadInput:
    """Bad input ends in exit code 2 and one error line, never a traceback."""

    @staticmethod
    def write_csv(path, header, rows):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    @staticmethod
    def assert_clean_exit(result, code):
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def explain(self, tmp_path, train, test, *extra):
        return CliRunner().invoke(
            main,
            ["explain", "--train", str(train), "--test", str(test), "--response", "target",
             "--k", "50", "--output", str(tmp_path / "x"), *extra],
        )

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan"])
    def test_cluster_non_positive_alpha(self, tmp_path, alpha):
        rows = [[1, 2, 3], [2, 1, 3], [3, 4, 1], [4, 3, 2]]
        path = self.write_csv(tmp_path / "four.csv", ["a", "b", "c"], rows)
        result = CliRunner().invoke(
            main, ["cluster", str(path), "--alpha", alpha, "--output", str(tmp_path / "cl")]
        )
        self.assert_clean_exit(result, 2)
        assert "alpha" in result.output
        assert not (tmp_path / "cl.json").exists()

    def test_cluster_one_row(self, tmp_path):
        path = self.write_csv(tmp_path / "one.csv", ["a", "b", "c"], [[1, 2, 3]])
        result = CliRunner().invoke(main, ["cluster", str(path), "--output", str(tmp_path / "cl")])
        self.assert_clean_exit(result, 2)
        assert "two rows" in result.output

    def test_explain_one_training_row(self, tmp_path):
        _, test = make_dataset(tmp_path)
        one = self.write_csv(tmp_path / "one.csv", ["f1", "f2", "f3", "target"], [[1, 2, 3, 4]])
        result = self.explain(tmp_path, one, test)
        self.assert_clean_exit(result, 2)
        assert "more rows" in result.output

    def test_explain_zero_cluster_alpha(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--cluster-alpha", "0")
        self.assert_clean_exit(result, 2)
        assert "alpha" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_explain_bad_alpha_before_model_start(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(
            tmp_path, train, test, "--model", "external",
            "--model-command", "condshap-test-no-such-program", "--cluster-alpha", "0",
        )
        self.assert_clean_exit(result, 2)
        assert "alpha must be positive" in result.output

    def test_cluster_bad_alpha_before_kendall(self, tmp_path, monkeypatch):
        def kendall_matrix(train):
            raise AssertionError("dissimilarity computed before the alpha check")

        monkeypatch.setattr("condshap.shell.cli.dissimilarity", kendall_matrix)
        rows = [[1, 2, 3], [2, 1, 3], [3, 4, 1]]
        path = self.write_csv(tmp_path / "three.csv", ["a", "b", "c"], rows)
        result = CliRunner().invoke(main, ["cluster", str(path), "--alpha", "0"])
        self.assert_clean_exit(result, 2)
        assert "alpha must be positive" in result.output

    def test_explain_nan_bandwidth(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--estimator", "empirical-nan")
        self.assert_clean_exit(result, 2)
        assert "sigma must be positive, got nan" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n_aicc", ["0", "-5", "1", "3"])
    def test_simulate_small_n_aicc(self, tmp_path, n_aicc):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            f"estimators = empirical-aicc-exact\nn_train = 100\nn_test = 2\nbatches = 1\n"
            f"n_aicc = {n_aicc}\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main, ["simulate", str(cfg), "--output-dir", str(tmp_path / "o")]
        )
        self.assert_clean_exit(result, 2)
        assert f"n_aicc must be >= 4, got {n_aicc}" in result.output

    def test_explain_copula_on_four_rows(self, tmp_path):
        _, test = make_dataset(tmp_path)
        rows = [[1, 2, 3, 1], [2, 1, 3, 2], [3, 4, 1, 0], [4, 3, 2, 1]]
        train = self.write_csv(tmp_path / "four.csv", ["f1", "f2", "f3", "target"], rows)
        result = self.explain(tmp_path, train, test, "--estimator", "copula")
        self.assert_clean_exit(result, 2)
        assert "n >= 20" in result.output

    def test_efficiency_violation_exits_1(self, tmp_path, monkeypatch):
        solve = WlsSolver.solve

        def broken(self, *args, **kwargs):
            expl = solve(self, *args, **kwargs)
            expl.phi0 += 1.0
            return expl

        monkeypatch.setattr(WlsSolver, "solve", broken)
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test)
        self.assert_clean_exit(result, 1)
        assert "efficiency" in result.output
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, condshap.shell.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"


RUN_CLI_THEN_CHECK_SCIPY_STATS = """
import sys
from condshap.shell.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
print("scipy.stats" in sys.modules)
"""


@pytest.mark.parametrize(
    "command",
    [
        ["explain", "--estimator", "empirical-aicc-exact", "--cluster-alpha", "1.0"],
        ["explain", "--estimator", "copula", "--cluster-alpha", "1.0"],
        ["cluster"],
    ],
    ids=["explain-aicc-grouped", "explain-copula-grouped", "cluster"],
)
def test_explain_and_cluster_leave_scipy_stats_unloaded(tmp_path, command):
    train, test = make_dataset(tmp_path, n=60)
    if command[0] == "explain":
        args = command + [
            "--train", str(train), "--test", str(test), "--response", "target",
            "--model", "ols", "--k", "50", "--output", str(tmp_path / "x"),
        ]
    else:
        args = ["cluster", str(train), "--output", str(tmp_path / "cl")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", RUN_CLI_THEN_CHECK_SCIPY_STATS, *args],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


class TestExitCodes:
    def test_mapping(self):
        wrapped = RuntimeError("experiment failed in batch 0")
        wrapped.__cause__ = QuadratureConvergenceError("not converged")
        assert _exit_code(ModelProtocolError("bad line")) == 3
        assert _exit_code(EfficiencyViolationError("gap")) == 1
        assert _exit_code(SchemaError("columns")) == 2
        assert _exit_code(wrapped) == 2
        assert _exit_code(ValueError("not ours")) is None
