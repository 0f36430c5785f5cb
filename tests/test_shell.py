"""CSV ingestion, config parsing, the model protocol, and the CLI."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
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
from condshap.shell import protocol
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

# MEAN_MODEL that also appends each request line it reads to the file named by argv[1].
RECORDING_MEAN_MODEL = textwrap.dedent(
    """
    import json, sys
    log = open(sys.argv[1], "a")
    for line in sys.stdin:
        log.write(line)
        log.flush()
        if not line.strip():
            continue
        req = json.loads(line)
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

NAN_MODEL = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        print(json.dumps({"id": req["id"], "predictions": [float("nan")] * len(req["rows"])}),
              flush=True)
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

# Answers request n > 0 with the id text ``sys.argv[1] % n`` and the prediction
# text ``sys.argv[2]`` per row, both written into the line as they are.
VERBATIM_MODEL = textwrap.dedent(
    """
    import json, sys
    id_format, value = sys.argv[1:]
    for line in sys.stdin:
        req = json.loads(line)
        rid = id_format % req["id"] if req["id"] else "0"
        values = ", ".join([value] * len(req["rows"]))
        print('{"id": %s, "predictions": [%s]}' % (rid, values), flush=True)
    """
)

# (id format, prediction text, error) of answers that are not JSON integer ids
# with JSON number predictions, whose number is not a finite float, or that
# json.loads refuses with a plain ValueError: an integer of 5,000 digits is
# past Python's integer-string limit (4,300 digits).
MALFORMED_ANSWERS = {
    "string-prediction": ("%d", '"0.5"', "id 1: non-numeric prediction"),
    "bool-prediction": ("%d", "true", "id 1: non-numeric prediction"),
    "fractional-id": ("%d.4", "0.5", "non-integer response id 1.4"),
    "string-id": ('"%d"', "0.5", "non-integer response id '1'"),
    "integer-beyond-float": ("%d", "1" + "0" * 400, "id 1: non-finite prediction"),
    "id-of-5000-digits": ("1" + "0" * 4998 + "%d", "0.5", "malformed response line"),
    "prediction-of-5000-digits": ("%d", "1" + "0" * 4999, "malformed response line"),
}

# Answers the handshake once; answers request n > 0 as id n + int(sys.argv[1]),
# int(sys.argv[2]) times.
STRAY_ID_MODEL = textwrap.dedent(
    """
    import json, sys
    offset, times = int(sys.argv[1]), int(sys.argv[2])
    for line in sys.stdin:
        req = json.loads(line)
        n = req["id"]
        answer = json.dumps({"id": n + offset if n else 0, "predictions": [0.5] * len(req["rows"])})
        print("\\n".join([answer] * (times if n else 1)), flush=True)
    """
)

# (offset, answers per request, error) of answers to an id that was never sent
# or is already answered.
STRAY_ANSWERS = {
    "id-plus-100": ("100", "1", "response id 101 was never requested or is already answered"),
    "answered-twice": ("0", "2", "response id 1 was never requested or is already answered"),
}

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

    @pytest.mark.parametrize(
        "lines, kind, parameter",
        [
            ("features = gaussian\nrho = 0.3", "gaussian", 0.3),
            ("features = gh\nkappa = 2", "gh", 2.0),
            ("features = mixture\ngamma = 1.5", "mixture", 1.5),
            ("dimension = 10\nfeatures = gh", "gh", 1.0),
        ],
        ids=["gaussian", "gh", "mixture", "gh-10d"],
    )
    def test_family_parameter_of_its_own_family(self, tmp_path, lines, kind, parameter):
        path = tmp_path / "sim.cfg"
        path.write_text(lines + "\n", encoding="utf-8")
        config = parse_simulation_config(path)
        assert config.features.kind == kind
        assert config.features.parameter == parameter
        # The ten-feature GH law is fixed: the reports label it with no parameter.
        assert config.parameter == (None if "dimension = 10" in lines else parameter)


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
        with ExternalModel(model_command(RECORDING_MEAN_MODEL) + [str(log)], timeout=15) as model:
            out = model(x)
        rows = [len(json.loads(line)["rows"]) for line in log.read_text().splitlines()]
        assert rows == [0, 2000, 2000, 1]  # handshake, 3 requests
        assert out.tolist() == [sum(row) / len(row) for row in x.tolist()]

    def test_out_of_order_ids_matched(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_BATCH_ROWS", 2)
        with ExternalModel(model_command(OUT_OF_ORDER_MODEL), timeout=15) as model:
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

    def test_huge_timeout_waits_in_slices(self):
        with ExternalModel(model_command(MEAN_MODEL), timeout=1e308) as model:
            assert model(np.ones((2, 3))) == pytest.approx([1.0, 1.0])

    def test_non_finite_prediction_names_its_id(self):
        with pytest.raises(ModelProtocolError, match="id 1: non-finite prediction"):
            with ExternalModel(model_command(NAN_MODEL), timeout=15) as model:
                model(np.ones((2, 2)))

    @pytest.mark.parametrize("answer", MALFORMED_ANSWERS, ids=list(MALFORMED_ANSWERS))
    def test_malformed_answer_names_its_id(self, answer):
        id_format, value, error = MALFORMED_ANSWERS[answer]
        command = model_command(VERBATIM_MODEL) + [id_format, value]
        with pytest.raises(ModelProtocolError, match=re.escape(error)):
            with ExternalModel(command, timeout=15) as model:
                model(np.ones((2, 2)))

    @pytest.mark.parametrize("answer", STRAY_ANSWERS, ids=list(STRAY_ANSWERS))
    def test_stray_answer_fails_at_once(self, answer):
        offset, times, error = STRAY_ANSWERS[answer]
        command = model_command(STRAY_ID_MODEL) + [offset, times]
        start = time.monotonic()
        with pytest.raises(ModelProtocolError, match=re.escape(error)):
            with ExternalModel(command, timeout=5) as model:
                model(np.ones((2, 2)))
                model(np.ones((2, 2)))
        assert time.monotonic() - start < 4.0

    def test_handshake_failure_on_bad_length(self, tmp_path):
        pid_path = tmp_path / "pid"
        bad = textwrap.dedent(
            """
            import json, os, sys, time
            with open(sys.argv[1], "w") as fh:
                fh.write(str(os.getpid()))
            sys.stdin.readline()
            print(json.dumps({"id": 0, "predictions": [1.0]}), flush=True)
            time.sleep(30)
            """
        )
        with pytest.raises(ModelProtocolError, match="0 rows"):
            ExternalModel(model_command(bad) + [str(pid_path)], timeout=15)
        # The failed start ends the model process: no caller holds it to close.
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_path.read_text()), 0)

    def test_missing_command(self):
        with pytest.raises(ModelProtocolError, match="cannot start"):
            ExternalModel(["/nonexistent/model-binary"], timeout=5)

    def test_request_lines_are_json_dumps_text(self, tmp_path):
        log = tmp_path / "requests.jsonl"
        x = np.random.default_rng(4).standard_normal((2500, 3))
        x[::7, 1] = -0.0
        x[::5, 2] = 0.0
        with ExternalModel(model_command(RECORDING_MEAN_MODEL) + [str(log)], timeout=15) as model:
            model(x)
            model(x[:10])
        expected = [{"id": 0, "rows": []}, {"id": 1, "rows": x[:2000].tolist()},
                    {"id": 2, "rows": x[2000:].tolist()}, {"id": 3, "rows": x[:10].tolist()}]
        assert log.read_text().splitlines() == [json.dumps(r) for r in expected]


class TestRequestText:
    """RequestEncoder writes what json.dumps writes for the float64 rows."""

    @staticmethod
    def assert_json_text(encoder, rows, request_id=7):
        expected = json.dumps({"id": request_id, "rows": np.asarray(rows, float).tolist()})
        assert encoder.line(request_id, rows) == expected

    def test_random_normals_and_repeats(self):
        rng = np.random.default_rng(0)
        encoder = protocol.RequestEncoder()
        train = rng.standard_normal((300, 3))
        for _ in range(3):
            rows = train[rng.integers(0, 300, 2000)]
            rows[:, 1] = rng.standard_normal()  # an x* value spliced into every row
            self.assert_json_text(encoder, rows)

    def test_signed_zeros_in_one_request(self):
        self.assert_json_text(protocol.RequestEncoder(), [[0.0, -0.0], [-0.0, 0.0]])

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zeros_across_requests(self, first):
        encoder = protocol.RequestEncoder()
        self.assert_json_text(encoder, [[first]])
        self.assert_json_text(encoder, [[-first, 1.0]])
        self.assert_json_text(encoder, [[0.0, -0.0]])

    def test_extremes(self):
        values = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  2.2250738585072014e-308]
        self.assert_json_text(protocol.RequestEncoder(), [values, values[::-1]])

    def test_integral_floats_and_the_longest_text(self):
        longest = -2.2250738585072014e-308
        assert len(repr(longest)) == protocol.TEXT_WIDTH
        encoder = protocol.RequestEncoder()
        self.assert_json_text(encoder, [[1.0, -3.0, 1e16, longest]])
        self.assert_json_text(encoder, [[longest, 1e16, -3.0, 1.0], [2.0, 1.0, 0.5, 1e22]])

    @pytest.mark.parametrize("n_cols", [1, 14])
    def test_column_counts(self, n_cols):
        rows = np.random.default_rng(n_cols).standard_normal((50, n_cols))
        self.assert_json_text(protocol.RequestEncoder(), rows)
        self.assert_json_text(protocol.RequestEncoder(), rows[:1])

    def test_empty_requests(self):
        encoder = protocol.RequestEncoder()
        assert encoder.line(0, np.empty((0, 0))) == '{"id": 0, "rows": []}'
        self.assert_json_text(encoder, np.empty((0, 3)))

    def test_non_contiguous_and_non_float64_rows(self):
        rows = np.random.default_rng(1).standard_normal((6, 8))
        encoder = protocol.RequestEncoder()
        self.assert_json_text(encoder, rows[::2, 1::3])
        self.assert_json_text(encoder, np.asfortranarray(rows))
        self.assert_json_text(encoder, rows.astype(np.float32))
        self.assert_json_text(encoder, np.arange(12).reshape(4, 3))

    def test_non_finite_values_as_json_dumps_writes_them(self):
        encoder = protocol.RequestEncoder()
        self.assert_json_text(encoder, [[np.nan, np.inf, -np.inf, 1.0]])
        self.assert_json_text(encoder, [[-np.inf, np.nan], [np.inf, np.nan]])

    def test_table_stays_within_its_bound(self):
        rng = np.random.default_rng(2)
        encoder = protocol.RequestEncoder()
        sent = []
        while sum(r.size for r in sent) <= protocol.MAX_TABLE_VALUES:
            sent.append(rng.standard_normal((protocol.MAX_BATCH_ROWS, 3)))
            self.assert_json_text(encoder, sent[-1])
            assert len(encoder) <= protocol.MAX_TABLE_VALUES
        assert len(encoder) > 0
        later = np.concatenate([sent[-1][:500], rng.standard_normal((500, 3))])
        self.assert_json_text(encoder, later[rng.permutation(1000)])
        assert len(encoder) <= protocol.MAX_TABLE_VALUES

    def test_merges_and_empties_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_TABLE_VALUES", 200)
        monkeypatch.setattr(protocol, "MERGE_BLOCK", 7)
        rng = np.random.default_rng(5)
        pool = rng.standard_normal(150)
        encoder = protocol.RequestEncoder()
        sizes = []
        for n_rows in (1, 5, 20, 3, 40, 8, 30, 2, 60, 10):
            rows = rng.choice(pool, (n_rows, 3))
            rows[:, 0] = rng.standard_normal(n_rows)
            self.assert_json_text(encoder, rows)
            sizes.append(len(encoder))
        assert max(sizes) <= 200 and any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_request_above_the_bound(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_TABLE_VALUES", 10)
        rng = np.random.default_rng(3)
        encoder = protocol.RequestEncoder()
        rows = rng.standard_normal((12, 3))
        self.assert_json_text(encoder, rows)
        assert len(encoder) == 10
        self.assert_json_text(encoder, rows[::-1])
        assert len(encoder) == 10


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


def make_wide_dataset(tmp_path: Path, m=14, n=120, seed=0):
    """Train and test CSVs with ``m`` correlated features, above the enumeration cap."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m)) @ (np.eye(m) + 0.2 * np.ones((m, m)))
    y = x @ np.linspace(-1.0, 1.0, m) + 0.1 * rng.standard_normal(n)
    names = [f"f{j + 1}" for j in range(m)]
    train = tmp_path / "wide_train.csv"
    with train.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["target"])
        for row, target in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    test = tmp_path / "wide_test.csv"
    with test.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in x[:2]:
            writer.writerow([repr(float(v)) for v in row])
    return train, test


class TestRunExplain:
    def test_programmatic_run(self, tmp_path):
        from condshap.samplers import SamplerSpec
        from condshap.shell.run import run_explain

        train, test = make_dataset(tmp_path)
        csv_path, json_path = run_explain(
            SamplerSpec(kind="gaussian"),
            train_path=train,
            test_path=test,
            model="ols",
            model_command=None,
            response="target",
            k=200,
            seed=3,
            output=str(tmp_path / "direct"),
            cluster_alpha=None,
            coalition_draws=2048,
            timeout=60.0,
        )
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
        assert "--response" in result.output

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


    def test_above_the_enumeration_cap(self, tmp_path):
        train, test = make_wide_dataset(tmp_path)
        out = tmp_path / "wide"
        result = CliRunner().invoke(
            main,
            ["explain", "--train", str(train), "--test", str(test), "--response", "target",
             "--estimator", "gaussian", "--k", "20", "--coalition-draws", "300",
             "--output", str(out)],
        )
        assert result.exit_code == 0, result.output
        header, matrix = read_numeric_csv(tmp_path / "wide.csv")
        assert [h for h in header if h.startswith("phi_")] == [f"phi_f{j}" for j in range(1, 15)]
        assert matrix.shape[0] == 2
        assert json.loads((tmp_path / "wide.json").read_text())


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

    def test_refined_gh_truths_converge(self, tmp_path):
        # Every GH conditional integrates as 48 Gaussian components, so the
        # doubled grid agrees with the base one.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "features = gh\nkappa = 2.0\nseed = 1\nestimators = original\n"
            "n_train = 200\nn_test = 2\nbatches = 1\nk = 50\nquadrature_points = 24\n",
            encoding="utf-8",
        )
        out = tmp_path / "gh"
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["truth"] == {"method": "quadrature", "quadrature_points": 24, "refine": True}

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
        assert report["parameter"] is None and report["config"]["parameter"] is None
        with (out / "report.csv").open(newline="") as fh:
            assert {row["parameter"] for row in csv.DictReader(fh)} == {""}


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

    @staticmethod
    def assert_usage_error(result, message):
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert result.output.startswith("Usage: ")
        assert message in result.output

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

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan"])
    def test_explain_non_positive_cluster_alpha(self, tmp_path, alpha):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--cluster-alpha", alpha)
        self.assert_clean_exit(result, 2)
        assert "alpha must be positive" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_explain_unknown_model_source(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--model", "oracle")
        self.assert_usage_error(result, "'oracle' is not one of")

    def test_explain_external_model_without_command(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--model", "external")
        self.assert_clean_exit(result, 2)
        assert "--model-command" in result.output

    def test_explain_missing_training_file(self, tmp_path):
        _, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, tmp_path / "nope.csv", test)
        self.assert_usage_error(result, "does not exist")

    @pytest.mark.parametrize("option", ["--train", "--test"])
    def test_explain_directory_as_input(self, tmp_path, option):
        train, test = make_dataset(tmp_path)
        paths = {"--train": train, "--test": test, option: tmp_path}
        result = self.explain(tmp_path, paths["--train"], paths["--test"])
        self.assert_usage_error(result, "is a directory")

    def test_cluster_directory_as_input(self, tmp_path):
        result = CliRunner().invoke(
            main, ["cluster", str(tmp_path), "--output", str(tmp_path / "cl")]
        )
        self.assert_usage_error(result, "is a directory")

    def test_simulate_directory_as_config(self, tmp_path):
        result = CliRunner().invoke(
            main, ["simulate", str(tmp_path), "--output-dir", str(tmp_path / "o")]
        )
        self.assert_usage_error(result, "is a directory")

    def test_cluster_non_utf8_csv(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n3,4\n\xe9,5\n")
        result = CliRunner().invoke(main, ["cluster", str(path), "--output", str(tmp_path / "cl")])
        self.assert_clean_exit(result, 2)
        assert f"{path}: not UTF-8 text" in result.output

    def test_simulate_non_utf8_config(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"name = caf\xe9\n")
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(tmp_path / "o")])
        self.assert_clean_exit(result, 2)
        assert f"{cfg}: not UTF-8 text" in result.output

    @pytest.mark.parametrize("case", ["missing-directory", "csv-is-a-directory"])
    def test_explain_unwritable_output(self, tmp_path, case):
        train, test = make_dataset(tmp_path)
        prefix = tmp_path / "missing" / "x"
        if case == "csv-is-a-directory":
            prefix = tmp_path / "p"
            (tmp_path / "p.csv").mkdir()
        result = self.explain(tmp_path, train, test, "--output", str(prefix))
        self.assert_clean_exit(result, 2)
        assert f"{prefix}.csv" in result.output

    def test_cluster_unwritable_output(self, tmp_path):
        rows = [[1, 2, 3], [2, 1, 3], [3, 4, 1], [4, 3, 2]]
        path = self.write_csv(tmp_path / "four.csv", ["a", "b", "c"], rows)
        prefix = tmp_path / "missing" / "cl"
        result = CliRunner().invoke(main, ["cluster", str(path), "--output", str(prefix)])
        self.assert_clean_exit(result, 2)
        assert f"{prefix}.json" in result.output

    def test_simulate_output_dir_below_a_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_test = 1\nbatches = 1\n", encoding="utf-8")
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        self.assert_clean_exit(result, 2)
        assert str(out) in result.output

    def test_explain_bad_alpha_before_model_start(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(
            tmp_path, train, test, "--model", "external",
            "--model-command", "condshap-test-no-such-program", "--cluster-alpha", "0",
        )
        self.assert_clean_exit(result, 2)
        assert "alpha must be positive" in result.output

    @pytest.mark.parametrize("option, value, message", [
        ("--k", "0", "k must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--coalition-draws", "0", "coalition_draws must be >= 1, got 0"),
    ])
    def test_explain_bad_run_settings_before_model_start(self, tmp_path, option, value, message):
        train, test = make_dataset(tmp_path)
        result = self.explain(
            tmp_path, train, test, "--model", "external",
            "--model-command", "condshap-test-no-such-program", option, value,
        )
        self.assert_clean_exit(result, 2)
        assert message in result.output

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

    def test_explain_underflowing_bandwidth(self, tmp_path):
        # The test rows are training rows: at distance 0, 2 sigma^2 = 0 gave -0/0 = NaN.
        train, _ = make_dataset(tmp_path)
        with train.open(newline="") as fh:
            rows = list(csv.reader(fh))
        test = self.write_csv(tmp_path / "same.csv", rows[0][:3], [row[:3] for row in rows[1:4]])
        result = self.explain(tmp_path, train, test, "--estimator", "empirical-1e-170")
        self.assert_clean_exit(result, 2)
        assert "2 sigma^2 underflows to 0" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_explain_overflowing_bandwidth_is_the_infinite_limit(self, tmp_path):
        # 2 sigma^2 overflows: every kernel weight is 1, as at sigma = inf.
        train, test = make_dataset(tmp_path)
        written = {}
        for label in ("empirical-1e200", "empirical-inf"):
            prefix = tmp_path / label
            result = self.explain(tmp_path, train, test, "--estimator", label,
                                  "--output", str(prefix))
            assert result.exit_code == 0, result.output
            written[label] = prefix.with_suffix(".csv").read_bytes()
        assert written["empirical-1e200"] == written["empirical-inf"]

    @pytest.mark.parametrize("answer", MALFORMED_ANSWERS, ids=list(MALFORMED_ANSWERS))
    def test_explain_malformed_model_answer(self, tmp_path, answer):
        id_format, value, error = MALFORMED_ANSWERS[answer]
        train, test = make_dataset(tmp_path)
        script = tmp_path / "verbatim_model.py"
        script.write_text(VERBATIM_MODEL, encoding="utf-8")
        command = shlex.join([sys.executable, "-u", str(script), id_format, value])
        result = self.explain(tmp_path, train, test, "--model", "external",
                              "--model-command", command)
        self.assert_clean_exit(result, 3)
        assert error in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("answer", STRAY_ANSWERS, ids=list(STRAY_ANSWERS))
    def test_explain_stray_model_answer(self, tmp_path, answer):
        offset, times, error = STRAY_ANSWERS[answer]
        train, test = make_dataset(tmp_path)
        script = tmp_path / "stray_model.py"
        script.write_text(STRAY_ID_MODEL, encoding="utf-8")
        command = shlex.join([sys.executable, "-u", str(script), offset, times])
        start = time.monotonic()
        result = self.explain(tmp_path, train, test, "--model", "external",
                              "--model-command", command, "--timeout", "5")
        assert time.monotonic() - start < 4.0
        self.assert_clean_exit(result, 3)
        assert error in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_explain_k_cap_removed(self, tmp_path):
        # k is the empirical row cap; the option that capped it apart is gone.
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--k-cap", "5")
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "No such option '--k-cap'" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_explain_no_samples(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--estimator", "empirical-0.1", "--k", "0")
        self.assert_clean_exit(result, 2)
        assert "k must be >= 1, got 0" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_explain_negative_seed(self, tmp_path):
        train, test = make_dataset(tmp_path)
        result = self.explain(tmp_path, train, test, "--seed", "-1")
        self.assert_clean_exit(result, 2)
        assert "seed must be >= 0, got -1" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("wide", [False, True], ids=["m3", "m14"])
    def test_explain_no_coalition_draws(self, tmp_path, wide):
        train, test = (make_wide_dataset if wide else make_dataset)(tmp_path)
        result = self.explain(tmp_path, train, test, "--coalition-draws", "0")
        self.assert_clean_exit(result, 2)
        assert "coalition_draws must be >= 1, got 0" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "-1"), ("k", "0"), ("quadrature_points", "0"), ("quadrature_points", "100000"),
         ("n_mc", "1")],
    )
    def test_simulate_out_of_range(self, tmp_path, key, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_test = 1\nbatches = 1\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        self.assert_clean_exit(result, 2)
        if value == "100000":
            # The Gauss-Legendre rule alone would take tens of GiB.
            assert f"{key} must be <= 128, got {value}" in result.output
        else:
            bound = {"seed": 0, "k": 1, "quadrature_points": 1, "n_mc": 2}[key]
            assert f"{key} must be >= {bound}, got {value}" in result.output
        assert not out.exists()

    def test_simulate_k_cap_key_removed(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_test = 1\nbatches = 1\nk_cap = 5\n", encoding="utf-8")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        self.assert_clean_exit(result, 2)
        assert "unknown keys: k_cap" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["1.5", "-0.6"])
    def test_simulate_rho_out_of_range(self, tmp_path, rho):
        # In three dimensions an equicorrelated Sigma is positive definite for -1/2 < rho < 1.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_test = 1\nbatches = 1\ndimension = 3\nrho = {rho}\n", encoding="utf-8")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        self.assert_clean_exit(result, 2)
        assert f"rho={rho} outside the positive-definite range (-0.5000, 1)" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("features = gh\nrho = 0.5", "rho applies only to features = gaussian, not gh"),
            ("features = mixture\nrho = 0.5",
             "rho applies only to features = gaussian, not mixture"),
            ("kappa = 2", "kappa applies only to features = gh, not gaussian"),
            ("features = mixture\nkappa = 2", "kappa applies only to features = gh, not mixture"),
            ("dimension = 10\nfeatures = gh\nkappa = 2", "kappa does not apply at dimension 10"),
            ("gamma = 2", "gamma applies only to features = mixture, not gaussian"),
            ("features = gh\ngamma = 2", "gamma applies only to features = mixture, not gh"),
        ],
        ids=["rho-gh", "rho-mixture", "kappa-gaussian", "kappa-mixture", "kappa-10d",
             "gamma-gaussian", "gamma-gh"],
    )
    def test_simulate_ignored_family_parameter(self, tmp_path, lines, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_test = 1\nbatches = 1\n{lines}\n", encoding="utf-8")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["simulate", str(cfg), "--output-dir", str(out)])
        self.assert_clean_exit(result, 2)
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("features = gh\nkappa = nan", "kappa must be finite, got nan"),
            ("features = gh\nkappa = inf", "kappa must be finite, got inf"),
            ("features = gh\nkappa = 1e200", "training mean or covariance overflows"),
            ("features = gh\nkappa = -1e200", "training mean or covariance overflows"),
            ("features = mixture\ngamma = nan", "gamma must be finite, got nan"),
            ("features = mixture\ngamma = 1e200", "training mean or covariance overflows"),
            ("noise_sd = nan", "noise_sd must be finite and >= 0, got nan"),
            ("noise_sd = -1", "noise_sd must be finite and >= 0, got -1.0"),
            ("noise_sd = 1e308", "noise_sd = 1e+308 overflows the responses"),
        ],
        ids=["kappa-nan", "kappa-inf", "kappa-1e200", "kappa--1e200", "gamma-nan",
             "gamma-1e200", "noise-nan", "noise-negative", "noise-1e308"],
    )
    def test_simulate_non_finite_parameters(self, tmp_path, lines, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            f"dimension = 3\nn_train = 50\nn_test = 1\nbatches = 1\nk = 20\n"
            f"quadrature_points = 8\nestimators = original\n{lines}\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main, ["simulate", str(cfg), "--output-dir", str(tmp_path / "o")]
        )
        self.assert_clean_exit(result, 2)
        assert message in result.output

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

    def test_explain_aicc_on_three_rows(self, tmp_path):
        # The AICc subsample would hold 3 rows, and Phi(H) is infinite below 4.
        rows = [[0.1, 0.5, 1.0], [0.7, -0.2, 0.3], [-0.4, 0.9, 0.2]]
        train = self.write_csv(tmp_path / "three.csv", ["f1", "f2", "target"], rows)
        test = self.write_csv(tmp_path / "test2.csv", ["f1", "f2"], [[0.2, 0.3]])
        result = self.explain(
            tmp_path, train, test, "--model", "ols", "--estimator", "empirical-aicc-exact"
        )
        self.assert_clean_exit(result, 2)
        assert "AICc bandwidth needs n >= 4 training rows, got 3" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("estimator", ["gaussian", "empirical-0.1", "empirical-aicc-exact"])
    def test_explain_aicc_on_nan_predictions(self, tmp_path, estimator):
        train, test = make_dataset(tmp_path)
        script = tmp_path / "nan_model.py"
        script.write_text(NAN_MODEL, encoding="utf-8")
        result = self.explain(
            tmp_path, train, test, "--model", "external",
            "--model-command", f"{sys.executable} -u {script}",
            "--estimator", estimator,
        )
        self.assert_clean_exit(result, 3)
        assert "non-finite prediction" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1", "inf"])
    def test_explain_bad_timeout_before_model_start(self, tmp_path, timeout):
        train, test = make_dataset(tmp_path)
        result = self.explain(
            tmp_path, train, test, "--model", "external",
            "--model-command", "condshap-test-no-such-program", "--timeout", timeout,
        )
        self.assert_clean_exit(result, 2)
        assert f"model timeout must be a finite number of seconds > 0, got {float(timeout)}" \
            in result.output
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()

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


RUN_CLI_THEN_CHECK_SCIPY = """
import sys
from condshap.shell.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
print("scipy.stats" in sys.modules, any(name.split(".")[0] == "scipy" for name in sys.modules))
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
    """No explain path loads ``scipy.stats``, and ``condshap cluster`` loads no scipy at all."""
    train, test = make_dataset(tmp_path, n=60)
    if command[0] == "explain":
        args = command + [
            "--train", str(train), "--test", str(test), "--response", "target",
            "--model", "ols", "--k", "50", "--output", str(tmp_path / "x"),
        ]
    else:
        args = ["cluster", str(train), "--output", str(tmp_path / "cl")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", RUN_CLI_THEN_CHECK_SCIPY, *args],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    stats_loaded, scipy_loaded = out.stdout.strip().splitlines()[-1].split()
    assert stats_loaded == "False"
    if command[0] == "cluster":
        assert scipy_loaded == "False"


class TestExitCodes:
    def test_mapping(self):
        wrapped = RuntimeError("experiment failed in batch 0")
        wrapped.__cause__ = QuadratureConvergenceError("not converged")
        assert _exit_code(ModelProtocolError("bad line")) == 3
        assert _exit_code(EfficiencyViolationError("gap")) == 1
        assert _exit_code(SchemaError("columns")) == 2
        assert _exit_code(wrapped) == 2
        assert _exit_code(ValueError("not ours")) is None
