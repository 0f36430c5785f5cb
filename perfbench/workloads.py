"""The three benchmark workloads.

Each workload makes its inputs from the seed in its constructor, then offers
``setup()`` (one timed set-up, returning the state the rounds use),
``warmup(state)``, ``round(state, tracer, pause)`` (one timed round of
identical operations, returning its output, its wall time and its spans; an
untraced round calls ``pause()`` between its operations, if it has several,
and leaves that time out) and
``check(warm, outputs)`` (problems found in the outputs, checked against
:mod:`checks`), and ``probe_parts``, the parts of :mod:`probe` that slow down
on a busy host as the workload does.  Calls into condshap go through module
attributes so that a :class:`tracing.Tracer` sees them.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import shlex
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
from scipy.stats import kendalltau

import checks
import condshap
import condshap.simlab.experiment as experiment
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 150


def equicorrelated(m: int, rho: float) -> np.ndarray:
    cov = np.full((m, m), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


class LinearModel:
    """f(x) = b0 + x.beta, vectorized over rows."""

    def __init__(self, b0: float, beta: np.ndarray):
        self.b0, self.beta = float(b0), np.asarray(beta, float)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.b0 + np.atleast_2d(np.asarray(x, float)) @ self.beta


def fit_linear(x: np.ndarray, y: np.ndarray) -> LinearModel:
    coef = np.linalg.lstsq(np.column_stack([np.ones(len(x)), x]), y, rcond=None)[0]
    return LinearModel(coef[0], coef[1:])


def _paced(steps, pause) -> tuple[list, float]:
    """Call each step, and ``pause()`` between steps; return the steps'
    values and the seconds spent in the steps alone."""
    values, seconds = [], 0.0
    for n, step in enumerate(steps):
        if n and pause is not None:
            pause()
        start = time.perf_counter()
        values.append(step())
        seconds += time.perf_counter() - start
    return values, seconds


class ExplainM10:
    """Explainer in-process at m=10: four estimators on two instances per round."""

    name = "explain-m10"
    labels = ("original", "gaussian", "copula", "empirical-0.1+gaussian")
    m, rho, n_train, n_test, k = 10, 0.5, 2000, 2, 1000
    setup_reps = 8
    bootstrap_sets = 32
    # Its conditioning and drawing slow down on a busy host like these parts.
    probe_parts = ("calls", "numpy")
    explanations_per_round = n_test * len(labels)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 10])
        self.cov = equicorrelated(self.m, self.rho)
        self.chol = np.linalg.cholesky(self.cov)
        self.x_train = rng.standard_normal((self.n_train, self.m)) @ self.chol.T
        y = self.x_train[:, :9].sum(axis=1) + 0.1 * rng.standard_normal(self.n_train)
        self.model = fit_linear(self.x_train, y)
        self.x_test = rng.standard_normal((self.n_test, self.m)) @ self.chol.T

    def setup(self, model=None):
        train = condshap.TrainingMatrix.from_data(self.x_train)
        return [
            condshap.Explainer(train, model or self.model,
                               condshap.SamplerSpec.from_label(label), k=self.k, seed=self.seed)
            for label in self.labels
        ]

    def _explain(self, explainers):
        return [[ex.explain_one(x, i) for i, x in enumerate(self.x_test)] for ex in explainers]

    def warmup(self, explainers):
        return [ex.explain_one(self.x_test[0], 0) for ex in explainers]

    def round(self, explainers, tracer: Tracer | None, pause=None):
        if tracer is None:
            n = len(self.x_test)
            flat, seconds = _paced([partial(ex.explain_one, x, i) for ex in explainers
                                    for i, x in enumerate(self.x_test)], pause)
            return [flat[j:j + n] for j in range(0, len(flat), n)], seconds, []
        with tracer:
            traced = self.setup(model=tracer.wrap("model", self.model))
            start = time.perf_counter()
            out = self._explain(traced)
            seconds = time.perf_counter() - start
        return out, seconds, tracer.spans

    def references(self) -> dict:
        """label -> (reference phi, tolerance), each of shape (n_test, m)."""
        m, k = self.m, self.k
        b0, beta = self.model.b0, self.model.beta
        mean_hat = self.x_train.mean(axis=0)
        cmat = checks.shapley_matrix(m)
        refs = {}
        # original: exact at beta_j (x*_j - mean_j); the draws are training rows.
        pop_cov = np.cov(self.x_train, rowvar=False, ddof=0)
        se = checks.mc_standard_error(m, checks.marginal_variance(beta, pop_cov), k)
        refs["original"] = (beta * (self.x_test - mean_hat), checks.Z * se)
        # gaussian: exact under the training mean and covariance.
        values, resid = checks.linear_values(b0, beta, mean_hat, np.cov(self.x_train, rowvar=False),
                                             self.x_test)
        se_gauss = checks.mc_standard_error(m, resid, k)
        refs["gaussian"] = (values @ cmat.T, checks.Z * se_gauss)
        # copula and combined: exact under the true law, loosened by the bias
        # and spread of each estimand over training sets of the same size.
        truth = checks.linear_values(b0, beta, np.zeros(m), self.cov, self.x_test)[0] @ cmat.T
        rng = np.random.default_rng([self.seed, 11])
        sets = [rng.standard_normal((self.n_train, m)) @ self.chol.T
                for _ in range(self.bootstrap_sets)]

        def copula_phi(x):
            return checks.copula_values(x, b0, beta, self.x_test) @ cmat.T

        def combined_phi(x):
            base = checks.linear_values(b0, beta, x.mean(axis=0), np.cov(x, rowvar=False),
                                        self.x_test)[0]
            return checks.kernel_values(x, b0, beta, self.x_test, base, k_max=k) @ cmat.T

        parametric = np.array([len(s) > 3 for s in checks.subsets(m)])
        se_combined = checks.mc_standard_error(m, np.where(parametric, resid, 0.0), k)
        for label, estimand, se_mc in (("copula", copula_phi, se_gauss),
                                       ("empirical-0.1+gaussian", combined_phi, se_combined)):
            bias, spread = checks.sampling_spread(estimand, sets, truth)
            refs[label] = (truth, np.abs(bias) + checks.Z * np.sqrt(se_mc ** 2 + spread ** 2))
        return {label: (ref, np.broadcast_to(tol, ref.shape)) for label, (ref, tol) in refs.items()}

    def check(self, warm, outputs, references: dict | None = None) -> list[str]:
        problems = []
        first = outputs[0]
        phis = {label: np.array([e.phi for e in first[i]]) for i, label in enumerate(self.labels)}
        f_star = self.model(self.x_test)
        mean_prediction = float(self.model(self.x_train).mean())
        references = references or self.references()
        names = {"original": "beta (x* - training mean)", "gaussian": "training-moment exact",
                 "copula": "true-law exact", "empirical-0.1+gaussian": "true-law exact"}
        for i, label in enumerate(self.labels):
            problems += checks.check_identical(f"{label} re-explained instance 0",
                                               warm[i].phi, first[i][0].phi)
            for later in outputs[1:]:
                problems += checks.check_identical(
                    f"{label} later round", phis[label], [e.phi for e in later[i]])
            problems += checks.check_efficiency(
                label, [e.phi0 for e in first[i]], phis[label],
                [e.prediction for e in first[i]], f_star, mean_prediction)
            reference, tolerance = references[label]
            problems += checks.check_within(f"{label} vs {names[label]}", phis[label],
                                            reference, tolerance)
        return problems


class CliExternalM3:
    """``condshap explain`` as a child process with the external JSON-lines model."""

    name = "cli-external-m3"
    cov = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]])
    columns = ("a", "b", "c")
    n_train, n_test, k = 20000, 40, 1000
    setup_reps = 1
    probe_parts = ("python", "numpy", "memory")
    explanations_per_round = n_test
    mae_effective_rows = 100

    def __init__(self, seed: int, workdir: Path):
        from model import COEFFICIENTS, INTERCEPT

        self.seed, self.workdir = seed, workdir
        self.model = LinearModel(INTERCEPT, np.array(COEFFICIENTS))
        rng = np.random.default_rng([seed, 3])
        chol = np.linalg.cholesky(self.cov)
        self.x_train = rng.standard_normal((self.n_train, 3)) @ chol.T
        self.x_test = rng.standard_normal((self.n_test, 3)) @ chol.T
        workdir.mkdir(parents=True, exist_ok=True)
        self._write_csv(workdir / "train.csv", self.x_train)
        self._write_csv(workdir / "test.csv", self.x_test)
        self._write_csv(workdir / "test1.csv", self.x_test[:1])
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stats = None

    def _write_csv(self, path: Path, matrix: np.ndarray) -> None:
        lines = [",".join(self.columns)]
        lines += [",".join(repr(float(v)) for v in row) for row in matrix]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _run(self, test_csv: str, prefix: str, spans_path: Path | None = None) -> None:
        model_command = f"{shlex.quote(sys.executable)} {shlex.quote(str(HERE / 'model.py'))}"
        if spans_path is None:
            head = [sys.executable, "-m", "condshap.shell.cli"]
        else:
            model_command += f" --stats {shlex.quote(str(spans_path.with_suffix('.model.json')))}"
            head = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
        args = head + [
            "explain", "--train", "train.csv", "--test", test_csv,
            "--model", "external", "--model-command", model_command,
            "--estimator", "empirical-aicc-exact", "--k", str(self.k),
            "--cluster-alpha", "1.0", "--seed", str(self.seed), "--output", prefix,
        ]
        # Its own process group, so that a timeout also ends the model process.
        child = subprocess.Popen(args, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
        if child.returncode != 0:
            raise RuntimeError(f"condshap explain exited {child.returncode}: "
                               f"{stderr.strip()[-400:]}")

    def setup(self):
        self._run("test1.csv", "first")
        return None

    def warmup(self, state):
        return None

    def round(self, state, tracer: Tracer | None, pause=None):
        spans_path = None if tracer is None else self.workdir / "spans.json"
        start = time.perf_counter()
        self._run("test.csv", "out", spans_path)
        seconds = time.perf_counter() - start
        output = ((self.workdir / "out.json").read_text(encoding="utf-8"),
                  (self.workdir / "out.csv").read_text(encoding="utf-8"))
        if spans_path is None:
            return output, seconds, []
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        self.stats = json.loads(spans_path.with_suffix(".model.json").read_text(encoding="utf-8"))
        return output, seconds, spans

    def measure_import(self) -> float:
        code = ("import time; t = time.perf_counter(); import condshap.shell.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(3):
            done = subprocess.run([sys.executable, "-c", code], cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                  check=True)
            times.append(float(done.stdout.strip()))
        return statistics.median(times)

    def external_layers(self) -> dict:
        return {"shell.import_s": self.measure_import(),
                "shell.protocol_requests": self.stats["requests"],
                "shell.protocol_bytes": self.stats["request_bytes"]}

    def partition(self) -> list[tuple[int, ...]]:
        """Feature groups from Kendall's tau on the training data: the most
        dependent pair together, the third feature alone."""
        pairs = [(0, 1), (0, 2), (1, 2)]
        taus = [abs(kendalltau(self.x_train[:, i], self.x_train[:, j])[0]) for i, j in pairs]
        pair = pairs[int(np.argmax(taus))]
        return [pair, tuple(j for j in range(3) if j not in pair)]

    def mae_bound(self) -> float:
        """Expected MAE of an estimator whose every proper coalition value
        rests on ``mae_effective_rows`` effective rows, its coalition errors
        adding in the worst case: sqrt(2/pi) mean_j sum_S |C_jS| sd_S / sqrt(rows)."""
        resid = checks.linear_values(self.model.b0, self.model.beta, np.zeros(3), self.cov,
                                     np.zeros((1, 3)))[1]
        proper = np.array([0 < len(s) < 3 for s in checks.subsets(3)])
        spread = np.abs(checks.shapley_matrix(3)) @ np.sqrt(np.where(proper, resid, 0.0))
        return float(np.sqrt(2 / np.pi) * spread.mean() / np.sqrt(self.mae_effective_rows))

    def check(self, warm, outputs) -> list[str]:
        problems = []
        for later in outputs[1:]:
            if later != outputs[0]:
                problems.append("rerun of condshap explain wrote different bytes")
        records = json.loads(outputs[0][0])["records"]
        if [r["instance_id"] for r in records] != list(range(self.n_test)):
            return problems + [f"expected {self.n_test} records, got {len(records)}"]
        phi = np.array([[r["phi"][c] for c in self.columns] for r in records])
        problems += checks.check_efficiency(
            "explain", [r["phi0"] for r in records], phi, [r["prediction"] for r in records],
            self.model(self.x_test), float(self.model(self.x_train).mean()))
        partition = self.partition()
        if partition != [(0, 1), (2,)]:
            problems.append(f"Kendall partition {partition} contradicts the generating law")
        for row, record in zip(phi, records):
            problems += checks.check_groups(f"record {record['instance_id']}", row,
                                            record.get("group_phi", {}), partition)
        b0, beta = self.model.b0, self.model.beta
        truth = (checks.linear_values(b0, beta, np.zeros(3), self.cov, self.x_test)[0]
                 @ checks.shapley_matrix(3).T)
        problems += checks.check_mae("empirical-aicc-exact", phi, truth, beta * self.x_test,
                                     self.mae_bound())
        return problems

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Simulate3D:
    """run_experiment in-process on a Gaussian and a mixture 3-D linear experiment."""

    name = "simulate-3d"
    labels = ("original", "gaussian", "copula", "empirical-0.1")
    n_test = 10
    setup_reps = 1
    probe_parts = ("python", "numpy", "memory")
    explanations_per_round = 2 * n_test * len(labels)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.families = (experiment.FeatureFamily("gaussian", rho=0.5),
                         experiment.FeatureFamily("mixture", gamma=1.0))

    def _configs(self, n_test: int):
        specs = tuple(condshap.SamplerSpec.from_label(label) for label in self.labels)
        return [experiment.ExperimentConfig(
            dimension=3, features=family, sampling_model="linear", estimators=specs,
            n_train=2000, n_test_per_batch=n_test, batches=1, k=1000, seed=self.seed,
            name=f"{family.kind}-linear") for family in self.families]

    def _run(self, n_test: int):
        return [experiment.run_experiment(config).to_json() for config in self._configs(n_test)]

    def setup(self):
        self._run(1)
        return None

    def warmup(self, state):
        return None

    def round(self, state, tracer: Tracer | None, pause=None):
        # Looked up at call time, so that the tracer's wrapper runs.
        steps = [lambda c=config: experiment.run_experiment(c)
                 for config in self._configs(self.n_test)]
        if tracer is None:
            reports, seconds = _paced(steps, pause)
            return [report.to_json() for report in reports], seconds, []
        with tracer:
            reports, seconds = _paced(steps, None)
        return [report.to_json() for report in reports], seconds, tracer.spans

    def check(self, warm, outputs) -> list[str]:
        problems = []
        for later in outputs[1:]:
            if later != outputs[0]:
                problems.append("rerun of run_experiment gave a different report")
        gaussian, mixture = (json.loads(text) for text in outputs[0])
        for report in (gaussian, mixture):
            problems += checks.check_report(report.get("name", "?"), report, self.labels,
                                            self.n_test)
        if problems:
            return problems
        return (checks.check_skill("gaussian-linear", gaussian, ("gaussian", "copula"))
                + checks.check_skill("mixture-linear", mixture, ("empirical-0.1",)))


WORKLOADS = {w.name: w for w in (ExplainM10, CliExternalM3, Simulate3D)}
