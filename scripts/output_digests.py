"""Print one SHA-256 digest per condshap output, to compare two source trees.

Usage::

    python3 scripts/output_digests.py --src src > after.txt
    python3 scripts/output_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

The inputs are made with numpy alone, from fixed seeds, so both trees see
the same bytes.  The outputs are:

- ``condshap explain`` CSV and JSON (``--cluster-alpha 1.0 --d-star 1``):
  every estimator family with the OLS model, the parametric and AICc
  estimators with the stump model and with an external JSON-lines model;
- the request lines that external model reads (``<case>.requests``) in its
  ``gaussian`` and ``empirical-aicc-exact`` cases, so that the bytes sent to
  a model are pinned as well as the outputs;
- ``condshap cluster`` on a tie-heavy CSV;
- ``condshap simulate`` reports for a Gaussian, a mixture, a piecewise, an
  unrefined 3-D GH config and a 3-D GH config on the default refined grid,
  and for the ten-feature GH config, whose Monte Carlo truth draws from GH
  conditionals;
- in-process ``Explainer`` phi0/phi bytes: six labels at m=10, a copula run
  in reverse order, near-singular and constant-margin training sets (with
  ``empirical-aicc-exact``, whose ridged plans warn as the fixed-bandwidth
  empirical distances do), ``gaussian`` and ``empirical-0.1`` sharing one
  near-singular training matrix, run in both orders (each order's warnings
  digest is the same: a plan warns once, in its table's words, whichever
  explainer builds it), and the AICc estimators explained as a block and
  one instance at a time, and ``original``, ``gaussian`` and
  ``empirical-aicc-approx`` at m=14, above the enumeration cap, on the
  default sampled coalition design, and
  ``gaussian`` and ``copula`` at m=6 with a near-collinear pair, so that
  several blocks of each stacked size group are ridged, explained in reverse
  order.  The texts of the warnings each case raises, in the order raised,
  get their own digest.  Each case's phi0/phi also go to ``<case>.csv``, one
  row per explanation in ``repr`` floats of the digested values, so that
  ``report_delta.py`` can size a moved digest;
- the simulation lab's generalized hyperbolic conditioning on the ten-feature
  parameter block with a non-diagonal Sigma: the ``gh_conditional``
  parameters of four coalitions (``gh-conditional.txt``) and a fixed-seed
  ``GHFeatures.conditional_sample`` (``gh-conditional-sample.csv``);
- the reference oracles' phi0/phi (``truths-*``): tensor quadrature of the
  3-D Gaussian, mixture and GH families given the mean prediction (each law
  as Gaussian components, integrated through their factors in whitened
  coordinates; a GH law as 48 of them over its mixing variable), Monte
  Carlo at m=10 with a small draw count, and the linear closed forms under
  dependent and independent features;
- a 3-D Gaussian mixture whose common Sigma holds a near-singular pair
  (block cond about 2e9, so that its plans ridge it): the posterior weights,
  component centres and warnings of every proper coalition at a fixed x*
  (``mixture-ridged.txt``).

Every file is written to a fresh temporary directory (``--keep DIR`` writes
there instead and leaves the files).  One line per output goes to standard
output, ``<sha256>  <name>``, sorted by name.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

COLUMNS = ("a", "b", "c")
# Appends each request line it reads to the file named by argv[1], if any.
EXTERNAL_MODEL = '''\
import json, sys
log = open(sys.argv[1], "w", encoding="utf-8") if len(sys.argv) > 1 else None
for line in sys.stdin:
    if log:
        log.write(line)
        log.flush()
    if not line.strip():
        continue
    req = json.loads(line)
    preds = [0.3 + a - 0.5 * b + 2.0 * c + 0.5 * a * b for a, b, c in req["rows"]]
    print(json.dumps({"id": req["id"], "predictions": preds}), flush=True)
'''
SIMULATIONS = {
    "sim-gaussian": {"features": "gaussian", "rho": 0.5,
                     "estimators": "original,gaussian,copula,empirical-0.1,empirical-aicc-exact"},
    "sim-mixture": {"features": "mixture", "gamma": 1.0, "estimators": "original,gaussian,copula"},
    "sim-piecewise": {"features": "gaussian", "rho": 0.3, "model": "piecewise",
                      "quadrature_refine": "false",
                      "estimators": "original,copula,empirical-aicc-approx+gaussian"},
    # GH truth, unrefined: every law, the mean prediction's and each
    # conditional, integrates as its 48 Gaussian components over the GIG
    # mixing variable.
    "sim-gh": {"features": "gh", "kappa": 2.0, "quadrature_refine": "false", "n_train": 150,
               "estimators": "original,gaussian,empirical-0.1"},
    # The default GH truth path: 64 points, refined to 128 and checked.
    "sim-gh-refined": {"features": "gh", "kappa": 2.0, "quadrature_points": 64,
                       "quadrature_refine": "true", "n_train": 150, "n_test": 2,
                       "estimators": "original,gaussian,empirical-0.1"},
    # The ten-feature GH block: its Monte Carlo truth draws from GH conditionals.
    "sim-gh10": {"dimension": 10, "features": "gh", "estimators": "original,gaussian",
                 "n_train": 300, "n_test": 2, "batches": 1, "k": 50, "n_mc": 200},
}
SIMULATION_COMMON = {"n_train": 300, "n_test": 3, "batches": 2, "k": 200, "seed": 5,
                     "quadrature_points": 24, "n_aicc": 120, "d_star": 1}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_csv(path: Path, header, matrix: np.ndarray) -> None:
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def correlated(rng: np.random.Generator, cov: np.ndarray, n: int) -> np.ndarray:
    return rng.standard_normal((n, cov.shape[0])) @ np.linalg.cholesky(cov).T


class Run:
    """One source tree, one working directory and the digests gathered so far."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.digests: dict[str, str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src)

    def cli(self, name: str, args: list[str], outputs: list[str]):
        done = subprocess.run([sys.executable, "-m", "condshap.shell.cli", *args],
                              cwd=self.work, env=self.env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{name}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
        for out in outputs:
            self.digests[f"{name}/{out}"] = sha256((self.work / out).read_bytes())

    def explanations(self, name: str, make) -> None:
        """Digest the phi0/phi bytes of ``make()`` and, apart, its warnings.

        The same values go to ``<name>.csv``, one row (phi0, phi) per explanation.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            explanations = make()
        rows = np.array([np.r_[np.float64(e.phi0), np.asarray(e.phi, float)]
                         for e in explanations])
        self.digests[name] = sha256(b"".join(row.tobytes() for row in rows))
        header = ["phi0"] + [f"phi{j + 1}" for j in range(rows.shape[1] - 1)]
        write_csv(self.work / f"{name}.csv", header, rows)
        if caught:
            self.digests[f"{name}.warnings"] = sha256(
                "\n".join(f"{w.category.__name__}: {w.message}" for w in caught).encode())


def cli_outputs(run: Run) -> None:
    work = run.work
    rng = np.random.default_rng(7)
    cov = np.array([[1.0, 0.7, 0.2], [0.7, 1.0, 0.1], [0.2, 0.1, 1.0]])
    x_train, x_test = correlated(rng, cov, 600), correlated(rng, cov, 6)
    y = x_train @ [1.0, -0.5, 2.0] + np.sin(x_train[:, 0]) + 0.1 * rng.standard_normal(600)
    write_csv(work / "train.csv", COLUMNS + ("y",), np.column_stack([x_train, y]))
    write_csv(work / "train_x.csv", COLUMNS, x_train)
    write_csv(work / "test.csv", COLUMNS, x_test)
    (work / "model.py").write_text(EXTERNAL_MODEL, encoding="utf-8")
    base = ["explain", "--test", "test.csv", "--k", "300", "--seed", "3",
            "--cluster-alpha", "1.0", "--d-star", "1"]
    models = {
        "ols": ["--train", "train.csv", "--model", "ols", "--response", "y"],
        "stumps": ["--train", "train.csv", "--model", "stumps", "--response", "y"],
        "external": ["--train", "train_x.csv", "--model", "external",
                     "--model-command", f"{sys.executable} model.py"],
    }
    labels = {
        "ols": ("original", "gaussian", "copula", "empirical-0.1", "empirical-aicc-exact",
                "empirical-aicc-approx+gaussian", "empirical-aicc-exact+copula"),
        "stumps": ("gaussian", "copula", "empirical-0.1+copula", "empirical-aicc-approx"),
        "external": ("gaussian", "copula", "empirical-0.1+copula", "empirical-aicc-exact",
                     "empirical-aicc-approx+copula"),
    }
    logged_requests = ("gaussian", "empirical-aicc-exact")
    for model, names in labels.items():
        for label in names:
            prefix = f"explain-{model}-{label}"
            args, outputs = models[model], [prefix + ".csv", prefix + ".json"]
            if model == "external" and label in logged_requests:
                # The model command, the last argument, names its request log.
                args = args[:-1] + [f"{args[-1]} {prefix}.requests"]
                outputs.append(prefix + ".requests")
            run.cli(prefix, base + args + ["--estimator", label, "--output", prefix], outputs)

    ties = np.column_stack([rng.integers(0, 3, 400), rng.integers(0, 2, 400),
                            np.round(rng.standard_normal(400), 1), rng.standard_normal(400)])
    write_csv(work / "ties.csv", ("p", "q", "r", "s"), ties)
    run.cli("cluster", ["cluster", "ties.csv", "--alpha", "1.0", "--output", "clusters"],
            ["clusters.json", "clusters_tau.csv"])

    for name, keys in SIMULATIONS.items():
        config = work / f"{name}.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in
                                  {"name": name, **SIMULATION_COMMON, **keys}.items()),
                          encoding="utf-8")
        run.cli(name, ["simulate", config.name, "--output-dir", name],
                [f"{name}/report.json", f"{name}/report.csv", f"{name}/summary.txt"])


def one_by_one(explainer, rows: np.ndarray, order) -> list:
    return [explainer.explain_one(rows[i], i) for i in order]


def in_process_outputs(run: Run) -> None:
    from condshap import Explainer, SamplerSpec, TrainingMatrix
    from condshap.simlab import fit_ols, fit_stump_ensemble

    def explainer(train, model, label, k=300, seed=11, **overrides):
        return Explainer(train, model, SamplerSpec.from_label(label, **overrides), k=k, seed=seed)

    rng = np.random.default_rng(10)
    cov10 = np.full((10, 10), 0.5) + 0.5 * np.eye(10)
    x10 = correlated(rng, cov10, 2000)
    train10 = TrainingMatrix.from_data(x10)
    ols10 = fit_ols(train10, x10[:, :9].sum(axis=1) + 0.1 * rng.standard_normal(2000))
    test10 = correlated(rng, cov10, 2)
    for label in ("original", "gaussian", "copula", "empirical-0.1+gaussian", "empirical-0.1",
                  "empirical-0.1+copula"):
        run.explanations(f"m10-{label}", lambda: explainer(train10, ols10, label).explain(test10))
    run.explanations("m10-copula-reversed",
                     lambda: one_by_one(explainer(train10, ols10, "copula"), test10, (1, 0)))
    run.explanations("m10-empirical-aicc-exact+gaussian", lambda: explainer(
        train10, ols10, "empirical-aicc-exact+gaussian", d_star=1).explain(test10))

    x5 = correlated(rng, np.eye(5) + 0.3 * (1 - np.eye(5)), 800)
    x5[:, 4] = x5[:, 3] + 1e-7 * rng.standard_normal(800)  # near-singular: ridged blocks
    train5 = TrainingMatrix.from_data(x5)
    ols5 = fit_ols(train5, x5 @ [1.0, 2.0, -1.0, 0.5, 0.5])
    for label in ("gaussian", "copula"):
        run.explanations(f"m5-ridged-{label}",
                         lambda: explainer(train5, ols5, label, k=200).explain(x5[:3]))
    # Training matrices of their own, whose plans the empirical distances (with a
    # fixed bandwidth, or in the AICc search) build and warn for.
    for label in ("empirical-0.1+gaussian", "empirical-aicc-exact"):
        run.explanations(f"m5-ridged-{label}", lambda: explainer(
            TrainingMatrix.from_data(x5), ols5, label, k=200).explain(x5[:3]))
    # Two explainers on one training matrix, hence one plan table: whichever
    # runs first builds the ridged plans and warns for them.  Both orders list
    # the gaussian explanations first.
    for order in (("gaussian", "empirical-0.1"), ("empirical-0.1", "gaussian")):
        def shared():
            train = TrainingMatrix.from_data(x5)
            done = {label: explainer(train, ols5, label, k=200).explain(x5[:3]) for label in order}
            return done["gaussian"] + done["empirical-0.1"]
        run.explanations(f"m5-ridged-shared-{order[0]}-first", shared)
    x4 = correlated(rng, np.eye(4) + 0.4 * (1 - np.eye(4)), 500)
    x4[:, 2] = 1.5  # constant margin
    train4 = TrainingMatrix.from_data(x4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the constant column makes the design rank-deficient
        ols4 = fit_ols(train4, x4 @ [1.0, -1.0, 0.0, 2.0] + 0.1 * rng.standard_normal(500))
    run.explanations("m4-constant-copula",
                     lambda: explainer(train4, ols4, "copula", k=200).explain(x4[:3]))

    x3 = correlated(rng, np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]]), 600)
    train3 = TrainingMatrix.from_data(x3)
    y3 = x3 @ [1.0, -0.5, 2.0] + np.cos(x3[:, 1]) + 0.1 * rng.standard_normal(600)
    test3 = correlated(rng, np.eye(3), 7)
    models3 = {"ols": fit_ols(train3, y3), "stumps": fit_stump_ensemble(train3, y3)}
    for model_name, model in models3.items():
        for label in ("empirical-aicc-exact", "empirical-aicc-approx",
                      "empirical-aicc-exact+gaussian", "empirical-aicc-approx+copula"):
            name = f"m3-{model_name}-{label}"
            make = lambda: explainer(train3, model, label, k=200, n_aicc=150, d_star=1)
            run.explanations(f"{name}-block", lambda: make().explain(test3))
            run.explanations(f"{name}-one-by-one",
                             lambda: one_by_one(make(), test3, range(len(test3))))


def wide_outputs(run: Run) -> None:
    """m=14: the explainer samples its 2,048 coalition draws and solves on that design."""
    from condshap import Explainer, SamplerSpec, TrainingMatrix
    from condshap.simlab import fit_ols

    rng = np.random.default_rng(14)
    x14 = correlated(rng, np.full((14, 14), 0.3) + 0.7 * np.eye(14), 300)
    train14 = TrainingMatrix.from_data(x14)
    ols14 = fit_ols(train14, x14 @ np.linspace(-1.0, 1.0, 14) + 0.1 * rng.standard_normal(300))
    for label in ("original", "gaussian"):
        run.explanations(f"m14-sampled-{label}", lambda: Explainer(
            train14, ols14, SamplerSpec.from_label(label), k=20, seed=3).explain(x14[:2]))
    # One AICc search per coalition size, over that size's design coalitions.
    run.explanations("m14-sampled-empirical-aicc-approx", lambda: Explainer(
        train14, ols14, SamplerSpec.from_label("empirical-aicc-approx", n_aicc=40),
        k=20, seed=3).explain(x14[:2]))


def ridged_outputs(run: Run) -> None:
    """m=6, features 4 and 5 nearly collinear: the first instance explained builds
    every plan, with one ridge warning per coalition holding both."""
    from condshap import Explainer, SamplerSpec, TrainingMatrix
    from condshap.simlab import fit_ols

    rng = np.random.default_rng(6)
    x6 = correlated(rng, np.eye(6) + 0.2 * (1 - np.eye(6)), 600)
    x6[:, 5] = x6[:, 4] + 1e-7 * rng.standard_normal(600)
    train6 = TrainingMatrix.from_data(x6)
    ols6 = fit_ols(train6, x6 @ [1.0, -2.0, 0.5, 1.5, 1.0, 1.0] + 0.1 * rng.standard_normal(600))
    for label in ("gaussian", "copula"):
        explainer = Explainer(train6, ols6, SamplerSpec.from_label(label), k=200, seed=13)
        run.explanations(f"m6-ridged-reversed-{label}",
                         lambda: one_by_one(explainer, x6[:3], (2, 1, 0)))


def gh_outputs(run: Run) -> None:
    from dataclasses import replace

    from condshap.simlab import GHFeatures, gh_conditional, gh_params_10d

    base = gh_params_10d()
    scale = np.sqrt(np.diag(base.sigma))
    params = replace(base, sigma=(0.5 + 0.5 * np.eye(10)) * np.outer(scale, scale))
    x = np.linspace(2.0, 4.0, 10)
    lines = []
    for s in ((0,), (1, 5), (0, 2, 4, 6, 8), (3, 4, 5, 6, 7, 8, 9)):
        law = gh_conditional(params, s, x[list(s)])
        for name in ("lam", "chi", "psi", "mu", "sigma", "beta_skew"):
            values = np.asarray(getattr(law, name), float).reshape(-1)
            lines.append(f"{s} {name} " + " ".join(repr(float(v)) for v in values))
    (run.work / "gh-conditional.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    sample = GHFeatures(params).conditional_sample((1, 5), x[[1, 5]], 200,
                                                   np.random.default_rng(12))
    write_csv(run.work / "gh-conditional-sample.csv", [f"x{j}" for j in range(8)], sample)
    for out in ("gh-conditional.txt", "gh-conditional-sample.csv"):
        run.digests[out] = sha256((run.work / out).read_bytes())


def truth_outputs(run: Run) -> None:
    """Each oracle's phi0/phi, read through those two fields alone."""
    from condshap.oracles import (
        GridSpec,
        linear_dependent_shapley,
        linear_independent_shapley,
        quadrature_mean_prediction,
        true_shapley_mc,
        true_shapley_quadrature,
    )
    from condshap.simlab import (
        GaussianFeatures,
        GHFeatures,
        GHParams,
        MixtureFeatures,
        OlsModel,
    )

    def nonlinear(x):
        return 0.3 + x[:, 0] - 0.5 * x[:, 1] ** 2 + np.tanh(x[:, 2]) + 0.2 * x[:, 0] * x[:, -1]

    families = {
        "gaussian": GaussianFeatures.equicorrelated(3, 0.5),
        "mixture": MixtureFeatures.from_gamma(1.0),
        "gh": GHFeatures(GHParams.from_kappa(3, kappa=2.0)),
    }
    grid = GridSpec(points_per_axis=24, refine=False)
    for name, dist in families.items():
        x3 = dist.sample(3, np.random.default_rng(30))
        mean = quadrature_mean_prediction(dist, nonlinear, grid)
        run.explanations(f"truths-quadrature-{name}", lambda: [
            true_shapley_quadrature(dist, nonlinear, x, grid, v_empty=mean) for x in x3])

    dist10 = GaussianFeatures.equicorrelated(10, 0.5)
    x10 = dist10.sample(2, np.random.default_rng(31))
    run.explanations("truths-monte-carlo", lambda: [
        true_shapley_mc(dist10, nonlinear, x, 50, rng_seed=[32, i]) for i, x in enumerate(x10)])
    model = OlsModel(beta0=0.2, beta=np.linspace(-1.0, 1.5, 10))
    run.explanations("truths-closed-form-dependent", lambda: [
        linear_dependent_shapley(model, dist10.mean, dist10.conditional_mean, x) for x in x10])
    run.explanations("truths-closed-form-independent", lambda: [
        linear_independent_shapley(model, dist10.mean, x) for x in x10])


def mixture_outputs(run: Run) -> None:
    from dataclasses import replace

    from condshap.simlab import MixtureFeatures

    # Features 0 and 2 nearly collinear: every Sigma_SS holding both has
    # cond about 2e9, above the ridge threshold, yet its Cholesky succeeds.
    cov = np.array([[1.0, 0.3, 1.0 - 1e-9], [0.3, 1.0, 0.3], [1.0 - 1e-9, 0.3, 1.0]])
    dist = replace(MixtureFeatures.from_gamma(1.0), cov=cov)
    x = np.array([0.5, -0.2, 0.45])
    lines = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for s in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            x_s = x[list(s)]
            weights = dist.posterior_weights(s, x_s)
            lines.append(f"{s} weights " + " ".join(repr(float(w)) for w in weights))
            for k, comp in enumerate(dist.conditional_components(s, x_s)):
                lines.append(f"{s} center{k} " + " ".join(repr(float(v)) for v in comp.center))
    lines += [f"{w.category.__name__}: {w.message}" for w in caught]
    (run.work / "mixture-ridged.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    run.digests["mixture-ridged.txt"] = sha256((run.work / "mixture-ridged.txt").read_bytes())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="the tree's src/ directory")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import condshap

    if not Path(condshap.__file__).resolve().is_relative_to(src):
        sys.exit(f"condshap was imported from {condshap.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep.resolve() if args.keep else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        run = Run(src, work)
        cli_outputs(run)
        in_process_outputs(run)
        wide_outputs(run)
        ridged_outputs(run)
        gh_outputs(run)
        truth_outputs(run)
        mixture_outputs(run)
    for name in sorted(run.digests):
        print(f"{run.digests[name]}  {name}")


if __name__ == "__main__":
    main()
