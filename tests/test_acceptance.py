"""Acceptance criteria.

Each test prints one pass/fail line (visible with ``pytest -s``) and enforces
the stated tolerance.  Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from condshap.coalitions import (
    WlsSolver,
    enumerate_coalitions,
    exact_shapley,
)
from condshap.explain import Explainer
from condshap.grouping import (
    complete_linkage,
    dissimilarity,
    kendall_tau,
    kgs_cut,
)
from condshap.oracles import (
    GridSpec,
    linear_dependent_shapley,
    linear_independent_shapley,
    quadrature_mean_prediction,
    true_shapley_quadrature,
)
from condshap.samplers import (
    SamplerSpec,
    TrainingMatrix,
    _smooth,
    empirical_weights,
    estimate_v_empirical,
    estimate_v_independent_full,
    fit_copula,
    scaled_mahalanobis,
)
from condshap.simlab import (
    ExperimentConfig,
    FeatureFamily,
    GHParams,
    fit_ols,
    linear_sampling_model,
    run_experiment,
    sample_gig,
)
from condshap.simlab.distributions import GHFeatures, GaussianFeatures, gig_mean, gig_variance
from condshap.oracles import fold_seed
from conditioning_reference import reference_conditional_moments
from kendall_reference import kendall_tau_naive


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:02d}] PASS  {description}  ({elapsed:.1f}s)")


def test_criterion_01_exact_solver_equivalence():
    with criterion(1, "constrained WLS equals the combinatorial formula (1e-8)"):
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        for m in range(1, 7):
            solver = WlsSolver(enumerate_coalitions(m))
            for _ in range(100):
                v = rng.standard_normal(2 ** m)
                a = solver.solve(v)
                b = exact_shapley(v)
                assert abs(a.phi0 - b.phi0) <= 1e-8
                assert np.all(np.abs(a.phi - b.phi) <= 1e-8)
        assert time.perf_counter() - started < 10.0


def test_criterion_02_axiom_suite():
    with criterion(2, "efficiency/symmetry/dummy/linearity on 1000 random games"):
        started = time.perf_counter()
        rng = np.random.default_rng(1002)
        for game in range(250):
            m = int(rng.integers(2, 7))
            cm = enumerate_coalitions(m)
            solver = WlsSolver(cm)
            row = {s: i for i, s in enumerate(cm.coalitions)}

            # Efficiency on a plain random game (one v(S) per row of cm).
            v = rng.standard_normal(2 ** m)
            e = exact_shapley(v)
            assert abs(e.total - v[-1]) <= 1e-6 * max(1.0, abs(v[-1]))
            w = solver.solve(v)
            assert abs(w.total - v[-1]) <= 1e-6 * max(1.0, abs(v[-1]))

            # Symmetry with a planted exchangeable pair.
            a, b = rng.choice(m, size=2, replace=False)
            swap = {a: b, b: a}
            swapped = [row[tuple(sorted(swap.get(j, j) for j in s))] for s in cm.coalitions]
            base = rng.standard_normal(2 ** m)
            sym = 0.5 * (base + base[swapped])
            assert abs(exact_shapley(sym).phi[a] - exact_shapley(sym).phi[b]) <= 1e-10
            ws = solver.solve(sym)
            assert abs(ws.phi[a] - ws.phi[b]) <= 1e-8

            # Dummy with a planted inert feature.
            dummy = int(rng.integers(m))
            without = [row[s] for s in cm.coalitions if dummy not in s]
            with_dummy = [row[tuple(sorted(s + (dummy,)))] for s in cm.coalitions if dummy not in s]
            vd = np.empty(2 ** m)
            vd[without] = rng.standard_normal(len(without))
            vd[with_dummy] = vd[without]
            assert abs(exact_shapley(vd).phi[dummy]) <= 1e-10
            assert abs(solver.solve(vd).phi[dummy]) <= 1e-8

            # Linearity of the exact solution.
            scale = float(rng.standard_normal())
            v2 = rng.standard_normal(2 ** m)
            combo = scale * v + v2
            lhs = exact_shapley(combo).phi
            rhs = scale * exact_shapley(v).phi + exact_shapley(v2).phi
            assert np.all(np.abs(lhs - rhs) <= 1e-10)
        assert time.perf_counter() - started < 30.0


# Criteria 3 and 4 compare, for each of the 150 (point, feature) pairs, the
# mean of the canonical run and the replicate runs with the oracle, in units
# of that mean's own standard error sd/sqrt(runs), where sd is the spread of
# the runs (t with runs - 1 degrees of freedom for an unbiased estimator).
# The bound is the Bonferroni t quantile for a family-wise false-alarm rate
# of 1e-3 over all pairs: 6.04 for 21 runs, or 1.32 single-run standard
# errors.  It does not depend on a lucky seed, and it is tighter on a
# systematic bias than a per-run bound, which the run-to-run noise hides:
# both criteria also pass at master seeds 7000, 7100, ..., 7900, and adding
# +0.05 to the Gaussian conditional draws of x1 fails 59 of the 150 pairs of
# criterion 4.
PIPELINE_FAMILY_ALPHA = 1e-3


def _replicated_pipeline_check(
    rho: float,
    spec: SamplerSpec,
    oracle,
    n_points: int = 50,
    n_replicates: int = 20,
    seed: int = 2000,
):
    """Shared machinery for criteria 3 and 4.

    Fits OLS on equicorrelated Gaussian data and explains ``n_points`` fresh
    instances with the canonical seed and ``n_replicates`` further seeds.
    Returns the number of (point, feature) pairs whose mean phi over those
    runs lies further from the oracle than the bound above.
    """
    dist = GaussianFeatures.equicorrelated(3, rho)
    train = TrainingMatrix.from_data(dist.sample(2000, np.random.default_rng(seed)))
    y = linear_sampling_model(train.data, rng_seed=seed + 1)
    predictor = fit_ols(train, y)
    test_x = dist.sample(n_points, np.random.default_rng(seed + 2))

    explainers = [Explainer(train, predictor, spec, k=1000, seed=seed + 9)] + [
        Explainer(train, predictor, spec, k=1000, seed=seed + 10 + r)
        for r in range(n_replicates)
    ]
    runs = len(explainers)
    bound = stats.t.ppf(1.0 - PIPELINE_FAMILY_ALPHA / (2 * test_x.size), runs - 1)

    failures = 0
    for i, x_star in enumerate(test_x):
        ref = oracle(predictor, train, x_star)
        phis = np.stack([e.explain_one(x_star, instance_index=i).phi for e in explainers])
        se = phis.std(axis=0, ddof=1) / math.sqrt(runs)
        failures += int(np.sum(np.abs(phis.mean(axis=0) - ref.phi) > bound * se))
    return failures


def test_criterion_03_linear_independent_closed_form():
    with criterion(3, "independence pipeline reproduces the independent-linear closed form"):
        def oracle(model, train, x_star):
            return linear_independent_shapley(model, train.mean, x_star)

        failures = _replicated_pipeline_check(
            rho=0.0, spec=SamplerSpec(kind="independence"), oracle=oracle, seed=2300
        )
        assert failures == 0


def test_criterion_04_linear_dependent_oracle():
    with criterion(4, "gaussian pipeline matches the dependent-linear exact Shapley"):
        def oracle(model, train, x_star):
            cond_mean = lambda s, x_s: reference_conditional_moments(
                train.mean, train.covariance, s, x_s
            )[0]
            return linear_dependent_shapley(model, train.mean, cond_mean, x_star)

        failures = _replicated_pipeline_check(
            rho=0.7, spec=SamplerSpec(kind="gaussian"), oracle=oracle, seed=2600
        )
        assert failures == 0


def test_criterion_05_gig_and_gh_moments():
    with criterion(5, "GIG mean 4.56 +- 0.05 and GH covariance identity (5 SE)"):
        draws = sample_gig(1.0, 0.5, 0.5, 100_000, rng_seed=3005)
        assert abs(draws.mean() - 4.56) <= 0.05

        params = GHParams.from_kappa(3, kappa=6.0)
        n = 150_000
        train = TrainingMatrix.from_data(GHFeatures(params).sample(n, np.random.default_rng(3006)))
        ew = gig_mean(1.0, 0.5, 0.5)
        vw = gig_variance(1.0, 0.5, 0.5)
        target = ew * params.sigma + vw * np.outer(params.beta_skew, params.beta_skew)
        centered = train.data - train.data.mean(axis=0)
        for i in range(3):
            for j in range(3):
                prod = centered[:, i] * centered[:, j]
                se = prod.std(ddof=1) / math.sqrt(n)
                assert abs(train.covariance[i, j] - target[i, j]) <= 5 * se


def _desk_experiment(rho: float, estimators, seed: int, gamma: float | None = None):
    family = (
        FeatureFamily("gaussian", rho=rho)
        if gamma is None
        else FeatureFamily("mixture", gamma=gamma)
    )
    return run_experiment(
        ExperimentConfig(
            dimension=3,
            features=family,
            sampling_model="linear",
            estimators=estimators,
            n_train=2000,
            n_test_per_batch=10,
            batches=3,
            k=1000,
            seed=seed,
            name=f"desk-{family.kind}-{family.parameter:g}",
        )
    )


_SWEEP_CACHE: dict = {}


@pytest.fixture(scope="module")
def dependence_sweep():
    """The rho sweep used by criterion 6, computed once.

    Wall clock is recorded so the runtime bound can be asserted.
    """
    if not _SWEEP_CACHE:
        estimators = (
            SamplerSpec(kind="independence"),
            SamplerSpec(kind="gaussian"),
            SamplerSpec(kind="copula"),
            SamplerSpec(kind="empirical", bandwidth_mode="aicc_exact"),
            SamplerSpec(kind="empirical", bandwidth_mode="aicc_approx"),
        )
        started = time.perf_counter()
        reports = {
            rho: _desk_experiment(rho, estimators, seed=4000 + int(10 * rho))
            for rho in (0.0, 0.3, 0.8)
        }
        _SWEEP_CACHE["reports"] = reports
        _SWEEP_CACHE["elapsed"] = time.perf_counter() - started
    return _SWEEP_CACHE["reports"], _SWEEP_CACHE["elapsed"]


# Estimators whose rho=0 band is checked net of their moment-estimation tilt,
# and the replicate explainer seeds averaged in besides the canonical one.
TILT_MATCHED = ("gaussian", "copula")
TILT_REPLICATES = 9


def _copula_conditional_mean(state, s, x_s):
    """Exact mean of the copula sampler's complement draws (K -> infinity).

    The latent conditional of each complement feature is normal, and
    ``CopulaState.quantiles`` maps u in ((i-1)/(n+1), i/(n+1)] to the i-th
    order statistic and u > n/(n+1) to the largest, so the mean is a finite
    sum of normal-CDF bin probabilities times the sorted training column.
    """
    m = state.m
    sbar = [j for j in range(m) if j not in s]
    v_s = stats.norm.ppf(state.cdf(s, x_s))
    mu, cov = reference_conditional_moments(np.zeros(m), state.latent_correlation, s, v_s)
    sd = np.sqrt(np.diag(cov))
    means = []
    for pos, j in enumerate(sbar):
        col = state.sorted_columns[j]
        n = col.shape[0]
        edges = stats.norm.ppf(np.arange(1, n) / (n + 1))
        upper = np.append(stats.norm.cdf((edges - mu[pos]) / sd[pos]), 1.0)
        means.append(np.diff(upper, prepend=0.0) @ col)
    return np.array(means)


def _tilt_matched_skills(report) -> dict:
    """Skill of each TILT_MATCHED estimator against the tilt-shifted baseline.

    Rebuilds every batch of a Gaussian-feature linear ``report`` from the
    runner's stream layout: training set [seed, batch, 0], response
    [seed, batch, 1], instances [seed, batch, 2], and explainer seed
    ``fold_seed([seed, batch, 4, label_index])``.  The canonical seeds must
    reproduce the report's MAEs exactly.

    For estimator X, replicate r is scored against
    ``phi_original_r + (P_X - P_original)``, where ``P_`` is the estimator's
    exact K -> infinity attribution of the fitted OLS predictor.  That
    reference carries the baseline's Monte Carlo error plus X's estimand
    tilt and nothing else.  Returns ``1 - MAE_X / MAE_ref`` with both MAEs
    averaged over the canonical seed and TILT_REPLICATES further seeds.
    """
    cfg = report.config
    assert (cfg["features"], cfg["sampling_model"], cfg["dimension"]) == (
        "gaussian",
        "linear",
        3,
    )
    dist = GaussianFeatures.equicorrelated(cfg["dimension"], cfg["parameter"])
    grid = GridSpec(
        points_per_axis=report.truth["quadrature_points"],
        refine=report.truth["refine"],
    )
    seed, labels = cfg["seed"], report.estimator_labels
    explained = ("original",) + TILT_MATCHED
    err = {label: [[] for _ in range(1 + TILT_REPLICATES)] for label in explained}
    ref_err = {label: [] for label in TILT_MATCHED}
    for batch in range(cfg["batches"]):
        train_x = dist.sample(cfg["n_train"], np.random.default_rng([seed, batch, 0]))
        train = TrainingMatrix.from_data(train_x)
        y = linear_sampling_model(train_x, [seed, batch, 1], noise_sd=cfg["noise_sd"])
        predictor = fit_ols(train, y)
        test_x = dist.sample(
            cfg["n_test_per_batch"], np.random.default_rng([seed, batch, 2])
        )
        v_empty = quadrature_mean_prediction(dist, predictor, grid)
        truth = [
            true_shapley_quadrature(dist, predictor, x, grid, v_empty=v_empty).phi
            for x in test_x
        ]

        copula = fit_copula(train)
        cond_means = {
            "original": lambda s, x_s: train.mean[[j for j in range(train.m) if j not in s]],
            "gaussian": lambda s, x_s: reference_conditional_moments(
                train.mean, train.covariance, s, x_s
            )[0],
            "copula": lambda s, x_s: _copula_conditional_mean(copula, s, x_s),
        }
        exact = {
            label: np.stack(
                [linear_dependent_shapley(predictor, train.mean, cm, x).phi for x in test_x]
            )
            for label, cm in cond_means.items()
        }

        for r in range(1 + TILT_REPLICATES):
            phi = {}
            for label in explained:
                index = labels.index(label)
                parts = [seed, batch, 4, index] if r == 0 else [seed, batch, 5, index, r]
                explainer = Explainer(
                    train,
                    predictor,
                    SamplerSpec.from_label(label),
                    k=cfg["k"],
                    seed=fold_seed(parts),
                )
                phi[label] = np.stack([e.phi for e in explainer.explain(test_x)])
                err[label][r].extend(
                    float(np.abs(t - p).mean()) for t, p in zip(truth, phi[label])
                )
            for label in TILT_MATCHED:
                ref = phi["original"] + exact[label] - exact["original"]
                ref_err[label].extend(
                    float(np.abs(t - p).mean()) for t, p in zip(truth, ref)
                )

    for label in explained:
        assert float(np.mean(err[label][0])) == report.mae[label], label
    return {
        label: 1.0 - float(np.mean(err[label])) / float(np.mean(ref_err[label]))
        for label in TILT_MATCHED
    }


def test_criterion_06_desk_scale_dependence_sweep(dependence_sweep):
    # With n_train=2000 the parametric samplers estimate a covariance (or a
    # latent correlation) whose spurious off-diagonals, about 1/sqrt(2000),
    # tilt every conditional mean by O(|x*|/sqrt(n_train)).  At rho=0 that
    # tilt is pure penalty and is part of what the method computes: over
    # master seeds 4000-4012 their exact K -> infinity estimands score a raw
    # skill of -0.39 on average, and the K=1000 raw skill lies in the band on
    # only 5 of 13 seeds.  So at rho=0 the three resampling estimators are
    # held to the band on raw skill, and gaussian and copula on their
    # tilt-matched skill (see _tilt_matched_skills).  Over the same seeds it
    # averages 0.00 with sd 0.03 (gaussian) and 0.04 (copula).  Adding
    # +0.05 to the Gaussian conditional draws of x1 pushes it below -0.1 on
    # 8 (gaussian) and 9 (copula) of 12 seeds; at seed 4000 the copula's
    # drop to -0.16 fails this test.
    with criterion(6, "experiment sweep incl. the +-0.1 independence band"):
        reports, elapsed = dependence_sweep
        for rho, report in reports.items():
            print(f"    rho={rho}: skills " + ", ".join(
                f"{k}={v:.3f}" for k, v in report.skill.items()
            ))
        independent = reports[0.0]
        tilt_matched = _tilt_matched_skills(independent)
        print("    rho=0.0: tilt-matched skills " + ", ".join(
            f"{k}={v:.3f}" for k, v in tilt_matched.items()
        ))
        for label in independent.estimator_labels:
            skill = tilt_matched.get(label, independent.skill[label])
            assert abs(skill) <= 0.1, (label, skill, independent.skill)

        for rho in (0.3, 0.8):
            report = reports[rho]
            for label in ("gaussian", "copula", "empirical-aicc-exact", "empirical-aicc-approx"):
                assert report.skill[label] > 0.0, (rho, label, report.skill)
            worst = max(report.mae, key=report.mae.get)
            assert worst == "original", (rho, report.mae)
        assert elapsed < 1200.0


def test_desk_scale_directional_claims(dependence_sweep):
    """The sweep's directional claims on raw skill: independence is
    competitive only without dependence, and every dependence-aware method
    wins once correlation appears, with the original method worst overall.
    The parametric samplers are left out of the rho=0 raw band here; their
    moment-estimation tilt is netted out in criterion 6."""
    with criterion(6, "directional sweep claims (rho > 0 wins, baseline worst)"):
        reports, elapsed = dependence_sweep
        independent = reports[0.0]
        # The resampling-based methods stay inside the +-0.1 band at rho=0;
        # original is the best or near-best method there.
        for label in ("original", "empirical-aicc-exact", "empirical-aicc-approx"):
            assert abs(independent.skill[label]) <= 0.1, (label, independent.skill)
        assert min(independent.mae, key=independent.mae.get) in (
            "original",
            "empirical-aicc-exact",
            "empirical-aicc-approx",
        )

        for rho in (0.3, 0.8):
            report = reports[rho]
            for label in ("gaussian", "copula", "empirical-aicc-exact", "empirical-aicc-approx"):
                assert report.skill[label] > 0.0, (rho, label, report.skill)
            worst = max(report.mae, key=report.mae.get)
            assert worst == "original", (rho, report.mae)
        assert elapsed < 1200.0


def test_criterion_07_desk_scale_mixture():
    with criterion(7, "separated mixture: empirical beats gaussian"):
        estimators = (
            SamplerSpec(kind="independence"),
            SamplerSpec(kind="gaussian"),
            SamplerSpec(kind="empirical", bandwidth_mode="fixed", sigma=0.1),
        )
        report = _desk_experiment(rho=0.0, estimators=estimators, seed=4100, gamma=10.0)
        assert report.mae["empirical-0.1"] < report.mae["gaussian"], report.mae
        print(f"    gamma=10: " + ", ".join(f"{k}={v:.4f}" for k, v in report.mae.items()))


def test_criterion_08_sigma_infinity_limit():
    with criterion(8, "sigma -> infinity empirical equals deterministic independence"):
        train = TrainingMatrix.from_data(
            GaussianFeatures.equicorrelated(3, 0.4).sample(800, np.random.default_rng(5000))
        )
        y = linear_sampling_model(train.data, rng_seed=5001)
        predictor = fit_ols(train, y)
        rng = np.random.default_rng(5002)
        test_x = rng.multivariate_normal(np.zeros(3), train.covariance, size=10)
        for x_star in test_x:
            for s in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
                v_emp = estimate_v_empirical(
                    train,
                    predictor,
                    s,
                    x_star,
                    sigma=1e6,
                    eta=1.0 - 1e-12,
                    k_cap=train.n,
                )
                v_ind = estimate_v_independent_full(train, predictor, s, x_star)
                assert abs(v_emp - v_ind) <= 1e-6


def test_criterion_09_aicc_fast_path_audit():
    with criterion(9, "hat-matrix AICc equals the naive double loop (1e-10)"):
        train = TrainingMatrix.from_data(
            GaussianFeatures.equicorrelated(3, 0.6).sample(500, np.random.default_rng(6000))
        )
        y = linear_sampling_model(train.data, rng_seed=6001)
        predictor = fit_ols(train, y)
        x_star = np.array([0.4, -0.2, 0.9])
        s = (0, 1)
        n = 100
        sub = train.data[np.linspace(0, train.n - 1, n).round().astype(int)]

        # Naive distances with an explicit matrix inverse.
        inv = np.linalg.inv(train.covariance[np.ix_(s, s)])
        d2 = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                diff = sub[i, list(s)] - sub[j, list(s)]
                d2[i, j] = float(diff @ inv @ diff) / len(s)

        synth = np.array(sub, copy=True)
        synth[:, list(s)] = x_star[list(s)]
        responses = predictor(synth)

        for sigma in (0.1, 0.5, 2.0):
            w = np.exp(-d2 / (2 * sigma**2))
            hat = w.copy()  # _smooth, as the AICc search runs it, on a copy of the kernel
            tr_fast, phi_fast = _smooth(hat)
            tau_fast = float(np.mean((responses - hat @ responses) ** 2))
            h = np.zeros((n, n))
            for i in range(n):
                denom = sum(w[i, l] for l in range(n))
                for j in range(n):
                    h[i, j] = w[i, j] / denom
            fitted = h @ responses
            tau_naive = float(np.mean((responses - fitted) ** 2))
            tr_naive = float(np.trace(h))
            assert abs(tau_fast - tau_naive) <= 1e-10
            assert abs(tr_fast - tr_naive) <= 1e-10
            denom_phi = 1 - (tr_naive + 2) / n
            if denom_phi > 0:
                assert abs(phi_fast - (1 + tr_naive / n) / denom_phi) <= 1e-10

        # The vectorized distance path matches the naive quadratic form.
        d_fast = scaled_mahalanobis(
            TrainingMatrix.from_data(train.data), s, x_star
        )
        diff = train.data[:, list(s)] - x_star[list(s)]
        d_naive = np.sqrt(np.einsum("ij,jk,ik->i", diff, inv, diff) / len(s))
        assert np.all(np.abs(d_fast - d_naive) <= 1e-9)


def test_criterion_10_kendall_and_clustering():
    with criterion(10, "fast tau == naive; linkage hand trace; planted blocks"):
        rng = np.random.default_rng(7000)
        for case in range(1000):
            n = int(rng.integers(2, 60))
            if case % 2:
                x = rng.integers(-3, 4, size=n).astype(float)
                z = rng.integers(-2, 3, size=n).astype(float)
            else:
                x = rng.standard_normal(n)
                z = rng.standard_normal(n)
            assert kendall_tau(x, z) == pytest.approx(kendall_tau_naive(x, z), abs=1e-12)

        from condshap.grouping import DissimilarityMatrix

        d = DissimilarityMatrix(
            d=np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]]),
            column_names=("x1", "x2", "x3"),
        )
        tree = complete_linkage(d)
        assert tree.merges[0] == (0, 1, 0.1)
        assert tree.merges[1] == (2, 3, 0.9)

        # 28 features in planted correlated blocks.
        blocks = [tuple(range(a, b)) for a, b in
                  [(0, 3), (3, 8), (8, 12), (12, 17), (17, 22), (22, 28)]]
        n = 2000
        data = np.empty((n, 28))
        for block in blocks:
            latent = rng.standard_normal(n)
            for j in block:
                data[:, j] = latent + 0.15 * rng.standard_normal(n)
        dm = dissimilarity(TrainingMatrix.from_data(data))
        cut = kgs_cut(dm, alpha=1.0)
        assert sorted(cut.groups, key=min) == [tuple(b) for b in blocks]


def test_criterion_11_efficiency_at_write(tmp_path):
    with criterion(11, "every persisted record satisfies the efficiency identity"):
        import csv as csv_mod
        import sys
        import textwrap

        from click.testing import CliRunner

        from condshap.shell.cli import main
        from condshap.shell.io import read_numeric_csv

        rng = np.random.default_rng(8000)
        cov = np.full((3, 3), 0.6)
        np.fill_diagonal(cov, 1.0)
        x = rng.multivariate_normal(np.zeros(3), cov, size=400)
        y = x.sum(axis=1) + 0.1 * rng.standard_normal(400)
        train = tmp_path / "train.csv"
        with train.open("w", newline="") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(["f1", "f2", "f3", "resp"])
            for row, target in zip(x, y):
                writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
        test = tmp_path / "test.csv"
        with test.open("w", newline="") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(["f1", "f2", "f3"])
            for row in x[:6]:
                writer.writerow([repr(float(v)) for v in row])

        mean_model = tmp_path / "mean_model.py"
        mean_model.write_text(
            textwrap.dedent(
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
            ),
            encoding="utf-8",
        )

        runner = CliRunner()
        runs = [
            ["--model", "ols", "--estimator", "gaussian", "--output", str(tmp_path / "r1")],
            ["--model", "stumps", "--estimator", "empirical-0.1", "--output", str(tmp_path / "r2")],
            ["--model", "ols", "--estimator", "empirical-0.1+copula", "--cluster-alpha", "1.0",
             "--output", str(tmp_path / "r3")],
            ["--model", "external", "--model-command", f"{sys.executable} -u {mean_model}",
             "--estimator", "original", "--output", str(tmp_path / "r4")],
        ]
        checked = 0
        for extra in runs:
            result = runner.invoke(
                main,
                [
                    "explain",
                    "--train", str(train),
                    "--test", str(test),
                    "--response", "resp",
                    "--k", "300",
                    "--seed", "17",
                ]
                + extra,
            )
            assert result.exit_code == 0, result.output
            prefix = extra[extra.index("--output") + 1]
            header, matrix = read_numeric_csv(prefix + ".csv")
            phi_cols = [i for i, h in enumerate(header) if h.startswith("phi_")]
            phi0 = matrix[:, header.index("phi0")]
            prediction = matrix[:, header.index("prediction")]
            total = phi0 + matrix[:, phi_cols].sum(axis=1)
            gaps = np.abs(total - prediction)
            tol = 1e-6 * np.maximum(1.0, np.abs(prediction))
            assert np.all(gaps <= tol)
            checked += len(matrix)
        assert checked == 4 * 6
