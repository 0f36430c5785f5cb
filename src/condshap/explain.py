"""End-to-end explanation pipeline: coalition design + sampler + WLS solve.

One :class:`Explainer` holds everything reusable across instances: the
coalition design, the solver factorization, the mean training prediction and
the fitted sampler.  v(empty) and v(N) are exact and set here; the sampler
estimates the proper coalitions.  It keeps one conditioning plan per
coalition (the ridge, the Cholesky factor of Sigma_SS, the regression
matrix, and the conditional covariance with its eigen-factor) in the plan
table of its covariance: the training matrix's, shared by every explainer
on it, or the copula's latent one.  The first instance, or an AICc
estimator's first bandwidth search, hands the design's coalitions to the
sampler, whose tables build every missing plan in one stacked LAPACK pass
per coalition size; nothing is built when the explainer is made.  The
Gaussian and copula parts take
their conditional means from a plan's regression matrix, without a solve,
and the empirical and AICc distances whiten by its inverse factor
W = L^{-1}, made once per plan, with one product.  AICc bandwidths depend
on the instance; :meth:`Explainer.explain` searches them for a block of
instances at once (:meth:`Explainer.explain_one` for a block of one),
coalition by coalition, so that each kernel and hat matrix is built once
per block.  Randomness is
derived per instance: the Gaussian and copula coalitions draw their normals
in turn from one stream of the instance, and the independence part draws
training rows per (seed, instance, coalition row).  So blocked and
one-by-one runs, runs in any instance order, and runs that build the plans
in any order give identical results.
"""

from __future__ import annotations

import warnings

import numpy as np

from .coalitions import (
    Coalition,
    ENUMERATION_CAP,
    Explanation,
    WlsSolver,
    enumerate_coalitions,
    sample_coalitions,
)
from .errors import ConfigError, DiagnosticWarning
from .samplers import (
    FittedSampler,
    Predictor,
    SamplerSpec,
    TrainingMatrix,
    call_predictor,
    mean_training_prediction,
)


def instance_stream(seed: int, instance_index: int) -> np.random.SeedSequence:
    """The seed sequence of an instance's Gaussian and copula draws: the master
    seed's child with ``spawn_key=(instance_index,)``.

    The per-row streams ``[seed, instance, row]`` carry no spawn key, so
    for every seed below 2^64 (at most two 32-bit words) their entropy is
    at most 4 words long, while this one's is 5 (the seed padded to 4 words,
    then the key).  No per-row stream can equal it.  A plain ``[seed,
    instance]`` would not do: seed sequences pad their entropy with zeros,
    so it equals the stream of row 0.
    """
    return np.random.SeedSequence(seed, spawn_key=(instance_index,))


def check_run(k: int, seed: int, coalition_draws: int) -> None:
    """Raise ConfigError unless an explainer's budget, seed and draw count are valid."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if coalition_draws < 1:
        raise ConfigError(f"coalition_draws must be >= 1, got {coalition_draws}")


class Explainer:
    """Explains individual predictions of one fitted model.

    Parameters
    ----------
    train : fitted sampler training data (also the independence pool).
    predictor : deterministic vectorized model, (n, m) -> (n,).
    spec : contribution estimator choice.
    k : per-coalition sample budget; it also caps the empirical part's rows.
    seed : master seed; all per-instance randomness derives from it.
    coalition_draws : budget for sampled coalitions when m exceeds the
        enumeration cap.
    """

    def __init__(
        self,
        train: TrainingMatrix,
        predictor: Predictor,
        spec: SamplerSpec,
        k: int = 1000,
        seed: int = 0,
        coalition_draws: int = 2048,
    ):
        check_run(k, seed, coalition_draws)
        self.train = train
        self.predictor = predictor
        self.spec = spec
        self.k = int(k)
        self.seed = int(seed)
        m = train.m
        if m <= ENUMERATION_CAP:
            cm = enumerate_coalitions(m)
        else:
            warnings.warn(
                f"m={m} exceeds the enumeration cap {ENUMERATION_CAP}; "
                f"sampling {coalition_draws} coalitions",
                DiagnosticWarning,
                stacklevel=2,
            )
            cm = sample_coalitions(m, coalition_draws, rng_seed=seed)
        self.cm = cm
        self.solver = WlsSolver(cm)
        self.sampler = FittedSampler(spec, train)
        self.mean_prediction = mean_training_prediction(train, predictor)
        self._planned = False

    # -- explanation ---------------------------------------------------------

    def contribution_vector(
        self,
        x_star: np.ndarray,
        instance_index: int = 0,
        sigmas: dict[Coalition, float] | None = None,
    ) -> np.ndarray:
        """Estimated v(S) for every coalition row of the design.

        ``sigmas`` are the instance's kernel bandwidths when already searched
        (as :meth:`explain` does per block); by default they are searched here.
        The first call has the sampler build the plans of the whole design.
        The Gaussian and copula coalitions draw, in row order, from one
        generator seeded by :func:`instance_stream`; the independence part
        draws from the stream (seed, instance, coalition row).
        """
        x_star = np.asarray(x_star, float).reshape(-1)
        cm = self.cm
        v = np.empty(cm.n_rows)
        if sigmas is None:
            sigmas = self.sampler.bandwidths(self.predictor, cm.coalitions, x_star)[0]
        if not self._planned:
            self.sampler.build_plans(cm.coalitions)
            self._planned = True
        draws = self.sampler.instance_draws(x_star, instance_stream(self.seed, instance_index))
        f_star = float(call_predictor(self.predictor, x_star[None, :])[0])
        for i, s in enumerate(cm.coalitions):
            if len(s) == 0:
                v[i] = self.mean_prediction
            elif len(s) == cm.m:
                v[i] = f_star
            else:
                v[i] = self.sampler.contribution(
                    self.predictor,
                    s,
                    x_star,
                    self.k,
                    rng_seed=[self.seed, instance_index, i],
                    sigma=sigmas.get(s),
                    draws=draws,
                )
        return v

    def explain_one(
        self,
        x_star: np.ndarray,
        instance_index: int = 0,
        sigmas: dict[Coalition, float] | None = None,
    ) -> Explanation:
        v = self.contribution_vector(x_star, instance_index, sigmas)
        expl = self.solver.solve(
            v,
            estimator_id=self.spec.label,
            seed=self.seed,
            sample_budget=self.k,
        )
        expl.check_efficiency()
        return expl

    def explain(self, x: np.ndarray) -> list[Explanation]:
        """Explain each row of x; result order matches the input order.

        Rows go in blocks of ``sampler.aicc_block``: the block's bandwidths
        are searched together, then each row is explained on its own.
        """
        x = np.atleast_2d(np.asarray(x, float))
        step = self.sampler.aicc_block
        out: list[Explanation] = []
        for start in range(0, len(x), step):
            block = x[start : start + step]
            sigmas = self.sampler.bandwidths(self.predictor, self.cm.coalitions, block)
            rows = range(start, start + len(block))
            out.extend(map(self.explain_one, block, rows, sigmas))
        return out
