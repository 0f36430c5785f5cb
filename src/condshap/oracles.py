"""Ground-truth Shapley computation for the simulation experiments.

Three routes: closed forms for linear predictors, tensor-product
Gauss-Legendre quadrature of the conditional-expectation integral for low
dimensions, and Monte Carlo integration with exact conditional samplers for
moderate dimensions.  Quadrature grids go to the model in chunks of at most
``CHUNK_ROWS`` (32,768) rows, so memory no longer grows with points**3
beyond one float per grid point.  Each chunk is written straight into one
model batch from the tensor structure: its row range splits into at most
2d - 1 boxes in which the leading axes are fixed, one axis takes a range
and the later axes run in full, and each box's node columns and weight
products are written by broadcasting, with no per-row index arithmetic.
The component densities a chunk is weighted by are factored once per
component, when the distribution builds them; the base and the doubled
grid share one set of components.  Feature distributions enter through a
small handle protocol (see :mod:`condshap.simlab.distributions`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

import numpy as np

from .coalitions import (
    Coalition,
    ContributionVector,
    exact_shapley,
    shapley_coefficient_map,
    _ordered_subsets,
)
from .errors import QuadratureConvergenceError
from .samplers import Predictor, call_predictor


class FeatureDistribution(Protocol):
    """What the oracles need from a feature distribution."""

    @property
    def dim(self) -> int: ...

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    def conditional_sample(
        self, s: Coalition, x_s: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray: ...

    def conditional_components(
        self, s: Coalition, x_s: np.ndarray
    ) -> list["QuadratureComponent"]: ...


@dataclass
class QuadratureComponent:
    """One integrable piece of a (possibly mixture) conditional density.

    The integration box is [center - hw*sd, center + hw*sd] per coordinate
    unless explicit ``lo``/``hi`` bounds are given (heavy- or skew-tailed
    laws need wider, asymmetric boxes than a Gaussian rule of thumb).
    """

    weight: float
    center: np.ndarray  # per-coordinate location used for the grid box
    sd: np.ndarray  # per-coordinate spread used for the grid box
    density: Callable[[np.ndarray], np.ndarray]  # vectorized pdf on (n, d) points
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None


@dataclass
class LinearModelSpec:
    """Intercept, coefficients, and feature means of a linear predictor."""

    beta0: float
    beta: np.ndarray
    feature_mean: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, float).reshape(-1)
        self.feature_mean = np.asarray(self.feature_mean, float).reshape(-1)
        if self.beta.shape != self.feature_mean.shape:
            raise ValueError("beta and feature_mean must have equal length")

    @property
    def m(self) -> int:
        return self.beta.shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.beta0 + np.atleast_2d(x) @ self.beta


@dataclass
class TrueShapleyResult:
    """Reference Shapley values with method metadata."""

    phi0: float
    phi: np.ndarray
    method: str
    mc_std_error: np.ndarray | None = None
    grid: dict = field(default_factory=dict)

    @property
    def prediction(self) -> float:
        return self.phi0 + float(np.sum(self.phi))


def linear_independent_shapley(
    model: LinearModelSpec, x_star: np.ndarray
) -> TrueShapleyResult:
    """Closed form under independent features: phi_j = beta_j (x_j* - E[x_j])."""
    x_star = np.asarray(x_star, float).reshape(-1)
    phi0 = model.beta0 + float(np.dot(model.beta, model.feature_mean))
    phi = model.beta * (x_star - model.feature_mean)
    return TrueShapleyResult(phi0=phi0, phi=phi, method="closed_form")


def linear_dependent_v(
    model: LinearModelSpec,
    cond_mean: Callable[[Coalition, np.ndarray], np.ndarray],
    s: Iterable[int],
    x_star: np.ndarray,
) -> float:
    """v(S) for a linear predictor: evaluate f at the conditional mean.

    ``cond_mean(s, x_s)`` must return E[x_sbar | x_s] ordered by the
    complement indices.
    """
    s = tuple(sorted(s))
    x_star = np.asarray(x_star, float).reshape(-1)
    m = model.m
    point = np.array(x_star, copy=True)
    sbar = [j for j in range(m) if j not in s]
    if sbar:
        point[sbar] = np.asarray(cond_mean(s, x_star[list(s)]), float).reshape(-1)
    return float(model.predict(point[None, :])[0])


def linear_dependent_shapley(
    model: LinearModelSpec,
    cond_mean: Callable[[Coalition, np.ndarray], np.ndarray],
    x_star: np.ndarray,
    mean_prediction: float | None = None,
) -> TrueShapleyResult:
    """Exact Shapley values of a linear predictor under dependent features."""
    x_star = np.asarray(x_star, float).reshape(-1)
    m = model.m

    def v(s: Coalition) -> float:
        if len(s) == 0:
            if mean_prediction is not None:
                return mean_prediction
            return model.beta0 + float(np.dot(model.beta, model.feature_mean))
        return linear_dependent_v(model, cond_mean, s, x_star)

    table = ContributionVector.from_function(m, v)
    ex = exact_shapley(table, m)
    return TrueShapleyResult(phi0=ex.phi0, phi=ex.phi, method="closed_form")


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


#: Half-width of a component's integration box, in its standard deviations.
HALF_WIDTH_SDS = 8.0
#: Largest change the doubled grid may make (to any phi_j, or to E[f(x)]).
REFINE_TOL = 1e-4
#: Largest integration dimension the tensor grid is used for.
MAX_DIM = 3
#: Most grid rows sent to a component density or the model in one call.
CHUNK_ROWS = 2 ** 15


@dataclass(frozen=True)
class GridSpec:
    """Tensor Gauss-Legendre quadrature settings."""

    points_per_axis: int = 64
    refine: bool = True


@functools.lru_cache(maxsize=None)
def gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``points``-node Gauss-Legendre rule on [-1, 1], built once per count.

    Every caller shares the arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _component_integral(
    predictor: Predictor,
    s: Coalition,
    x_star: np.ndarray,
    comp: QuadratureComponent,
    m: int,
    points: int,
) -> float:
    """Integral of f(x_sbar, x_s*) times the component density over its box.

    The tensor grid goes to the density and the model ``CHUNK_ROWS`` rows at
    a time; the weighted terms are summed once, over the whole grid, so the
    value does not depend on the chunk size.
    """
    sbar = [j for j in range(m) if j not in s]
    d = len(sbar)
    nodes, weights = gauss_legendre(points)
    tail_nodes, tail_weights = gauss_legendre(max(points // 2, 8))
    axes_nodes, axes_weights = [], []
    for i in range(d):
        core_lo = comp.center[i] - HALF_WIDTH_SDS * comp.sd[i]
        core_hi = comp.center[i] + HALF_WIDTH_SDS * comp.sd[i]
        lo = comp.lo[i] if comp.lo is not None else core_lo
        hi = comp.hi[i] if comp.hi is not None else core_hi
        core_lo, core_hi = max(lo, core_lo), min(hi, core_hi)
        # Composite rule: a dense panel over the bulk, coarser tail panels.
        panels = [(core_lo, core_hi, nodes, weights)]
        if lo < core_lo:
            panels.insert(0, (lo, core_lo, tail_nodes, tail_weights))
        if hi > core_hi:
            panels.append((core_hi, hi, tail_nodes, tail_weights))
        xs, ws = [], []
        for a, b, pn, pw in panels:
            xs.append(0.5 * (b - a) * pn + 0.5 * (b + a))
            ws.append(0.5 * (b - a) * pw)
        axes_nodes.append(np.concatenate(xs))
        axes_weights.append(np.concatenate(ws))
    size = math.prod(len(axis) for axis in axes_nodes)
    terms = np.empty(size)
    # One model batch and one weight buffer, reused by every chunk: the x*_S
    # columns are set once.
    batch = np.empty((min(CHUNK_ROWS, size), m))
    batch[:, list(s)] = x_star[list(s)]
    weights_buf = np.empty(batch.shape[0])
    for start in range(0, size, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, size)
        synth, wts = batch[: stop - start], weights_buf[: stop - start]
        _fill_grid_rows(synth, sbar, wts, axes_nodes, axes_weights, start, stop)
        dens = np.asarray(comp.density(synth[:, sbar]), float).reshape(-1)
        terms[start:stop] = wts * dens * call_predictor(predictor, synth)
    return float(np.sum(terms))


def _grid_boxes(shape: tuple[int, ...], start: int, stop: int, lead: tuple[int, ...] = ()):
    """Split rows [start, stop) of the C-order grid of ``shape`` into boxes.

    Yields ``(lead, lo, hi)`` in row order: the first ``len(lead)`` axes are
    fixed at the indices ``lead``, axis ``len(lead)`` runs over [lo, hi) and
    the later axes run in full.  A range needs at most 2 len(shape) - 1 boxes.
    """
    block = math.prod(shape[len(lead) + 1 :])  # rows per index of this axis
    first, head = divmod(start, block)
    last, tail = divmod(stop, block)
    if first == last:  # inside one slice of this axis
        if head < tail:
            yield from _grid_boxes(shape, head, tail, lead + (first,))
        return
    if head:
        yield from _grid_boxes(shape, head, block, lead + (first,))
        first += 1
    if first < last:
        yield lead, first, last
    if tail:
        yield from _grid_boxes(shape, 0, tail, lead + (last,))


def _fill_grid_rows(
    batch: np.ndarray,
    cols: list[int],
    wts: np.ndarray,
    axes_nodes: list[np.ndarray],
    axes_weights: list[np.ndarray],
    start: int,
    stop: int,
) -> None:
    """Write rows [start, stop) of the tensor grid into ``batch`` and ``wts``.

    Axis j's node goes to column ``cols[j]`` of ``batch`` and the weight
    product ((w0 * w1) * w2) to ``wts``, both from row 0, one box of
    :func:`_grid_boxes` at a time by broadcasting.  Each element goes
    through the same operations as a gather at its unravelled index would.
    """
    shape = tuple(len(axis) for axis in axes_nodes)
    d = len(shape)
    row = 0
    for lead, lo, hi in _grid_boxes(shape, start, stop):
        k = len(lead)
        box = (hi - lo,) + shape[k + 1 :]
        rows = math.prod(box)
        block = batch[row : row + rows].reshape(box + (batch.shape[1],))
        box_weights = []
        for j, (col, nodes, weights) in enumerate(zip(cols, axes_nodes, axes_weights)):
            if j < k:
                node, weight = nodes[lead[j]], weights[lead[j]]
            else:
                # Axis j of the grid is axis j - k of the box.
                part = slice(lo, hi) if j == k else slice(None)
                along = (-1,) + (1,) * (d - 1 - j)
                node, weight = nodes[part].reshape(along), weights[part].reshape(along)
            block[..., col] = node
            box_weights.append(weight)
        wts[row : row + rows].reshape(box)[...] = functools.reduce(np.multiply, box_weights)
        row += rows


def _coalition_components(
    dist: FeatureDistribution, x_star: np.ndarray, v_empty: float | None
) -> dict[Coalition, list[QuadratureComponent]]:
    """The components of every coalition that needs an integral, built once
    and shared by the base and the doubled grid."""
    m = dist.dim
    return {
        s: dist.conditional_components(s, x_star[list(s)])
        for s in _ordered_subsets(m)
        if len(s) < m and (s or v_empty is None)
    }


def _quadrature_v_table(
    predictor: Predictor,
    x_star: np.ndarray,
    components: dict[Coalition, list[QuadratureComponent]],
    points: int,
    v_empty: float | None,
) -> dict[Coalition, float]:
    m = x_star.shape[0]
    table: dict[Coalition, float] = {}
    for s in _ordered_subsets(m):
        if len(s) == m:
            table[s] = float(call_predictor(predictor, x_star[None, :])[0])
        elif s in components:
            table[s] = sum(
                comp.weight * _component_integral(predictor, s, x_star, comp, m, points)
                for comp in components[s]
            )
        else:
            table[s] = v_empty
    return table


def quadrature_mean_prediction(
    dist: FeatureDistribution,
    predictor: Predictor,
    grid_spec: GridSpec = GridSpec(),
) -> float:
    """The unconditional mean prediction E[f(x)], shared by every instance.

    Runs at the base and doubled resolution when refinement is on and fails
    if the value has not stabilized.
    """
    m = dist.dim
    comps = dist.conditional_components((), np.empty(0))

    def integral(points: int) -> float:
        return sum(
            comp.weight
            * _component_integral(predictor, (), np.zeros(m), comp, m, points)
            for comp in comps
        )

    value = integral(grid_spec.points_per_axis)
    if grid_spec.refine:
        fine = integral(2 * grid_spec.points_per_axis)
        if abs(fine - value) >= REFINE_TOL:
            raise QuadratureConvergenceError(
                f"mean-prediction quadrature not converged: shift {abs(fine - value):.3e}",
                {(): abs(fine - value)},
            )
        value = fine
    return value


def true_shapley_quadrature(
    dist: FeatureDistribution,
    predictor: Predictor,
    x_star: np.ndarray,
    grid_spec: GridSpec = GridSpec(),
    v_empty: float | None = None,
) -> TrueShapleyResult:
    """Exact-conditional quadrature of v(S) for every coalition, aggregated
    by the combinatorial Shapley formula.

    With ``refine`` enabled the grid is doubled once and the run fails if any
    phi_j moves by more than ``REFINE_TOL``.  ``v_empty`` injects a
    precomputed mean prediction (it is instance-independent; see
    :func:`quadrature_mean_prediction`).
    """
    m = dist.dim
    if m - 1 > MAX_DIM:
        raise ValueError(f"quadrature limited to integration dimension {MAX_DIM}")
    x_star = np.asarray(x_star, float).reshape(-1)
    components = _coalition_components(dist, x_star, v_empty)
    table = _quadrature_v_table(
        predictor, x_star, components, grid_spec.points_per_axis, v_empty
    )
    ex = exact_shapley(ContributionVector(m=m, values=table), m)
    grid_meta = {
        "points_per_axis": grid_spec.points_per_axis,
        "half_width_sds": HALF_WIDTH_SDS,
        "refined": False,
    }
    if grid_spec.refine:
        fine = _quadrature_v_table(
            predictor, x_star, components, 2 * grid_spec.points_per_axis, v_empty
        )
        ex_fine = exact_shapley(ContributionVector(m=m, values=fine), m)
        delta = np.abs(ex_fine.phi - ex.phi)
        if np.max(delta) >= REFINE_TOL:
            residuals = {s: abs(fine[s] - table[s]) for s in table}
            raise QuadratureConvergenceError(
                f"quadrature not converged: max phi shift {np.max(delta):.3e} "
                f">= {REFINE_TOL:g}",
                residuals,
            )
        ex = ex_fine
        grid_meta.update(
            {
                "points_per_axis": 2 * grid_spec.points_per_axis,
                "refined": True,
                "max_phi_shift": float(np.max(delta)),
            }
        )
    return TrueShapleyResult(
        phi0=ex.phi0, phi=ex.phi, method="quadrature", grid=grid_meta
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def true_shapley_mc(
    dist: FeatureDistribution,
    predictor: Predictor,
    x_star: np.ndarray,
    n_mc: int,
    rng_seed,
) -> TrueShapleyResult:
    """Monte Carlo v(S) with exact conditional draws; per-feature standard
    errors propagated through the combinatorial weights."""
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2")
    m = dist.dim
    x_star = np.asarray(x_star, float).reshape(-1)
    subsets = _ordered_subsets(m)
    v_est: dict[Coalition, float] = {}
    v_var: dict[Coalition, float] = {}
    for idx, s in enumerate(subsets):
        rng = np.random.default_rng([fold_seed(rng_seed), idx])
        if len(s) == m:
            v_est[s] = float(call_predictor(predictor, x_star[None, :])[0])
            v_var[s] = 0.0
            continue
        if len(s) == 0:
            draws = dist.sample(n_mc, rng)
            preds = call_predictor(predictor, draws)
        else:
            sbar = [j for j in range(m) if j not in s]
            cond = dist.conditional_sample(s, x_star[list(s)], n_mc, rng)
            synth = np.tile(x_star, (n_mc, 1))
            synth[:, sbar] = cond
            preds = call_predictor(predictor, synth)
        v_est[s] = float(preds.mean())
        v_var[s] = float(preds.var(ddof=1) / n_mc)
    ex = exact_shapley(ContributionVector(m=m, values=v_est), m)
    coeff = shapley_coefficient_map(m)
    se = np.zeros(m)
    for j in range(m):
        se[j] = np.sqrt(sum(c * c * v_var[s] for s, c in coeff[j].items()))
    return TrueShapleyResult(
        phi0=ex.phi0,
        phi=ex.phi,
        method="monte_carlo",
        mc_std_error=se,
        grid={"n_mc": n_mc},
    )


def fold_seed(rng_seed) -> int:
    """Fold an int or a sequence of ints into one stable integer seed."""
    if isinstance(rng_seed, (int, np.integer)):
        return int(rng_seed)
    acc = 0
    for part in rng_seed:
        acc = (acc * 1000003 + int(part)) % (2 ** 63)
    return acc
