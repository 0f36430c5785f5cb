"""Ground-truth Shapley computation for the simulation experiments.

Three routes: closed forms for linear predictors, tensor-product
Gauss-Legendre quadrature of the conditional-expectation integral for low
dimensions, and Monte Carlo integration with exact conditional samplers for
moderate dimensions.  The closed forms take the fitted model itself (a
:class:`LinearPredictor`, such as :class:`~condshap.simlab.OlsModel`) and
the feature mean.  Quadrature grids go to the model in chunks of at most
``CHUNK_ROWS`` (32,768) rows and are summed chunk by chunk, so an integral
holds a few chunk-sized buffers whatever the number of points per axis.
Each chunk is a box of the grid, in which the leading axes are fixed, one
axis takes a range and the later axes run in full.  Each box is written
once, by broadcasting and with no per-row index arithmetic: the partial
sums of its node columns and weight products stay on their small broadcast
shapes, and only the last axis's step is written, straight into the model
batch and the weight buffer; the weighted terms go into one reused buffer.
The box sums are combined in numpy's pairwise order, so a grid's sum has
the bits of one ``np.sum`` over all its terms (:func:`_streamed_sum`).
Every conditional law reaches the grid as weighted Gaussian components
N(c, F F^T) (one per Gaussian, two per mixture, 48 per GH law over its
mixing variable), and each component is integrated in whitened coordinates:
x_Sbar = c + F u over the standard-normal u, one Gauss-Legendre rule on
+-``HALF_WIDTH_SDS`` per axis whose weights carry phi(u).  No grid point
evaluates a density, so a singular F (a rank-deficient covariance) needs no
inverse, and every axis of every component reads one cached rule.  F is the
factor the distribution draws through; the base and the doubled grid share
one set of components.  Feature distributions enter through a
small handle protocol (see :mod:`condshap.simlab.distributions`).

Every oracle returns an :class:`~condshap.coalitions.Explanation` whose
``estimator_id`` names its method and whose ``diagnostics`` hold the grid
settings or the Monte Carlo standard errors.  The mean prediction E[f(x)]
is integrated by :func:`quadrature_mean_prediction` alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from .coalitions import Coalition, Explanation, exact_shapley, shapley_matrix, _ordered_subsets
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
    """One weighted Gaussian piece N(center, factor factor^T) of a conditional law.

    It is integrated over the standard-normal u with x_Sbar = center +
    factor u, u in [-hw, hw] per axis, hw = ``HALF_WIDTH_SDS``; ``factor``
    may be singular, as the eigen-factor of a rank-deficient covariance is.
    """

    weight: float
    center: np.ndarray  # (d,) mean of the piece
    factor: np.ndarray  # (d, d) F with F F^T its covariance


class LinearPredictor(Protocol):
    """f(x) = beta0 + x beta, as the fitted :class:`~condshap.simlab.OlsModel` is."""

    beta0: float
    beta: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray: ...


def linear_independent_shapley(
    model: LinearPredictor, feature_mean: np.ndarray, x_star: np.ndarray
) -> Explanation:
    """Closed form under independent features: phi_j = beta_j (x_j* - E[x_j])."""
    feature_mean = np.asarray(feature_mean, float).reshape(-1)
    x_star = np.asarray(x_star, float).reshape(-1)
    phi0 = model.beta0 + float(np.dot(model.beta, feature_mean))
    phi = model.beta * (x_star - feature_mean)
    prediction = float(model(x_star)[0])
    return Explanation(phi0=phi0, phi=phi, prediction=prediction, estimator_id="closed_form")


def linear_dependent_v(
    model: LinearPredictor,
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
    point = np.array(x_star, copy=True)
    sbar = [j for j in range(x_star.shape[0]) if j not in s]
    if sbar:
        point[sbar] = np.asarray(cond_mean(s, x_star[list(s)]), float).reshape(-1)
    return float(model(point[None, :])[0])


def linear_dependent_shapley(
    model: LinearPredictor,
    feature_mean: np.ndarray,
    cond_mean: Callable[[Coalition, np.ndarray], np.ndarray],
    x_star: np.ndarray,
) -> Explanation:
    """Exact Shapley values of a linear predictor under dependent features: v(empty)
    is f at ``feature_mean``, every other v(S) f at ``cond_mean``'s E[x_Sbar | x_S]."""
    x_star = np.asarray(x_star, float).reshape(-1)
    mean_prediction = model.beta0 + float(np.dot(model.beta, feature_mean))
    table = [
        linear_dependent_v(model, cond_mean, s, x_star) if s else mean_prediction
        for s in _ordered_subsets(x_star.shape[0])
    ]
    return replace(exact_shapley(np.array(table)), estimator_id="closed_form")


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


#: Half-width of the standard-normal box each component is integrated over.
HALF_WIDTH_SDS = 8.0
#: Largest change the doubled grid may make (to any phi_j, or to E[f(x)]).
REFINE_TOL = 1e-4
#: Largest integration dimension the tensor grid is used for.
MAX_DIM = 3
#: Most Gauss-Legendre points per axis: the doubled 3-D grid then holds 256**3 rows.
MAX_POINTS = 128
#: Most grid rows sent to the model in one call.
CHUNK_ROWS = 2 ** 15


@dataclass(frozen=True)
class GridSpec:
    """Tensor Gauss-Legendre quadrature settings."""

    points_per_axis: int = 64
    refine: bool = True

    def __post_init__(self):
        points = self.points_per_axis
        if not 1 <= points <= MAX_POINTS:
            raise ValueError(f"points_per_axis must be in [1, {MAX_POINTS}], got {points}")


@functools.lru_cache(maxsize=None)
def gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``points``-node Gauss-Legendre rule on [-1, 1], built once per count.

    Every caller shares the arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _whitened_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights (GL weight * hw * phi(u)) of E[g(u)], u ~ N(0, 1),
    on [-hw, hw], hw = ``HALF_WIDTH_SDS``.  Built once per count and read-only,
    like :func:`gauss_legendre`; every axis of every component reads it."""
    nodes, weights = gauss_legendre(points)
    u = HALF_WIDTH_SDS * nodes
    w = weights * HALF_WIDTH_SDS * (np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _law_integral(
    predictor: Predictor,
    s: Coalition,
    x_star: np.ndarray,
    comps: list[QuadratureComponent],
    points: int,
) -> float:
    """E[f(x_sbar, x_s*)] under the law of the weighted components ``comps``.

    Each component's tensor grid goes to the model one box of
    :func:`_grid_chunks` at a time, and each box's weighted terms are summed
    as soon as the model has answered, in the order of one ``np.sum`` over
    the whole grid, so the value does not depend on where the chunks fall.
    The batch, the weights and the terms are one chunk each, reused by every
    box of every component.
    """
    m = x_star.shape[0]
    sbar = [j for j in range(m) if j not in s]
    size = points ** len(sbar)
    # The x*_S columns are set once.
    batch = np.empty((min(CHUNK_ROWS, size), m))
    batch[:, list(s)] = x_star[list(s)]
    weights_buf = np.empty(batch.shape[0])
    terms = np.empty(batch.shape[0])
    total = 0.0
    for comp in comps:
        boxes = _box_terms(predictor, comp, sbar, points, batch, weights_buf, terms)
        total += comp.weight * _streamed_sum(boxes, size)
    return total


def _box_terms(
    predictor: Predictor,
    comp: QuadratureComponent,
    sbar: list[int],
    points: int,
    batch: np.ndarray,
    weights_buf: np.ndarray,
    terms: np.ndarray,
) -> Iterator[np.ndarray]:
    """Yield the weighted terms w f(x) of ``comp``'s grid one box at a time,
    each in the front of ``terms``, which the next box overwrites.

    The model's output is only read: the array may belong to the model.
    """
    d = len(sbar)
    u, w = _whitened_rule(points)
    for box in _grid_chunks((points,) * d):
        rows = _fill_grid_rows(
            batch, sbar, weights_buf, comp.center, comp.factor, [u] * d, [w] * d, *box
        )
        preds = call_predictor(predictor, batch[:rows])
        yield np.multiply(weights_buf[:rows], preds, out=terms[:rows])


#: numpy sums a run of at most this many terms as one leaf of its pairwise tree.
_PAIRWISE_LEAF = 128


class _TermStream:
    """The terms of one sum, read a piece at a time in index order: ``piece``
    holds the terms [lo, hi) and may be overwritten by the next piece."""

    __slots__ = ("pieces", "piece", "lo", "hi")

    def __init__(self, pieces: Iterable[np.ndarray]):
        self.pieces = iter(pieces)
        self.piece = np.empty(0)
        self.lo = self.hi = 0

    def advance(self) -> None:
        self.piece = next(self.pieces)
        self.lo, self.hi = self.hi, self.hi + len(self.piece)


def _streamed_sum(pieces: Iterable[np.ndarray], n: int) -> float:
    """``np.sum`` of the ``n`` float64 terms that ``pieces`` yields in order,
    bit for bit, holding one piece at a time.

    numpy sums a contiguous array pairwise (Higham, SIAM J. Sci. Comput.
    1993): a run of n > 128 terms splits at n2 = n // 2 rounded down to a
    multiple of 8, and a shorter run is one leaf.  The same tree is walked
    over the index range.  A node that lies inside the piece at hand is
    ``np.sum`` of that slice, which runs the same recursion, and a leaf that
    straddles pieces is summed from a copy of its terms.
    """
    return float(_pairwise_sum(_TermStream(pieces), 0, n))


def _pairwise_sum(stream: _TermStream, lo: int, n: int) -> float:
    """numpy's pairwise sum of the terms [lo, lo + n) of ``stream``, whose
    piece at hand starts at or before ``lo``.

    A module-level function, not a closure: a closure that calls itself is a
    reference cycle, which would keep each integral's buffers alive until
    the cyclic collector ran.
    """
    if lo == stream.hi:
        stream.advance()
    if lo + n <= stream.hi:
        return np.sum(stream.piece[lo - stream.lo : lo - stream.lo + n])
    if n > _PAIRWISE_LEAF:
        n2 = n // 2
        n2 -= n2 % 8
        return _pairwise_sum(stream, lo, n2) + _pairwise_sum(stream, lo + n2, n - n2)
    leaf = np.empty(n)
    start = lo
    while True:
        stop = min(stream.hi, lo + n)
        leaf[start - lo : stop - lo] = stream.piece[start - stream.lo : stop - stream.lo]
        if stop == lo + n:
            return np.sum(leaf)
        start = stop
        stream.advance()


def _grid_chunks(shape: tuple[int, ...]):
    """Cut the C-order grid of ``shape`` into boxes of at most ``CHUNK_ROWS`` rows.

    Yields ``(lead, lo, hi)`` in row order: the first ``len(lead)`` axes are
    fixed at the indices ``lead``, axis k = ``len(lead)`` runs over [lo, hi)
    and the later axes run in full.  Axis k is the first whose slices (the
    rows of one of its indices) fit in a chunk, and a box holds as many
    whole slices as fit.
    """
    k = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= CHUNK_ROWS)
    step = CHUNK_ROWS // math.prod(shape[k + 1 :])
    for lead in itertools.product(*map(range, shape[:k])):
        for lo in range(0, shape[k], step):
            yield lead, lo, min(lo + step, shape[k])


def _fill_grid_rows(
    batch: np.ndarray,
    cols: list[int],
    wts: np.ndarray,
    center: np.ndarray,
    factor: np.ndarray,
    axes_nodes: list[np.ndarray],
    axes_weights: list[np.ndarray],
    lead: tuple[int, ...],
    lo: int,
    hi: int,
) -> int:
    """Write the box ``(lead, lo, hi)`` of :func:`_grid_chunks` into ``batch`` and ``wts``.

    With u_i the node of grid axis i, column ``cols[j]`` of ``batch`` gets
    ((center[j] + factor[j, 0] u_0) + factor[j, 1] u_1) + ..., and ``wts``
    the weight product ((w0 * w1) * w2), both from row 0, by broadcasting.
    Term by term, not by a BLAS product (whose rounding of a row may depend
    on the rows with it), each element goes through the operations of a
    gather at its unravelled index, so its bits do not depend on the chunk.
    Returns the box's row count.
    """
    d, k = len(axes_nodes), len(lead)
    box = (hi - lo,) + tuple(len(axis) for axis in axes_nodes[k + 1 :])
    rows = math.prod(box)
    block = batch[:rows].reshape(box + (batch.shape[1],))
    # Axis j < k is fixed at lead[j]; axis j >= k of the grid is axis j - k of the box.
    index = (*lead, slice(lo, hi)) + (slice(None),) * (d - k - 1)
    along = [() if j < k else (-1,) + (1,) * (d - 1 - j) for j in range(d)]
    box_nodes = [a[i].reshape(shape) for a, i, shape in zip(axes_nodes, index, along)]
    box_weights = [a[i].reshape(shape) for a, i, shape in zip(axes_weights, index, along)]
    # Partial sums and products stay on small broadcast shapes; only the last
    # axis's step spans the box, and it is written straight into its buffer.
    for col, start, row in zip(cols, center, factor):
        value = start
        for coef, node in zip(row[:-1], box_nodes[:-1]):
            value = value + coef * node
        np.add(value, row[-1] * box_nodes[-1], out=block[..., col])
    # Seeded with 1.0, whose product with w0 is w0 exactly, so a 1-D box needs no branch.
    lead_weight = functools.reduce(np.multiply, box_weights[:-1], 1.0)
    np.multiply(lead_weight, box_weights[-1], out=wts[:rows].reshape(box))
    return rows


def _quadrature_v_table(
    predictor: Predictor,
    x_star: np.ndarray,
    components: dict[Coalition, list[QuadratureComponent]],
    points: int,
    v_empty: float,
    v_full: float,
) -> np.ndarray:
    """v(S) of every coalition, in the row order of ``enumerate_coalitions(m)``;
    v(empty) and v(full) = f(x*) are given."""
    m = x_star.shape[0]
    table = np.empty(2 ** m)
    for i, s in enumerate(_ordered_subsets(m)):
        if not s:
            table[i] = v_empty
        elif len(s) == m:
            table[i] = v_full
        else:
            table[i] = _law_integral(predictor, s, x_star, components[s], points)
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
    comps = dist.conditional_components((), np.empty(0))
    origin = np.zeros(dist.dim)
    value = _law_integral(predictor, (), origin, comps, grid_spec.points_per_axis)
    if grid_spec.refine:
        fine = _law_integral(predictor, (), origin, comps, 2 * grid_spec.points_per_axis)
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
) -> Explanation:
    """Exact-conditional quadrature of v(S) for every coalition, aggregated
    by the combinatorial Shapley formula.

    With ``refine`` enabled the grid is doubled once and the run fails if any
    phi_j moves by more than ``REFINE_TOL``.  ``v_empty`` is the mean
    prediction E[f(x)], which is the same for every instance; when it is not
    given, :func:`quadrature_mean_prediction` computes it.  The grid settings
    go to ``diagnostics``.
    """
    m = dist.dim
    if m - 1 > MAX_DIM:
        raise ValueError(f"quadrature limited to integration dimension {MAX_DIM}")
    x_star = np.asarray(x_star, float).reshape(-1)
    if v_empty is None:
        v_empty = quadrature_mean_prediction(dist, predictor, grid_spec)
    # Built once, shared by the base and the doubled grid.
    components = {
        s: dist.conditional_components(s, x_star[list(s)])
        for s in _ordered_subsets(m)
        if 0 < len(s) < m
    }
    # f(x*) once, shared by the base and the doubled grid.
    v_full = float(call_predictor(predictor, x_star[None, :])[0])
    points = grid_spec.points_per_axis
    table = _quadrature_v_table(predictor, x_star, components, points, v_empty, v_full)
    ex = exact_shapley(table)
    grid_meta = {"points_per_axis": points, "half_width_sds": HALF_WIDTH_SDS, "refined": False}
    if grid_spec.refine:
        fine = _quadrature_v_table(predictor, x_star, components, 2 * points, v_empty, v_full)
        ex_fine = exact_shapley(fine)
        shift = float(np.max(np.abs(ex_fine.phi - ex.phi)))
        if shift >= REFINE_TOL:
            raise QuadratureConvergenceError(
                f"quadrature not converged: max phi shift {shift:.3e} >= {REFINE_TOL:g}",
                dict(zip(_ordered_subsets(m), np.abs(fine - table).tolist())),
            )
        ex = ex_fine
        grid_meta.update(points_per_axis=2 * points, refined=True, max_phi_shift=shift)
    return replace(ex, estimator_id="quadrature", diagnostics=grid_meta)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def true_shapley_mc(
    dist: FeatureDistribution,
    predictor: Predictor,
    x_star: np.ndarray,
    n_mc: int,
    rng_seed,
) -> Explanation:
    """Monte Carlo v(S) with exact conditional draws.

    The per-feature standard errors, sqrt((C * C) @ var) for C =
    ``shapley_matrix(m)`` and the variance of each v(S) estimate, go to
    ``diagnostics["mc_std_error"]``.
    """
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2")
    m = dist.dim
    x_star = np.asarray(x_star, float).reshape(-1)
    subsets = _ordered_subsets(m)
    v_est = np.empty(len(subsets))
    v_var = np.zeros(len(subsets))
    for idx, s in enumerate(subsets):
        rng = np.random.default_rng([fold_seed(rng_seed), idx])
        if len(s) == m:
            v_est[idx] = float(call_predictor(predictor, x_star[None, :])[0])
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
        v_est[idx] = float(preds.mean())
        v_var[idx] = float(preds.var(ddof=1) / n_mc)
    c = shapley_matrix(m)
    se = np.sqrt((c * c) @ v_var)
    return replace(
        exact_shapley(v_est),
        estimator_id="monte_carlo",
        diagnostics={"n_mc": n_mc, "mc_std_error": se},
    )


def fold_seed(rng_seed) -> int:
    """Fold an int or a sequence of ints into one stable integer seed."""
    if isinstance(rng_seed, (int, np.integer)):
        return int(rng_seed)
    acc = 0
    for part in rng_seed:
        acc = (acc * 1000003 + int(part)) % (2 ** 63)
    return acc
