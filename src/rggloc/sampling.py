"""Conditional and rare-event sampling for the s-graded edge count.

Three routes to the upper tail:
  * rejection under the conditioning event (feasible only near the bulk),
  * exponentially tilted "planted clique-set" importance sampling following
    the lower-bound construction (cell means on a maximal clique set raised
    to D'), with exact likelihood ratios and a half/half mixture proposal so
    weights stay bounded by 2,
  * exact enumeration on tiny grids as an unbiasedness oracle.

Every lattice replica here comes from one chunked loop, `_replicas`, which
redraws each chunk into one float32 work buffer and yields its counts,
mixture log weights and |E_s|; a chunk whose |E_s| float32 cannot certify
exact is drawn again from the same streams into a float64 buffer.  On
grids of at most 512 cells chunk c is 65536 replicas from the stream
(seed, c); above, a chunk is floor(2^19 / m^d) rows and replica k is a row
drawn alone from the stream (seed, k), all the chunk's rows counted by one
`grid._draw_cells` call and contracted by one `grid._sgraded_edge_counts`.  The importance estimator
draws its chunks with the tilt, rejection sampling and the rejection
estimate without it.  `planted_cell_sampler` is a draw of one, planted
whatever its coin, so on grids of more than 512 cells it is replica k of
the estimator; `sample_cell_config` is the same stream's base points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .geometry import torus_distance
from .grid import (
    CellConfig,
    GridModel,
    _draw_cells,
    _sgraded_edge_counts,
    sample_cell_config,
)
from .points import ModelParams, PointSet
from .stats import derived_scales, exact_poisson_tail, log_poisson_pmf, z_exponent

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class WeightedSample:
    config: CellConfig
    log_weight: float
    anchor: tuple  # the planted clique set's anchor cell; () for a nominal draw

    @property
    def component(self) -> str:
        return "planted" if self.anchor else "nominal"


@dataclass(frozen=True)
class TailEstimate:
    t: float
    log_prob: float
    std_err: float  # probability scale; may underflow to 0 for extreme tails
    rel_std_err: float  # delta-method sigma on the log scale
    n_replicas: int
    method: str  # "rejection" | "importance" | "exact"
    threshold: float
    unreliable: bool = False
    truncation_error: float = 0.0
    ess: float = 0.0  # effective sample size (sum w)^2 / sum w^2 over the hits
    n_hits: int = 0  # replicas in the event


def _planted_mean(grid: GridModel, t: float) -> float:
    """D' = (sqrt(2 t mu_s) + n^z) / tau_s."""
    scales = derived_scales(grid, delta_tilde=t)
    return (math.sqrt(2.0 * t * grid.mu_s) + scales.n_z) / grid.tau_s


def _log_ratio_nominal_over_tilted(S, D: float, Dp: float, tau_s: int):
    """log of prod Poisson(D)/Poisson(D') over the clique set, S = sum of counts
    (an int, or an array of them)."""
    return S * math.log(D / Dp) + tau_s * (Dp - D)


def _mixture_log_weight(S, D: float, Dp: float, tau_s: int):
    """log of f / (f/2 + g/2) given the clique-set count sum under either component."""
    lr = _log_ratio_nominal_over_tilted(S, D, Dp, tau_s)
    return LOG2 - np.logaddexp(0.0, -lr)


def planted_cell_sampler(
    grid: GridModel,
    t: float,
    seed: int,
    replica: int = 0,
) -> WeightedSample:
    """One tilted draw: means raised to D' on a uniformly translated clique set.

    It is the draw `importance_estimate_tail` makes for this replica on a grid
    of more than 512 cells, planted whatever its coin says: from
    `rng.generator(seed, replica)`, the coin, the anchor, the base points and
    the clique set's extra points (`grid._draw_cells`).  If D' <= D it warns
    and returns `sample_cell_config(grid, seed, replica)` with weight 1."""
    if t <= 0:
        raise ValueError("need t > 0")
    D = grid.D
    Dp = _planted_mean(grid, t)
    if Dp <= D:
        warnings.warn("tilted mean D' <= D; falling back to the nominal law")
        return WeightedSample(sample_cell_config(grid, seed, replica), 0.0, ())
    counts = np.empty((1, grid.num_cells), dtype=np.int64)
    anchors, clique, _ = _draw_cells(rng.generator(seed, replica), grid, counts, Dp, plant_all=True)
    S = int(counts[0, clique[0]].sum())
    lw = float(_mixture_log_weight(S, D, Dp, grid.tau_s))
    anchor = tuple(anchors[0].tolist())
    return WeightedSample(CellConfig(counts[0], grid), lw, anchor)


def _estimate_from_log_u(logu: np.ndarray, n: int, t: float, threshold: float, method: str) -> TailEstimate:
    """Assemble a TailEstimate from per-replica log(1{event} * weight)."""
    hits = logu > -np.inf
    nhit = int(hits.sum())
    if nhit == 0:
        return TailEstimate(
            t=t, log_prob=-math.inf, std_err=0.0, rel_std_err=math.inf,
            n_replicas=n, method=method, threshold=threshold, unreliable=True,
        )
    lu = logu[hits]
    mx = float(lu.max())
    s1 = float(np.exp(lu - mx).sum())
    s2 = float(np.exp(2.0 * (lu - mx)).sum())
    log_mean = mx + math.log(s1) - math.log(n)
    # Var(estimator) = (E[u^2] - E[u]^2)/n
    log_m2 = 2.0 * mx + math.log(s2) - math.log(n)
    diff = log_m2 + math.log1p(-min(math.exp(2.0 * log_mean - log_m2), 1.0 - 1e-15))
    log_se = 0.5 * (diff - math.log(n))
    ess = s1 * s1 / s2
    return TailEstimate(
        t=t,
        log_prob=log_mean,
        std_err=math.exp(log_se) if log_se > -700 else 0.0,
        rel_std_err=math.exp(log_se - log_mean),
        n_replicas=n,
        method=method,
        threshold=threshold,
        unreliable=ess < 10.0,
        ess=ess,
        n_hits=nhit,
    )


def _replicas(grid: GridModel, seed: int, replicas: int, Dp: float | None = None):
    """The replicas in chunks, each yielding its (R, m^d) float32 counts X
    (float64 on a redraw), its mixture log weights (zeros without Dp) and
    its int64 |E_s|.

    On grids of at most 512 cells chunk c is 65536 replicas, drawn by one
    `grid._draw_cells(rng.generator(seed, c), grid, X, Dp)`.  Above, a chunk
    is floor(2^19 / m^d) rows (at least one), and row j of the chunk starting
    at replica lo is the draw `_draw_cells(rng.generator(seed, lo + j), grid,
    X[j:j+1], Dp)` would make, so replica k has stream (seed, k); the rows
    are counted in one call, which also gives each row's total to the
    chunk's one |E_s| contraction.  X is a view of one float32 work buffer,
    at most 2^19 cells (2 MiB, half the float64 buffer) above 512
    cells, allocated before the first chunk and redrawn in place for each
    next one, so the loop allocates no counts per replica; a caller that
    keeps counts copies them first (`CellConfig` does, casting to int64).
    When a row's sum X^2 reaches 2^24, the contraction cannot certify
    |E_s| exact in float32 and raises OverflowError; the chunk is then
    drawn again from the same streams into a float64 buffer, allocated on
    first need, so the counts, weights and |E_s| are those of the float32
    attempt had it been exact.  The clique-set sums S are taken in float64,
    so each log weight is the one a float64 buffer gives."""
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    M = grid.num_cells
    batched = M <= 512
    chunk = 65536 if batched else max(1, 2**19 // M)
    buf = np.empty((min(chunk, replicas), M), dtype=np.float32)
    wide = None
    for c, lo in enumerate(range(0, replicas, chunk)):
        R = min(chunk, replicas - lo)

        def draw(X):
            g = rng.generator(seed, c) if batched else [rng.generator(seed, lo + j) for j in range(R)]
            _, clique, total = _draw_cells(g, grid, X, Dp)
            return X, clique, _sgraded_edge_counts(X.reshape(R, *grid.shape), grid, total)

        try:
            X, clique, edges = draw(buf[:R])
        except OverflowError:  # not certified exact in float32: the same streams again, in float64
            wide = np.empty(buf.shape) if wide is None else wide
            X, clique, edges = draw(wide[:R])
        if Dp is None:
            lw = np.zeros(R)
        else:
            S = X[np.arange(R)[:, None], clique].sum(axis=1, dtype=np.float64)
            lw = _mixture_log_weight(S, grid.D, Dp, grid.tau_s)
        yield X, lw, edges


def importance_estimate_tail(
    grid: GridModel,
    t: float,
    replicas: int,
    seed: int,
) -> TailEstimate:
    """Unbiased estimate of P(|E_s| >= (1+t) mu_s) under the 1/2-1/2 mixture.

    The replicas are `_replicas` with the tilt D': each chunk's stream draws,
    in order, its component coins, its anchors, the base points of all its
    replicas and the extra points of the planted ones.  On grids of more than
    512 cells replica k is the draw `planted_cell_sampler` makes when its coin
    says planted, and the estimate is deterministic given (seed, replicas).
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    threshold = (1.0 + t) * grid.mu_s
    Dp = _planted_mean(grid, t)
    if Dp <= grid.D:
        raise ValueError("t too small to tilt: D' <= D")
    logu = np.concatenate(
        [np.where(edges >= threshold, lw, -np.inf) for _, lw, edges in _replicas(grid, seed, replicas, Dp)]
    )
    return _estimate_from_log_u(logu, replicas, t, threshold, "importance")


def rejection_conditional(
    grid: GridModel, threshold: float, budget: int, seed: int
):
    """Accept nominal draws with |E_s| >= threshold; returns (configs, rate)."""
    accepted = [
        CellConfig(X[k], grid)
        for X, _, edges in _replicas(grid, seed, budget)
        for k in np.flatnonzero(edges >= threshold)
    ]
    return accepted, len(accepted) / budget


def rejection_estimate_tail(
    grid: GridModel, t: float, replicas: int, seed: int
) -> TailEstimate:
    """Plain Monte Carlo tail estimate (weight 1); feasible near the bulk only."""
    threshold = (1.0 + t) * grid.mu_s
    hits = sum(int((edges >= threshold).sum()) for _, _, edges in _replicas(grid, seed, replicas))
    rate = hits / replicas
    if rate == 0.0:
        return TailEstimate(
            t=t, log_prob=-math.inf, std_err=0.0, rel_std_err=math.inf,
            n_replicas=replicas, method="rejection", threshold=threshold,
            unreliable=True,
        )
    se = math.sqrt(rate * (1.0 - rate) / replicas)
    return TailEstimate(
        t=t, log_prob=math.log(rate), std_err=se, rel_std_err=se / rate,
        n_replicas=replicas, method="rejection", threshold=threshold,
        unreliable=replicas * rate < 10, ess=float(hits), n_hits=hits,
    )


def exact_tail_tiny(grid: GridModel, threshold: float) -> TailEstimate:
    """Exact P(|E_s| >= threshold) by enumeration over truncated cell counts."""
    nc = grid.num_cells
    if nc > 6 or grid.D > 5:
        raise ValueError("exact enumeration budget: need m^d <= 6 and D <= 5")
    D = grid.D
    # truncation cap: total error m^d * P(X > K) <= 1e-10
    K = 1
    while nc * exact_poisson_tail(D, K, "upper") > 1e-10:
        K += 1
    pmf = np.array([math.exp(log_poisson_pmf(D, k)) for k in range(K + 1)])
    total = 0.0
    # chunk over the first cell's value to bound memory
    rest = np.indices((K + 1,) * (nc - 1)).reshape(nc - 1, (K + 1) ** (nc - 1)).T
    for k0 in range(K + 1):
        X = np.concatenate(
            [np.full((len(rest), 1), k0, dtype=np.int64), rest], axis=1
        )
        edges = _sgraded_edge_counts(X.reshape(len(X), *grid.shape), grid)
        probs = pmf[X].prod(axis=1)
        total += float(probs[edges >= threshold].sum())
    return TailEstimate(
        t=threshold / grid.mu_s - 1.0,
        log_prob=math.log(total) if total > 0 else -math.inf,
        std_err=0.0,
        rel_std_err=0.0,
        n_replicas=0,
        method="exact",
        threshold=threshold,
        truncation_error=1e-10,
    )


def planted_continuum_sampler(
    params: ModelParams, delta: float, seed: int, replica: int = 0
) -> PointSet:
    """Nominal PPP superposed with ceil(sqrt(2 delta mu) + n^z) uniform points
    in a fixed ball B of diameter r centered at (1/2, ..., 1/2)."""
    norm = params.norm
    d = norm.dim
    g = rng.generator(seed, replica)
    base_count = int(g.poisson(params.n))
    base = g.random((base_count, d))
    z = z_exponent(params.p_hat)
    k = int(math.ceil(math.sqrt(2.0 * delta * params.mu) + params.n**z))
    center = np.full(d, 0.5)
    planted = np.empty((k, d))
    filled = 0
    while filled < k:
        cand = center + (g.random((2 * k + 16, d)) - 0.5) * params.r
        ok = cand[torus_distance(cand, center, norm) <= params.r / 2.0]
        take = min(k - filled, len(ok))
        planted[filled : filled + take] = ok[:take]
        filled += take
    pts = np.concatenate([base, planted % 1.0], axis=0)
    return PointSet(points=pts, intensity=params.n, seed=seed)
