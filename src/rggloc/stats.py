"""Scalar functionals of cell configurations, Poisson tail bounds, derived
scales, and the L/A/B/D event checkers.

Everything here is a pure function of (CellConfig, DerivedScales).  The
scales bundle collects the thresholds that the localization argument uses:
q (target excess-vertex scale), w (nominal clique-set occupancy), the big-cell
cutoff M, polynomial exponents a/z/alpha/beta/gamma, and the smallness
parameter xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    CellConfig,
    GridModel,
    _cell_set,
    _in_sorted,
    _index_rows,
    _translate,
    neighbor_offsets,
    sgraded_edge_count,
)


@dataclass(frozen=True)
class DerivedScales:
    delta_tilde: float
    q: float
    w: float
    a: float
    M: float
    xi: float
    p_hat: float
    n: float

    @property
    def z(self) -> float:
        return z_exponent(self.p_hat)

    @property
    def alpha(self) -> float:
        return min(1.0 - self.p_hat / 2.0 - self.a / 2.0, self.p_hat / 2.0 - self.a / 2.0)

    @property
    def beta(self) -> float:
        return self.p_hat / 2.0 - self.a / 4.0

    @property
    def gamma(self) -> float:
        return self.p_hat - 2.0 * self.a

    @property
    def n_a(self) -> float:
        return self.n**self.a

    @property
    def n_z(self) -> float:
        return self.n**self.z

    @property
    def n_alpha(self) -> float:
        return self.n**self.alpha

    @property
    def n_beta(self) -> float:
        return self.n**self.beta

    @property
    def n_gamma(self) -> float:
        return self.n**self.gamma


def z_exponent(p_hat: float) -> float:
    """The exponent z = max(p/4, 3p/4 - 1/2) of the n^z excess points a planted
    configuration carries beyond sqrt(2 t mu)."""
    return max(p_hat / 4.0, 3.0 * p_hat / 4.0 - 0.5)


def xi_from_eps(eps_tilde: float, tau_s: int) -> float:
    """Combine the three smallness caps on xi into one up-front value."""
    return min(eps_tilde**40, (2.0 * tau_s) ** -10, 0.25 * (2.0 * tau_s) ** -4)


def derived_scales(
    grid: GridModel,
    delta_tilde: float,
    delta_star: float = 0.1,
    eps_tilde: float = 0.2,
) -> DerivedScales:
    """All thresholds, with the finite-n plug-in p_hat = log(mu_s)/log(n)."""
    if delta_tilde <= 0:
        raise ValueError("delta_tilde must be positive")
    n = grid.n
    p_hat = math.log(grid.mu_s) / math.log(n)
    a = delta_star / 25.0
    return DerivedScales(
        delta_tilde=delta_tilde,
        q=math.sqrt(2.0 * delta_tilde * grid.mu_s),
        w=grid.tau_s * grid.D,
        a=a,
        M=max(grid.D * n**a, n**a),
        xi=xi_from_eps(eps_tilde, grid.tau_s),
        p_hat=p_hat,
        n=n,
    )


# ---------------------------------------------------------------------------
# Poisson rate function and tail bounds


def rate_Y(x, D: float):
    """Poisson rate-function value x(log(x/D) - 1) + D, with 0*log 0 = 0."""
    if D <= 0:
        raise ValueError("need D > 0")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(x > 0, x * (np.log(np.maximum(x, 1e-300) / D) - 1.0), 0.0)
    out = term + D
    return float(out) if out.ndim == 0 else out


def poisson_tail_bound(D: float, t: float, side: str) -> float:
    """Chernoff bound exp(-t[log(t/D)-1] - D), valid above/below the mean."""
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if side == "upper" and t < D:
        raise ValueError("upper tail bound needs t >= D")
    if side == "lower" and t > D:
        raise ValueError("lower tail bound needs t <= D")
    return math.exp(-rate_Y(t, D))


def log_poisson_pmf(D: float, k: int) -> float:
    return -D + k * math.log(D) - math.lgamma(k + 1)


def exact_poisson_tail(D: float, t: float, side: str) -> float:
    """P(X > t) or P(X < t) for X ~ Poisson(D), by direct summation.

    Relative error <= 1e-12 (terms summed until negligible); independent of
    any library tail implementation so it can serve as an oracle.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if D < 0:
        raise ValueError("need D >= 0")
    if side == "lower":
        # P(X < t) = sum_{k < t} pmf
        kmax = math.ceil(t) - 1  # largest k with k < t
        if kmax < 0:
            return 0.0
        total = 0.0
        for k in range(kmax + 1):
            total += math.exp(log_poisson_pmf(D, k))
        return min(total, 1.0)
    # upper: P(X > t) = sum_{k > t} pmf
    k0 = math.floor(t) + 1
    total = 0.0
    k = k0
    while True:
        term = math.exp(log_poisson_pmf(D, k))
        total += term
        k += 1
        if k > D and term < 1e-16 * max(total, 1e-300):
            break
        if k - k0 > 10_000_000:
            break
    return min(total, 1.0)


def log_poisson_sf(D: float, t: float) -> float:
    """log P(X > t), safe far in the tail where the probability underflows."""
    k0 = math.floor(t) + 1
    if k0 <= 0:
        return 0.0
    terms = []
    mx = -math.inf
    k = k0
    while True:
        lp = log_poisson_pmf(D, k)
        terms.append(lp)
        mx = max(mx, lp)
        # terms decay once past the mode; stop when negligible vs the max
        if k > D and lp < mx - 45.0:
            break
        k += 1
        if len(terms) > 5_000_000:
            break
    return min(mx + math.log(sum(math.exp(x - mx) for x in terms)), 0.0)


# ---------------------------------------------------------------------------
# index-set functionals (Q, V, h, P_I) and the Jensen bound


# entries of one (|W|, offsets) gather in _pair_sums
_GATHER = 1 << 15


def _pair_sums(cfg: CellConfig, members: np.ndarray, others: np.ndarray | None = None):
    """Exact integer pair counts of W, given by its sorted flat indices
    `members`: (sum_{I in W} C(X_I, 2), sum_{I in W} X_I sum_o X_{I+o} 1[I+o in W'],
    sum_{I in W} X_I sum_o X_{I+o}), over the neighbor offsets o wrapped mod m.
    W' is given by its sorted flat indices `others`, or is W itself when that
    is None; a neighbor's membership is a binary search in them.

    With W' = W the second count is twice the neighbor edges inside W, and the
    third less the second is the W x W^c cross edges; with W' disjoint from W
    the second is the W x W' cross edges, each once.  Only the members are
    gathered, a chunk of offsets at a time: the cost is O(|W| |offsets|
    log |W'|) and the memory O(|W| d + _GATHER), whatever the lattice size.
    Every int64 partial sum is at most sum(X_W) (max X_W + the sum over o of
    max X_{W+o}); past 2^62 that bound raises OverflowError, as the |E_s|
    kernel does.
    """
    grid = cfg.grid
    if not len(members):
        return 0, 0, 0
    others = members if others is None else others
    xw = cfg.counts[members]
    cells = _index_rows(members, grid.shape)
    offsets = np.array(neighbor_offsets(grid), dtype=np.int64).reshape(-1, grid.norm.dim)
    cross = total = 0
    reach = float(xw.max())
    # as many offsets at a time as keep the (|W|, chunk) gathers near _GATHER
    # entries: a single chunk for a few cells, so a small W costs a few
    # numpy calls, not a few per offset
    chunk = max(1, _GATHER // len(members))
    for lo in range(0, len(offsets), chunk):
        nb = _translate(grid, cells, offsets[lo : lo + chunk])
        x = cfg.counts[nb]
        keep = _in_sorted(nb, others)
        reach += float(x.max(axis=0).sum(dtype=float))
        cross += int((xw @ np.where(keep, x, 0)).sum())
        total += int((xw @ x).sum())
    if xw.sum(dtype=float) * reach >= 2.0**62:
        raise OverflowError("pair counts would not be exact in int64")
    return int((xw * (xw - 1)).sum()) // 2, cross, total


def Q_internal(W, cfg: CellConfig, scales: DerivedScales) -> float:
    """(2/q^2) [sum_W C(X_I,2) + 1/2 sum of neighbor products inside W].

    W, here and in every functional below, is any form `grid._cell_set`
    reads; the neighbor products are gathered at the members of W only.
    """
    within, cross2, _ = _pair_sums(cfg, _cell_set(W, cfg.grid))
    return (2.0 / scales.q**2) * (within + cross2 / 2.0)


def Q_cross(W, W2, cfg: CellConfig, scales: DerivedScales) -> float:
    """(2/q^2) sum_{I in W} sum_{J in N_I ∩ W'} X_I X_J for disjoint W, W'."""
    members, others = _cell_set(W, cfg.grid), _cell_set(W2, cfg.grid)
    if _in_sorted(members, others).any():
        raise ValueError("Q_cross requires disjoint index sets")
    return (2.0 / scales.q**2) * _pair_sums(cfg, members, others)[1]


def V_count(W, cfg: CellConfig, scales: DerivedScales) -> float:
    return float(cfg.counts[_cell_set(W, cfg.grid)].sum()) / scales.q


def h_frac(W, grid: GridModel) -> float:
    return len(_cell_set(W, grid)) / grid.tau_s


def sum_rate_Y(W, cfg: CellConfig) -> float:
    return float(np.sum(rate_Y(cfg.counts[_cell_set(W, cfg.grid)], cfg.grid.D)))


def jensen_lower_bound(W, cfg: CellConfig, scales: DerivedScales) -> float:
    """V(W)[log(q/w) + log V(W) - log h(W) - 1] <= (1/q) sum_W Y_I."""
    members = _cell_set(W, cfg.grid)
    if not len(members):
        raise ValueError("empty index set")
    v = float(cfg.counts[members].sum()) / scales.q
    h = len(members) / cfg.grid.tau_s
    if v == 0.0:
        # the bound tends to 0 with v (v log v -> 0), and math.log(0) would raise
        return 0.0
    return v * (math.log(scales.q / scales.w) + math.log(v) - math.log(h) - 1.0)


# ---------------------------------------------------------------------------
# events


def event_L(cfg: CellConfig, scales: DerivedScales) -> bool:
    """Edge excess: |E_s| >= (1 + delta_tilde) mu_s."""
    return sgraded_edge_count(cfg) >= (1.0 + scales.delta_tilde) * cfg.grid.mu_s


def event_A(cfg: CellConfig, scales: DerivedScales) -> bool:
    """More than n^alpha cells exceed the big-cell cutoff M."""
    return int((cfg.counts > scales.M).sum()) > scales.n_alpha


def event_B(cfg: CellConfig, scales: DerivedScales) -> bool:
    """Sum of the floor(n^alpha) largest Y_I exceeds q(log(q/w)-1) + n^beta."""
    k = int(math.floor(scales.n_alpha))
    if k <= 0:
        return False
    y = rate_Y(cfg.counts, cfg.grid.D)
    if k < len(y):
        top = np.partition(y, len(y) - k)[len(y) - k :]
    else:
        top = y
    thresh = scales.q * (math.log(scales.q / scales.w) - 1.0) + scales.n_beta
    return float(top.sum()) > thresh


def truncated_edge_count(cfg: CellConfig, scales: DerivedScales) -> int:
    """|E_s| after zeroing every cell with X_I > M."""
    kept = np.where(cfg.counts <= scales.M, cfg.counts, 0)
    return sgraded_edge_count(CellConfig(kept, cfg.grid))


def event_D(cfg: CellConfig, scales: DerivedScales) -> bool:
    """Truncated edge count exceeds mu_s + n^gamma."""
    return truncated_edge_count(cfg, scales) > cfg.grid.mu_s + scales.n_gamma
