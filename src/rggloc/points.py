"""Poisson point process sampling and continuum edge counting.

The random geometric graph puts an edge between every unordered pair of
points at torus distance <= r.  `edge_count` finds them with a cell list:
the points are sorted into k^d cells of side > r, so each neighbour lies in
an adjacent cell, and every candidate pair from half of the 3^d stencil is
re-checked with `torus_distance`.  `edge_count_bruteforce` is the
definitional O(N^2) oracle and the two must agree exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .geometry import Norm, Probe, ball_volume_tau, probe_contains, torus_distance


@dataclass(frozen=True)
class PointSet:
    """One PPP realization; immutable, reproducible from (intensity, seed)."""

    points: np.ndarray  # (N, d) float64 in [0,1)
    intensity: float
    seed: int

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ModelParams:
    """Continuum model parameters (n, r, norm) with regime diagnostics.

    delta_star parametrizes the admissible radius window
    n^{(delta*-2)/d} <= r <= n^{-delta*/d}; violations are warnings, not
    errors, because desk-scale experiments routinely sit at the edge.
    """

    n: float
    r: float
    norm: Norm
    delta_star: float = 0.1

    def __post_init__(self):
        if self.n <= 0 or not (0.0 < self.r < 0.5):
            raise ValueError("need n > 0 and 0 < r < 1/2")
        d = self.norm.dim
        lo = self.n ** ((self.delta_star - 2.0) / d)
        hi = self.n ** (-self.delta_star / d)
        if not (lo <= self.r <= hi):
            warnings.warn(
                f"r={self.r:.4g} outside the admissible window [{lo:.4g}, {hi:.4g}] "
                f"for delta_star={self.delta_star}",
                stacklevel=2,
            )
        p = self.p_hat
        if not (self.delta_star - 0.1 <= p <= 2.0 - self.delta_star + 0.1):
            warnings.warn(
                f"p_hat={p:.4g} outside [{self.delta_star}, {2 - self.delta_star}] (tol 0.1)",
                stacklevel=2,
            )

    @property
    def mu(self) -> float:
        """Expected edge count n^2 * nu * r^d / 2."""
        return expected_edges(self)

    @property
    def tau(self) -> float:
        """Volume of a ball of diameter r."""
        return ball_volume_tau(self.r, self.norm)

    @property
    def p_hat(self) -> float:
        """Finite-n plug-in for the edge-count exponent: log(mu)/log(n)."""
        return math.log(self.mu) / math.log(self.n)


def expected_edges(params: ModelParams) -> float:
    n = params.n
    return 0.5 * n * n * params.norm.nu * params.r**params.norm.dim


def params_for_p_hat(
    n: float, p_target: float, norm: Norm, delta_star: float = 0.1
) -> ModelParams:
    """Choose r so that p_hat = log(mu)/log(n) hits p_target.

    Solves mu = n^p for r: r = (2 n^{p-2} / nu)^{1/d}.
    """
    d = norm.dim
    r = (2.0 * n ** (p_target - 2.0) / norm.nu) ** (1.0 / d)
    return ModelParams(n=n, r=r, norm=norm, delta_star=delta_star)


def sample_ppp(n: float, norm: Norm, seed: int, replica: int = 0) -> PointSet:
    """Poisson(n) many i.i.d. uniform points on [0,1)^d, deterministic per seed."""
    if n < 0:
        raise ValueError("intensity must be nonnegative")
    g = rng.generator(seed, replica)
    count = int(g.poisson(n))
    pts = g.random((count, norm.dim))
    return PointSet(points=pts, intensity=float(n), seed=seed)


def edge_count_bruteforce(ps: PointSet, r: float, norm: Norm) -> int:
    """Definitional pairwise scan; reference semantics for edge_count."""
    pts = ps.points
    n = len(pts)
    if n < 2:
        return 0
    total = 0
    # row-at-a-time keeps memory at O(N) while staying vectorized
    for i in range(n - 1):
        d = torus_distance(pts[i + 1 :], pts[i], norm)
        total += int((d <= r).sum())
    return total


# candidate pairs checked at once, and (point, offset) table entries built at
# once: memory per block stays fixed however dense the cells are
_PAIR_BLOCK = 1 << 18
_TABLE_BLOCK = 1 << 14


def _cells_per_axis(r: float, n: int, d: int) -> int:
    """Cells per axis k: side 1/k > r(1 + 1e-9), and at most 4n cells in all.

    The 2^-40 term keeps two points within r in adjacent cells however
    x * k rounds, at any k; the 4n cap keeps memory linear in n, not r^-d.
    """
    k = int(1.0 / (r * (1.0 + 1e-9) + 2.0**-40))
    k = min(k, int((4 * n) ** (1.0 / d)) + 1)
    while k**d > 4 * n:
        k -= 1
    return k


@functools.lru_cache(maxsize=None)
def _half_stencil(d: int, k: int) -> tuple:
    """One offset of each pair {o, -o} of {-1, 0, 1}^d taken mod k (k <= 3).

    Returns the offsets as a (h, d) array and the indices of those with
    o = -o mod k: the same cell, and every offset on grids of 1 or 2 cells
    per axis.  Both arrays are read-only, since every caller shares them.
    """
    offsets, self_inverse, seen = [], [], set()
    for o in itertools.product((-1, 0, 1), repeat=d):
        mod = tuple(v % k for v in o)
        neg = tuple(-v % k for v in o)
        if mod in seen or neg in seen:
            continue
        seen.add(mod)
        self_inverse.append(mod == neg)
        offsets.append(o)
    out = (np.array(offsets, dtype=np.int64), np.flatnonzero(self_inverse))
    for a in out:
        a.setflags(write=False)
    return out


def _close_count(xs: np.ndarray, cols: list, i: np.ndarray, j: np.ndarray, r: float, norm: Norm) -> int:
    """How many of the candidate pairs (xs[i], xs[j]) lie within torus distance r.

    Axis by axis, the wrapped gaps drop every pair whose partial length
    (largest gap, sum of gaps, or sum of squared gaps) already exceeds r,
    inflated by 1e-12 so rounding never drops a pair at distance <= r.  The
    survivors go through the same `torus_distance <= r` test as the brute
    force, so the count is exact.
    """
    reach = r * (1.0 + 1e-12)
    if norm.kind == "l2":
        reach *= reach
    partial = None
    for col in cols:
        gap = col.take(i)
        gap -= col.take(j)
        np.abs(gap, out=gap)
        np.minimum(gap, 1.0 - gap, out=gap)
        if norm.kind == "l2":
            gap *= gap
        if partial is not None and norm.kind != "linf":
            gap += partial
        near = np.flatnonzero(gap <= reach)
        i, j, partial = i.take(near), j.take(near), gap.take(near)
    return int(np.count_nonzero(torus_distance(xs[i], xs[j], norm) <= r))


def edge_count(ps: PointSet, r: float, norm: Norm) -> int:
    """|E| from a cell list on the torus; equal to the brute force.

    For coordinates in [0, 1]: a pair within r lies in the same or adjacent
    cells, so half of the 3^d stencil lists it once, and every listed pair is
    decided by the brute force's own test.
    """
    if not (0.0 < r < 0.5):
        raise ValueError("need 0 < r < 1/2")
    x = ps.points
    n, d = x.shape
    if n < 2:
        return 0
    k = _cells_per_axis(r, n, d)
    # sort by flat cell; cell * n + index are distinct, so one plain sort of
    # them is a stable sort by cell
    key = np.zeros(n, dtype=np.int64)
    for a in range(d):
        key *= k
        key += np.floor(x[:, a] * k).astype(np.int64) % k
    key *= n
    key += np.arange(n)
    key.sort()
    cell, order = np.divmod(key, n)
    del key
    xs = x[order]
    del order
    cols = [np.ascontiguousarray(xs[:, a]) for a in range(d)]
    starts = np.zeros(k**d + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=k**d), out=starts[1:])

    offsets, self_inverse = _half_stencil(d, min(k, 3))
    strides = k ** np.arange(d - 1, -1, -1)
    shift = offsets @ strides
    h = len(offsets)
    step = max(1, _TABLE_BLOCK // h)
    total = 0
    for p0 in range(0, n, step):
        here = cell[p0 : p0 + step]
        target = here[:, None] + shift
        # an offset that leaves the grid on axis a wraps around by k cells
        rest = here
        for a in range(d - 1, -1, -1):
            rest, c = np.divmod(rest, k)
            wrap = k * int(strides[a])
            for edge, o, fix in ((0, -1, wrap), (k - 1, 1, -wrap)):
                rows = np.flatnonzero(c == edge)
                target[np.ix_(rows, np.flatnonzero(offsets[:, a] == o))] += fix
        lo = starts[target]
        count = starts[target + 1]
        # a cell paired with itself, or reached from both sides, lists
        # each pair twice: keep j > i only
        after = np.arange(p0 + 1, p0 + len(here) + 1)[:, None]
        lo[:, self_inverse] = np.maximum(lo[:, self_inverse], after)
        count -= lo
        np.maximum(count, 0, out=count)
        lo, count = lo.ravel(), count.ravel()
        end = np.cumsum(count)
        begin = end - count
        pairs = int(end[-1])
        # pair q of entry t (begin[t] <= q < end[t]) joins point p0 + t // h
        # to point lo[t] + q - begin[t]
        for q0 in range(0, pairs, _PAIR_BLOCK):
            q1 = min(q0 + _PAIR_BLOCK, pairs)
            s = int(np.searchsorted(end, q0, side="right"))
            e = int(np.searchsorted(end, q1 - 1, side="right")) + 1
            c = np.minimum(end[s:e], q1) - np.maximum(begin[s:e], q0)
            i = np.repeat(np.arange(s, e) // h + p0, c)
            j = np.repeat(lo[s:e] - begin[s:e] + q0, c) + np.arange(q1 - q0)
            total += _close_count(xs, cols, i, j, r, norm)
    return total


def count_in_probe(ps: PointSet, S: Probe) -> int:
    if len(ps) == 0:
        return 0
    return int(np.asarray(probe_contains(S, ps.points)).sum())
