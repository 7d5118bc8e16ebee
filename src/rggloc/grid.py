"""The s-graded discretization: grid, integer cell metric, neighborhoods,
maximal clique sets, s-graded edge counts, hulls, and inscribed balls.

The torus is cut into m^d cells of side 1/m with m = floor(s/r); cell
occupancies are independent Poisson(D) with D = n/m^d.  Every lattice
sampler takes them from one draw, `_draw_cells`, which samples the Poisson
process as points: from one generator for a batch of R replicas, or from
one generator per row, N ~ Pois(B m^d D) uniform flat indices over the
generator's B rows, plus, on each planted row, Pois(tau_s (D' - D)) points
uniform over its translated clique set, which raise those cells to
Poisson(D') by superposition.  It counts them with `np.add.at` into an
(R, m^d) buffer that the caller owns: the replica loop reuses one float32
buffer (and one float64 buffer for a chunk it has to redraw) and allocates
no counts per replica, and a single config is one int64 row.
The integer cell
metric d(I,J) is the smallest integer z such that interior points of the two
cells can be closer than z cell widths; for monotone norms this has the
closed form floor(||max(delta-1, 0)||) + 1 with delta the wrapped per-axis
cell offset.  Two cells are "adjacent" (their points can be graph neighbors)
when d(I,J) <= s.

Every question of the form "which cells lie within metric s" takes one array
path.  `_metric_blocks` evaluates the closed form between two cell arrays in
blocks of 256 rows, so memory stays linear in the larger set: it gives the
exact set diameter at any size and the maximality test (no outside cell
within s of every member).  `_cell_range` picks the offsets once, the
(2s+3)^d window or, when m < 2s+3, the whole grid, for both the neighbour
offsets and the enumeration window, and `_translate` moves an offset list to
anchor cells for neighborhoods, clique translates and the planted samplers.

tau_s, the largest set of cells with pairwise metric <= s, is a maximum clique
of this adjacency: on the (s+2)^d window for a grid with m >= 2s+3, on the
whole wrapped grid otherwise.  `_adjacency` reads the adjacency from a table
of the metric per per-axis offset, in the same 256-row blocks, and
`_bitsets` packs it into Python-int bitsets in a given vertex order.  The
proof comes first: one colour-bounded branch and bound (MCQ/MCS, Tomita &
Seki 2003; Tomita et al. 2010), floored by one disc-grown greedy clique,
fixes tau.  On the window it runs only on the (s+1)^d box, which holds a
translate of every clique set, with the box's cells numbered first in the
box's own degree order.  Only then does a sweep of disc-grown greedy cliques
over the window's centres look for the witness: the first centre's clique to
reach tau, or, when none does, the first tau-clique of the search over the
whole window in its degree order.  The same search, with >= in place of >,
enumerates the maximum sets through an anchor cell.

Every lattice stencil takes one wrapped-slice path.  `_wrapped_slices` maps
an offset o (mod m) to the at most 2^d pairs of slices (a, b) for which
x[..., a] and x[..., b] line up each cell I with I + o on the torus.
`_shift_sum` gathers each shift through them into one reused buffer, and the
s-graded edge count contracts each pair, cached with its weight per
(norm, s, m), with a batched row-times-column product, a BLAS dot:
|E_s| = sum_I C(X_I, 2) + sum_{o in H} sum_I X_I X_{I+o}, with H one offset
of each {o, -o} pair of the neighbour offsets, so half the stencil and no
shifted copy.  On a tiny grid an offset with o = -o mod m (o = 2 at m = 4)
meets every pair twice and takes weight 1/2.  Every partial sum is a sum of
nonnegative integer products, at most (sum X)^2, so the count is exact in any
summation order while (sum X)^2 stays below 2^53 in float64 (2^62 in int64),
and raises OverflowError beyond.  float32 counts also carry a certificate:
float32 holds every integer below 2^24, and rounding is monotone, so a sum of
nonnegative integers whose first inexact step lands at 2^24 or above stays
there.  A computed sum X^2 below 2^24 therefore proves every product and
partial sum of that term exact, in any order, at any SIMD width and under any
BLAS kernel, and each other term, at most sum X^2 by Cauchy-Schwarz, exact too
(a cell of 2^24 points sticks at 2^24 and makes sum X^2 >= 2^48).  A row past
it raises OverflowError, and the replica loop redraws its chunk in float64.

Hulls and inscribed balls compare regions with unions of cells through one
array helper, the per-axis wrapped (min, max) distance from a point to
intervals.  `_cell_relation` evaluates every cell of a probe's window at once
for a ball, a box or a ball∩box; the outer and inner hulls are its two masks.
The inscribed ball tries a sub-grid of centers in the member cells against
only the non-member cells of the set's 3^d neighborhood, with per-axis gaps
on the circle of m cells: the complement point nearest a center lies on the
union's boundary, so this is exact.  Since that distance is 1-Lipschitz, a
cell's middle bounds all its centers, and only cells whose bound can beat
the best center found so far are scored.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .geometry import Ball, Box, Norm, Probe, torus_distance
from .points import ModelParams, PointSet

CellIndex = tuple  # d-tuple of ints in {0..m-1}; 0-based throughout


@dataclass(frozen=True)
class CliqueResult:
    """Outcome of a maximum clique-set search."""

    members: frozenset  # of CellIndex
    exact = True  # the search runs to completion, with no time limit

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GridModel:
    s: int
    m: int
    n: float
    r: float
    norm: Norm
    # canonical max clique set as offsets with min corner at the origin
    clique_offsets: tuple

    @property
    def D(self) -> float:
        """Mean cell occupancy n / m^d."""
        return self.n / self.m**self.norm.dim

    @property
    def nbhd_size(self) -> int:
        """|N_I|: the cell itself and its neighbour offsets."""
        return len(neighbor_offsets(self)) + 1

    @property
    def tau_s(self) -> int:
        return len(self.clique_offsets)

    @property
    def num_cells(self) -> int:
        return self.m**self.norm.dim

    @property
    def mu_s(self) -> float:
        """Expected s-graded edge count |N_I| n^2 / (2 m^d)."""
        return self.nbhd_size * self.n * self.n / (2.0 * self.num_cells)

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.norm.dim


@dataclass
class CellConfig:
    """Cell occupancy vector {X_I}; counts stored flat in C order."""

    counts: np.ndarray  # int64, shape (m^d,)
    grid: GridModel

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.grid.num_cells,):
            raise ValueError("counts shape does not match grid")
        if (self.counts < 0).any():
            raise ValueError("negative cell count")

    def lattice(self) -> np.ndarray:
        return self.counts.reshape(self.grid.shape)

    def __getitem__(self, I: CellIndex) -> int:
        return int(self.counts[np.ravel_multi_index(I, self.grid.shape)])


def flat_index(I: CellIndex, m: int) -> int:
    f = 0
    for c in I:
        f = f * m + int(c)
    return f


def unflat_index(f: int, m: int, d: int) -> CellIndex:
    out = []
    for _ in range(d):
        out.append(f % m)
        f //= m
    return tuple(reversed(out))


def _lattice(lo: int, hi: int, d: int) -> np.ndarray:
    """The integer points of [lo, hi)^d as rows, in C order."""
    return np.indices((hi - lo,) * d).reshape(d, -1).T + lo


def _cell_set(W, grid: GridModel) -> np.ndarray:
    """Sorted distinct C-order flat int64 indices of the cell set W: index tuples,
    (k, d) integer index rows (a 1-D integer array is read in rows of d) or a
    flat boolean mask of the m^d cells.  A cell off the grid raises ValueError."""
    if isinstance(W, np.ndarray) and W.dtype == bool:
        if W.shape != (grid.num_cells,):
            raise ValueError(f"a cell mask needs shape ({grid.num_cells},), got {W.shape}")
        return np.flatnonzero(W)
    rows = np.asarray(W if isinstance(W, np.ndarray) else list(W), dtype=np.int64)
    return _unique(np.ravel_multi_index(rows.reshape(-1, grid.norm.dim).T, grid.shape))


def _index_rows(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """C-order flat cell indices into `shape` as (k, d) int64 index rows."""
    return np.stack(np.unravel_index(flat, shape), axis=-1)


def _index_tuples(flat: np.ndarray, shape: tuple) -> tuple:
    """The index tuples of C-order flat cell indices into `shape`, as Python ints."""
    return tuple(zip(*(c.tolist() for c in np.unravel_index(flat, shape))))


def _unique(a) -> np.ndarray:
    """np.unique(a): the sorted distinct values of a, flattened, by a sort and
    a neighbour compare.  numpy 2.4's np.unique (and np.setdiff1d, which
    calls it) takes about 12 ms on its first call in a process."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _in_sorted(a, b: np.ndarray) -> np.ndarray:
    """np.isin(a, b) for a sorted b, by one binary search."""
    if not len(b):
        return np.zeros(np.shape(a), dtype=bool)
    return b[np.minimum(np.searchsorted(b, a), len(b) - 1)] == a


def _setdiff(a, b) -> np.ndarray:
    """np.setdiff1d(a, b): the sorted distinct values of a not in b."""
    a = _unique(a)
    return a[~_in_sorted(a, _unique(b))]


def _translate(grid: GridModel, anchors, offsets) -> np.ndarray:
    """Flat indices of anchor + o, wrapped mod m, for each anchor (a d-tuple or
    (k, d) rows) and offset: shape (k, len(offsets)), columns in `offsets` order."""
    d = grid.norm.dim
    cells = np.asarray(anchors).reshape(-1, 1, d) + np.array(offsets, dtype=np.int64).reshape(-1, d)
    return np.ravel_multi_index(cells.T, grid.shape, mode="wrap").T


def _metric_from_delta(delta: np.ndarray, norm: Norm) -> np.ndarray:
    """Closed-form metric from wrapped per-axis offsets (0 for the zero offset)."""
    delta = np.asarray(delta)
    g = np.maximum(delta - 1, 0).astype(float)
    dist = np.floor(norm.length(g)).astype(np.int64) + 1
    same = (delta == 0).all(axis=-1)
    return np.where(same, 0, dist)


def cell_metric(I: CellIndex, J: CellIndex, grid: GridModel) -> int:
    if len(I) != grid.norm.dim or len(J) != grid.norm.dim:
        raise ValueError("index dimension mismatch")
    m = grid.m
    if not all(0 <= c < m for c in (*I, *J)):
        raise ValueError(f"a cell lies off the grid of side {m}: {I}, {J}")
    delta = np.array([min(abs(i - j), m - abs(i - j)) for i, j in zip(I, J)])
    return int(_metric_from_delta(delta, grid.norm))


def cell_metric_numeric_oracle(
    I: CellIndex, J: CellIndex, grid: GridModel, samples: int = 2000, seed: int = 0
) -> int:
    """Definitional infimum by sampling: min over interior pairs of ceil(m*dist).

    Random interior pairs alone rarely approach the infimum, so deterministic
    near-corner probes (inset 1e-7 cell widths) are always included.
    """
    if I == J:
        return 0
    m = grid.m
    d = grid.norm.dim
    eps = 1e-7 / m
    lo_i = np.array(I, dtype=float) / m
    lo_j = np.array(J, dtype=float) / m
    corners = np.where(_lattice(0, 2, d) == 1, 1.0 / m - eps, eps)
    xs = lo_i + corners
    ys = lo_j + corners
    dist = torus_distance(xs[:, None, :], ys[None, :, :], grid.norm)
    best = dist.min()
    if samples > 0:
        g = rng.generator(seed)
        rx = lo_i + (eps + g.random((samples, d)) * (1.0 / m - 2 * eps))
        ry = lo_j + (eps + g.random((samples, d)) * (1.0 / m - 2 * eps))
        best = min(best, torus_distance(rx, ry, grid.norm).min())
    return int(math.ceil(m * best - 1e-9))


def _cell_range(s: int, m: int, d: int):
    """The offsets at which a cell can lie within metric s, and the modulus
    their metric wraps by: the (2s+3)^d window, unwrapped, when m >= 2s+3
    (per-axis offsets up to s+1 suffice since g_k <= ||g||); otherwise every
    cell of the grid, wrapped mod m."""
    if m >= 2 * s + 3:
        return _lattice(-(s + 1), s + 2, d), None
    return _lattice(0, m, d), m


@lru_cache(maxsize=64)
def _neighbor_offsets_cached(kind: str, dim: int, s: int, m: int) -> tuple:
    span, _ = _cell_range(s, m, dim)
    dist = _pairwise_metric(span, np.zeros((1, dim), dtype=np.int64), Norm(kind, dim), m)[:, 0]
    return tuple(map(tuple, span[(dist > 0) & (dist <= s)].tolist()))


def neighbor_offsets(grid: GridModel) -> tuple:
    """All nonzero offsets o (mod m) with d(I, I+o) <= s; each J counted once."""
    return _neighbor_offsets_cached(grid.norm.kind, grid.norm.dim, grid.s, grid.m)


def neighborhood(I: CellIndex, grid: GridModel) -> frozenset:
    offs = ((0,) * grid.norm.dim, *neighbor_offsets(grid))
    return frozenset(_index_tuples(_translate(grid, I, offs)[0], grid.shape))


def _pairwise_metric(a: np.ndarray, b: np.ndarray, norm: Norm, m: int | None = None) -> np.ndarray:
    """Cell metric between every row of `a` and every row of `b`; offsets wrap mod m if given."""
    delta = np.abs(a[:, None, :] - b[None, :, :])
    if m is not None:
        delta = np.minimum(delta, m - delta)
    return _metric_from_delta(delta, norm)


def _metric_blocks(a: np.ndarray, b: np.ndarray, norm: Norm, m: int | None = None):
    """`_pairwise_metric(a, b, norm, m)` in blocks of 256 rows of `a`, so the
    int64/float intermediates hold 256 * len(b) * d entries at a time: the s=64
    window has 4356 cells, and one block of all pairs would take over 1 GB."""
    for i in range(0, len(a), 256):
        yield _pairwise_metric(a[i : i + 256], b, norm, m)


def _adjacency(cells: np.ndarray, norm: Norm, s: int, m: int | None = None) -> np.ndarray:
    """The bool matrix joining the rows of `cells` at cell metric <= s, with a
    False diagonal.

    The metric depends only on the per-axis |offset|, at most ptp(cells) on
    every axis (the rows may have negative coordinates), so it is evaluated
    once per offset into a table, and the adjacency gathers from it in blocks
    of 256 rows; a wrapped offset is min(|a-b|, m-|a-b|).
    """
    w = int(np.ptp(cells, axis=0).max()) + 1
    fits = _metric_from_delta(_lattice(0, w, cells.shape[1]), norm) <= s
    coords = cells.T.astype(np.min_scalar_type(-(w ** cells.shape[1])))  # narrowest int for every key
    adj = np.empty((len(cells), len(cells)), dtype=bool)
    for i in range(0, len(cells), 256):
        key = 0
        for a, b in zip(coords[:, i : i + 256], coords):
            delta = np.abs(a[:, None] - b[None, :])
            if m is not None:
                delta = np.minimum(delta, m - delta)
            key = key * w + delta
        adj[i : i + 256] = fits[key]
    np.fill_diagonal(adj, False)
    return adj


def _bitsets(adj: np.ndarray, order: np.ndarray) -> list:
    """The graph `adj` with vertex v the row order[v], as one Python-int bitset
    per vertex (bit u of nbrs[v] set iff u ~ v)."""
    rows = np.packbits(adj.take(order, axis=0).take(order, axis=1), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _degree_order(adj: np.ndarray) -> np.ndarray:
    """The rows of `adj` by non-increasing degree, ties kept in row order."""
    return np.argsort(-adj.sum(axis=1), kind="stable")


def _clique_graph(cells: np.ndarray, norm: Norm, s: int, m: int | None = None):
    """The graph on `cells` joining pairs at cell metric <= s (`_adjacency`),
    its vertices numbered by non-increasing degree (`_degree_order`): returns
    `order`, the row of `cells` behind each vertex, and the bitsets."""
    adj = _adjacency(cells, norm, s, m)
    order = _degree_order(adj)
    return order, _bitsets(adj, order)


def _disc_orders(pts: np.ndarray, order: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Each centre's ball-growing vertex order: by squared distance from the
    centre, ties to the lower `order`.  The distances are integers and `order`
    is a permutation of the vertices, so the keys dist * V + order are distinct
    and sort as lexsort((order, dist)), in any sort.  The keys are computed in
    the dtype of the three arrays, which the caller picks to hold them all,
    as narrow as sorts fastest."""
    dist = ((pts[None] - centres[:, None]) ** 2).sum(axis=2, dtype=pts.dtype)
    return np.argsort(dist * len(order) + order, axis=1)


def _disc_clique(ranked: list, nbrs: list, bits: list, full: int, need: int) -> list:
    """Greedy clique taking each vertex of `ranked` that fits, given up once
    nothing more fits or it cannot reach `need` vertices; bits[v] is 1 << v.
    That bound is checked every 8th vertex taken: counting the bits of a mask
    thousands of bits wide costs as much as the rest of a step, and a late
    stop only costs time."""
    cur: list = []
    mask = full
    taken = 0
    for v in ranked:
        if mask & bits[v]:
            cur.append(v)
            mask &= nbrs[v]
            taken += 1
            if not mask or (not taken & 7 and taken + mask.bit_count() < need):
                break
    return cur


def _colour_classes(P: int, nbrs: list):
    """Greedy sequential colouring of the bitset P, lowest vertex first.

    Returns the vertices in colour order and their colour numbers 1, 2, ...;
    a clique within P has at most as many vertices as P has colours.
    """
    verts, colours = [], []
    k = 0
    while P:
        k += 1
        Q = P
        while Q:
            low = Q & -Q
            v = low.bit_length() - 1
            P ^= low
            Q &= ~(nbrs[v] | low)
            verts.append(v)
            colours.append(k)
    return verts, colours


def _clique_search(nbrs: list, base: list, cand: int, bar: int, cap: int | None = None) -> list:
    """Colour-bounded branch and bound (MCQ/MCS, Tomita et al.) over cliques
    `base` + C with C inside the bitset `cand`, keeping those with more than
    `bar` vertices.

    Improve mode (cap None): each clique kept raises `bar` to its size, so the
    last one returned is a maximum clique, and an empty list proves none has
    more than `bar` vertices.  Enumerate mode: `bar` stays, and the search stops
    after `cap` cliques; with bar = tau - 1 every clique returned has tau
    vertices, each one once.  An explicit stack replaces recursion, whose depth
    would reach the clique size (thousands of cells at large s).
    """
    found: list = []
    R = list(base)
    stack = [[cand, *_colour_classes(cand, nbrs)]]
    while stack and (cap is None or len(found) < cap):
        frame = stack[-1]
        P, verts, colours = frame
        if not verts or len(R) + colours[-1] <= bar:
            stack.pop()
            if stack:
                R.pop()
            continue
        v = verts.pop()
        colours.pop()
        frame[0] = P ^ (1 << v)
        sub = P & nbrs[v]
        if sub:
            R.append(v)
            stack.append([sub, *_colour_classes(sub, nbrs)])
        elif len(R) + 1 > bar:
            found.append(R + [v])
            if cap is None:
                bar = len(R) + 1
    return found


def _max_clique(cells: np.ndarray, norm: Norm, s: int, m: int | None = None) -> np.ndarray:
    """The cells of a maximum clique, as rows of `cells` (the lattice [0, w)^d);
    the search proves it.

    Unwrapped (m None), every clique has a translate in the box [0, s]^d, so
    the proof needs only the box: its cells are numbered first, by degree
    within the box, as a graph of the box alone would number them (ties in
    row order), and the branch and bound runs on them.  Wrapped, the box is
    the whole lattice, since a clique of a small torus can be wider than s + 1
    cells; the numbering is then the window's degree order.  One disc-grown
    greedy clique, from the middle centre, is the search's floor, and the
    search fixes tau.  The witness is then the disc-swept greedy clique: the
    first centre of the window, in C order, whose ball-growing order
    (distance ties to the earlier row of `cells`) reaches tau, each centre
    dropped once it cannot; this does not depend on the numbering.  If none
    does, the witness is the first tau-clique of the search over the whole
    lattice in its degree order, renumbered for that search alone.
    """
    adj = _adjacency(cells, norm, s, m)
    box = (cells <= s).all(axis=1) if m is None else np.ones(len(cells), dtype=bool)
    order = np.argsort(np.where(box, -adj[:, box].sum(axis=1), 1), kind="stable")
    nbrs = _bitsets(adj, order)
    V, d = cells.shape
    w = int(cells.max()) + 1
    full = (1 << V) - 1
    bits = [1 << v for v in range(V)]
    # dist * V + row < (d (w-1)^2 + 1) V: the narrowest int holding the sweep's
    # keys, at least int32 (numpy argsorts int16 rows about 5x slower)
    key = np.promote_types(np.min_scalar_type(-(d * (w - 1) ** 2 + 1) * V), np.int32)
    pts, rows = cells[order].astype(key), order.astype(key)
    middle = _disc_orders(pts, rows, np.full((1, d), (w - 1) // 2, dtype=key))[0]
    floor = len(_disc_clique(middle.tolist(), nbrs, bits, full, 0))
    better = _clique_search(nbrs, [], (1 << int(box.sum())) - 1, floor)
    tau = len(better[-1]) if better else floor
    centres = _lattice(0, w, d).astype(key)
    for i in range(0, len(centres), 64):
        for ranked in _disc_orders(pts, rows, centres[i : i + 64]).tolist():
            cur = _disc_clique(ranked, nbrs, bits, full, tau)
            if len(cur) == tau:
                return cells[order[cur]]
    order = _degree_order(adj)
    return cells[order[_clique_search(_bitsets(adj, order), [], full, tau - 1, cap=1)[0]]]


def _as_offsets(pts: np.ndarray) -> tuple:
    return tuple(sorted(tuple(row) for row in pts.tolist()))


@lru_cache(maxsize=64)
def _tau_s_cached(kind: str, dim: int, s: int) -> tuple:
    """Canonical witness of tau_s, n-independent, computed once per (norm, d, s).

    Cell metric <= s bounds every per-axis offset by s, so the (s+1)^d box
    already holds every set of diameter <= s up to translation, and
    `_max_clique` proves tau_s there; the witness sweep runs over the (s+2)^d
    window, whose centres and rows fix the witness.  It is moved so that its
    min corner is the origin.
    """
    pts = _max_clique(_lattice(0, s + 2, dim), Norm(kind, dim), s)
    return _as_offsets(pts - pts.min(axis=0))


def max_clique_info(norm: Norm, s: int) -> CliqueResult:
    offsets = _tau_s_cached(norm.kind, norm.dim, s)
    return CliqueResult(members=frozenset(offsets))


def build_grid(params: ModelParams, s: int) -> GridModel:
    if s < 3:
        raise ValueError("need s >= 3")
    m = int(math.floor(s / params.r))
    if m < 2 * s + 3:
        raise ValueError(f"grid too coarse: m={m} < 2s+3={2 * s + 3}")
    norm = params.norm
    return GridModel(s, m, params.n, params.r, norm, _tau_s_cached(norm.kind, norm.dim, s))


def tiny_grid(norm: Norm, m: int, s: int, n: float) -> GridModel:
    """Grid for exact-enumeration oracles; bypasses the m >= 2s+3 precondition."""
    clique = _as_offsets(_max_clique(_lattice(0, m, norm.dim), norm, s, m))
    return GridModel(s, m, n, s / m, norm, clique)


def clique_translate(grid: GridModel, anchor: CellIndex) -> frozenset:
    """The canonical maximal clique set translated to an anchor cell."""
    return frozenset(_index_tuples(_translate(grid, anchor, grid.clique_offsets)[0], grid.shape))


def enumerate_max_clique_sets(grid: GridModel, anchor: CellIndex, cap: int = 1000) -> list:
    """All maximum-cardinality diameter<=s index sets containing `anchor` (up to cap).

    Their cells lie within metric s of the anchor: on the window of
    `_cell_range` around it, or anywhere on a grid too small for the window.
    """
    coords, wrap = _cell_range(grid.s, grid.m, grid.norm.dim)
    cells = _translate(grid, anchor if wrap is None else (0,) * grid.norm.dim, coords)[0]
    order, nbrs = _clique_graph(coords, grid.norm, grid.s, wrap)
    a = int(np.flatnonzero(cells[order] == np.ravel_multi_index(anchor, grid.shape))[0])
    found = _clique_search(nbrs, [a], nbrs[a], grid.tau_s - 1, cap)
    index = _index_tuples(cells, grid.shape)
    return [frozenset(index[order[v]] for v in clique) for clique in found]


def set_diameter(members, grid: GridModel) -> int:
    """Largest pairwise cell metric within `members` (0 for fewer than two
    cells); exact at any size, in memory linear in the set."""
    cells = _index_rows(_cell_set(members, grid), grid.shape)
    return max((int(b.max()) for b in _metric_blocks(cells, cells, grid.norm, grid.m)), default=0)


def is_maximal_clique_set(members, grid: GridModel) -> bool:
    """Pairwise diameter <= s, and no cell outside the set is within metric s
    of every member.  Such a cell neighbours each member, so the candidates
    are the neighbours of any one member.  The empty set is not maximal:
    any one cell can join it."""
    flat = _cell_set(members, grid)
    cells = _index_rows(flat, grid.shape)
    if len(cells) == 0 or set_diameter(cells, grid) > grid.s:
        return False
    near = _translate(grid, cells[:1], neighbor_offsets(grid))
    cand = _index_rows(_setdiff(near, flat), grid.shape)
    blocks = _metric_blocks(cand, cells, grid.norm, grid.m)
    return not any((b.max(axis=1) <= grid.s).any() for b in blocks)


# ---------------------------------------------------------------------------
# configurations


def coarsen(ps: PointSet, grid: GridModel) -> CellConfig:
    m = grid.m
    cells = np.minimum((ps.points * m).astype(np.int64), m - 1)
    flat = np.ravel_multi_index(cells.T, grid.shape)
    return CellConfig(np.bincount(flat, minlength=grid.num_cells), grid)


def _draw_cells(g, grid: GridModel, out: np.ndarray, Dp: float | None = None, plant_all: bool = False):
    """Count R = len(out) independent cell configurations into `out`, a
    caller-owned C-contiguous (R, m^d) buffer that it zeroes first, drawn as
    points and added per cell by `np.add.at`.  The replica loop passes one
    float32 buffer for all its chunks (2 MiB at most above 512 cells, so it
    stays in a core's L2 cache through the draw and the count), which its
    |E_s| contraction reads with BLAS dots, and a float64 buffer for a chunk
    it redraws; a single config passes a fresh int64 row, which `CellConfig`
    keeps without a copy.

    `g` is one generator for all R rows, or a sequence of R generators, one
    per row.  Each generator draws its B rows (R, or 1) alone and in this
    order, so a row of its own is the draw of a batch of one from the same
    generator.  Without Dp it draws N ~ Pois(B m^d D) uniform flat indices
    row * m^d + cell in [0, B m^d): every cell of every row is an
    independent Poisson(D).  With Dp > D it draws, in order, B coins (a row
    is planted when its coin is < 1/2, or always with `plant_all`), B
    uniform anchor cells, the same base points, and K ~ Pois(P tau_s
    (Dp - D)) extra points, uniform over the tau_s translated clique-set
    cells of its P planted rows.  By superposition those cells are then
    Poisson(Dp), independently.  The counts are integers, exact in float32
    below 2^24 points a cell, which the |E_s| certificate covers.
    Generators are independent, so it takes every generator's coins and
    anchors, then every generator's base points, counted in one
    `np.add.at` and freed before the extra points are drawn and counted in
    one more (holding a 65536-row chunk's base points longer cost about
    1 000 more minor page faults and 2 ms a draw).

    Returns (anchors, clique, totals): the anchors as (R, d) index rows and
    each row's clique-set cells as (R, tau_s) flat indices in
    `clique_offsets` order, both None without Dp; and each row's point count
    N + K as an (R,) int64 array when every row has its own generator, else
    None (a shared generator's points are not split by row)."""
    R, M = out.shape
    gens = [g] if isinstance(g, np.random.Generator) else g
    B = R // len(gens)
    D, tau = grid.D, grid.tau_s
    anchors = clique = None
    if Dp is not None:
        coins, anchor_cells = zip(*[((gb.random(B) < 0.5) | plant_all, gb.integers(M, size=B)) for gb in gens])
        planted = _joined(coins)
        anchors = _index_rows(_joined(anchor_cells), grid.shape)
        clique = _translate(grid, anchors, grid.clique_offsets)
    flat = out.reshape(-1)
    flat.fill(0)
    totals = _add_points(  # the base points list dies here, before the extra points are drawn
        flat, [gb.integers(B * M, size=gb.poisson(B * M * D)) for gb in gens], [B * M] * len(gens)
    )
    if Dp is not None:
        own = [np.count_nonzero(c) * tau for c in coins]  # each generator's clique-set cells
        cells = (clique + M * np.arange(R)[:, None])[planted].ravel()
        extra = [gb.integers(k, size=gb.poisson(k * (Dp - D))) for gb, k in zip(gens, own)]
        totals = [n + k for n, k in zip(totals, _add_points(flat, extra, own, cells))]
    return anchors, clique, (np.array(totals, dtype=np.int64) if B == 1 else None)


def _add_points(flat: np.ndarray, parts: list, widths: list, cells=None) -> list:
    """Add 1 to `flat` once per point, in one `np.add.at`: part b's indices
    are shifted (in place) past the widths of the parts before it, then
    mapped through `cells` when it is given.  Returns each part's point
    count."""
    start = 0
    for points, width in zip(parts, widths):
        if start:
            points += start
        start += width
    idx = _joined(parts)
    one = flat.dtype.type(1)  # np.add.at takes a 40x slower loop for a 1 of another dtype
    np.add.at(flat, idx if cells is None else cells[idx], one)
    return [len(points) for points in parts]


def _joined(parts: list) -> np.ndarray:
    """np.concatenate(parts), without copying a lone part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sample_cell_config(grid: GridModel, seed: int, replica: int = 0) -> CellConfig:
    """Replica's nominal configuration: the base points of `_draw_cells` from
    `rng.generator(seed, replica)`."""
    counts = np.empty((1, grid.num_cells), dtype=np.int64)
    _draw_cells(rng.generator(seed, replica), grid, counts)
    return CellConfig(counts[0], grid)


def _wrapped_slices(o, m: int) -> list:
    """The slice pairs (a, b) over the trailing len(o) axes for which x[a] and
    x[b] line up every cell I with I + o mod m: per axis, a shift k = o_k mod m
    splits into [0, m-k) -> [k, m) and [m-k, m) -> [0, k), the second empty
    when k = 0, so at most 2^d pairs."""
    pairs = [((...,), (...,))]
    for c in o:
        k = c % m
        cuts = [(slice(0, m - k), slice(k, m)), (slice(m - k, m), slice(0, k))][: 1 + (k > 0)]
        pairs = [(a + (sa,), b + (sb,)) for a, b in pairs for sa, sb in cuts]
    return pairs


def _shift_sum(x: np.ndarray, offsets) -> np.ndarray:
    """out[..., I] = sum over o in `offsets` of x[..., I + o], wrapped mod m on
    the trailing len(o) axes; leading axes are a batch.  Each wrapped shift is
    gathered into one reused buffer and added whole: at d >= 2 the slices are
    strided, and a strided add into `out` in place is slower than a strided
    copy plus a contiguous add (3.5 vs 2.2 ms over the 32 clique offsets at
    280^2 on a 2-core x86 VM)."""
    out = np.zeros_like(x)
    shifted = np.empty_like(x)
    for o in offsets:
        for a, b in _wrapped_slices(o, x.shape[-1]):
            shifted[a] = x[b]
        out += shifted
    return out


@lru_cache(maxsize=64)
def _edge_terms_cached(kind: str, dim: int, s: int, m: int) -> tuple:
    """The terms of 2|E_s| as (weight, wrapped slice pairs): the zero offset
    with weight 1, then one offset o of each {o, -o} pair of the neighbour
    offsets, with weight 2, or 1 when o = -o mod m (tiny grids), which
    already meets every pair of cells twice."""
    terms = [(1, tuple(_wrapped_slices((0,) * dim, m)))]
    for o in _neighbor_offsets_cached(kind, dim, s, m):
        fwd, back = tuple(c % m for c in o), tuple(-c % m for c in o)
        if fwd <= back:
            terms.append((1 + (fwd < back), tuple(_wrapped_slices(o, m))))
    return tuple(terms)


def _pair_product(x: np.ndarray, pairs) -> np.ndarray:
    """sum_I x[..., I] * x[..., I + o] over the trailing axes that o's wrapped
    slice pairs cut: each pair is contracted along its last axis by a batched
    (1, k) @ (k, 1) product, a BLAS dot in x's dtype, and summed over the
    other trailing axes.  float32 dots are cast to float64 before that sum,
    so the sums past them, and the weighted sum of terms, stay exact above
    2^24."""
    rest = tuple(range(2 - len(pairs[0][0]), 0))
    out = 0
    for a, b in pairs:
        dots = (x[a][..., None, :] @ x[b][..., :, None])[..., 0, 0]
        if dots.dtype == np.float32:
            dots = dots.astype(np.float64)
        out = out + (dots.sum(axis=rest) if rest else dots)
    return out


def _sgraded_edge_counts(x: np.ndarray, grid: GridModel, total=None) -> np.ndarray:
    """|E_s| of each lattice in x, shape (..., *grid.shape), as int64.
    `total` is each lattice's sum x when the caller already knows it (the
    replica loop takes it from the draw); otherwise it is summed here.

    Twice the count is sum x^2 - sum x, plus 2 sum_I X_I X_{I+o} for one
    offset o of each {o, -o} pair of `neighbor_offsets`, plus the product
    once for an offset with o = -o mod m (`_edge_terms_cached`).  Every
    partial sum is an integer of size at most (sum x)^2, so the count is
    exact in any summation order when (sum x)^2 stays below 2^53 for
    float64 input or 2^62 for int64; past its bound it raises OverflowError.
    float32 input (the replica loop's) must also pass a certificate: each
    row's computed sum x^2, the zero-offset term, is below 2^24.  A float32
    sum of nonnegative integers is exact until a partial sum reaches 2^24,
    and stays at or above 2^24 from there, so that proves the term exact;
    every other term is at most sum x^2 (Cauchy-Schwarz) and exact too.
    The dots are summed past that in float64.  A row that fails raises
    OverflowError, which the replica loop answers by redrawing the chunk
    from the same streams in float64."""
    d = grid.norm.dim
    if total is None:
        total = x.sum(axis=tuple(range(x.ndim - d, x.ndim)))
    bound = 2.0**53 if x.dtype.kind == "f" else 2.0**62
    if (np.asarray(total, dtype=float) ** 2 >= bound).any():
        raise OverflowError(f"edge count would not be exact in {x.dtype}")
    (_, zero), *terms = _edge_terms_cached(grid.norm.kind, d, grid.s, grid.m)
    squares = _pair_product(x, zero)
    if x.dtype == np.float32 and (squares >= 2.0**24).any():
        raise OverflowError("edge count not certified exact in float32")
    twice = squares - total
    for weight, pairs in terms:
        twice = twice + weight * _pair_product(x, pairs)
    twice = twice.astype(np.int64)
    assert (twice % 2 == 0).all()
    return twice // 2


def sgraded_edge_count(cfg: CellConfig) -> int:
    """|E_s| = sum_I [C(X_I,2) + 1/2 sum_{0<d(I,J)<=s} X_I X_J], exact."""
    return int(_sgraded_edge_counts(cfg.lattice(), cfg.grid))


# ---------------------------------------------------------------------------
# hulls and inscribed balls (the geometric side of the localization argument)

_REFINE = 8  # inscribed-ball centers per cell per axis


def _interval_dists(c, lo, length, period: float = 1.0):
    """Per-axis (min, max) distance from c to the interval [lo, lo+length] on
    a circle of circumference `period`; arrays broadcast."""
    u = np.mod(c - lo, period)
    dmin = np.where(u <= length, 0.0, np.minimum(u - length, period - u))
    # farthest point: an endpoint, unless the antipode falls inside the interval
    u1 = np.mod(c - (lo + length), period)
    ends = np.maximum(np.minimum(u, period - u), np.minimum(u1, period - u1))
    dmax = np.where(np.mod(c + period / 2 - lo, period) <= length, period / 2, ends)
    return dmin, dmax


def _cell_relation(S: Probe, m: int):
    """The cells that could meet S (a wrapped per-axis index range around it)
    as an (N, d) array, with the masks (intersects, contained); exact for
    monotone norms."""
    ball = S if isinstance(S, Ball) else getattr(S, "ball", None)
    box = S if isinstance(S, Box) else getattr(S, "box", None)
    if box is None:
        los = np.asarray(ball.center) - ball.radius
        lens = np.full(len(los), 2 * ball.radius)
    else:
        los, lens = np.asarray(box.corner), np.asarray(box.sides)
    first = np.floor(np.mod(los, 1.0) * m).astype(np.int64) - 1
    counts = np.minimum(np.ceil(lens * m).astype(np.int64) + 3, m)
    axes = [(a + np.arange(k)) % m for a, k in zip(first, counts)]
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    lo = cells / m
    inter = cont = np.ones(len(cells), dtype=bool)
    if ball is not None:
        center = np.asarray(ball.center)
        dmin, dmax = _interval_dists(center, lo, 1.0 / m)
        inter = ball.norm.length(dmin) <= ball.radius
        cont = ball.norm.length(dmax) <= ball.radius
    if box is not None:
        corner, sides = np.asarray(box.corner), np.asarray(box.sides)
        u = np.mod(lo - corner, 1.0)  # cell start in box coordinates
        head = u <= sides
        inter = inter & (head | (u >= 1.0 - 1.0 / m)).all(axis=-1)
        cont = cont & (u + 1.0 / m <= sides + 1e-12).all(axis=-1)
    if ball is not None and box is not None:
        # the cell∩box overlap is a box: its closest point must lie in the ball
        start = np.where(head, u, 0.0)
        end = np.minimum(np.where(head, u + 1.0 / m, u + 1.0 / m - 1.0), sides)
        gap = _interval_dists(center, np.mod(corner + start, 1.0), end - start)[0]
        inter = inter & (ball.norm.length(gap) <= ball.radius)
    return cells, inter, cont


def outer_hull(S: Probe, grid: GridModel) -> frozenset:
    """{I : A_I ∩ S nonempty}."""
    cells, inter, _ = _cell_relation(S, grid.m)
    return frozenset(map(tuple, cells[inter].tolist()))


def inner_hull(S: Probe, grid: GridModel) -> frozenset:
    """{I : A_I ⊆ S} (closed containment)."""
    cells, _, cont = _cell_relation(S, grid.m)
    return frozenset(map(tuple, cells[cont].tolist()))


@dataclass(frozen=True)
class IndexUnion:
    """The region 𝔘(W) = union of cells of W, as measure + membership."""

    members: frozenset
    grid: GridModel

    @property
    def measure(self) -> float:
        return len(self.members) / self.grid.num_cells

    def contains(self, x) -> bool:
        m = self.grid.m
        cell = tuple(min(int(c * m), m - 1) for c in np.asarray(x, dtype=float))
        return cell in self.members


def index_union(members, grid: GridModel) -> IndexUnion:
    return IndexUnion(members=frozenset(_index_tuples(_cell_set(members, grid), grid.shape)), grid=grid)


def inscribed_ball_diameter(members, grid: GridModel) -> float:
    """Largest ball diameter that fits inside the union of the member cells.

    Centers are searched on a sub-grid with _REFINE points per cell per axis,
    so the result is a lower bound with resolution ~ (1/m)/_REFINE.  A center's
    distance to the complement is its distance to the nearest non-member cell
    of the set's 3^d neighborhood (the nearest complement point lies on the
    union's boundary), with per-axis gaps measured on the circle of m cells.

    That distance is 1-Lipschitz in the norm (per-axis gaps are 1-Lipschitz,
    and the norm is monotone and obeys the triangle inequality), so no center
    of a cell lies farther from the complement than the cell's middle does
    plus the norm of ((R-1)/(2R), ...), R = _REFINE.  Cells are scored in
    decreasing order of that bound (plus a 1e-9 float margin), and the scan
    stops at the first cell whose bound cannot beat the best center so far:
    the result is the maximum over every center, exactly as a full scan.
    """
    m = grid.m
    d = grid.norm.dim
    flat = _cell_set(members, grid)
    if not len(flat):
        raise ValueError("empty index set")
    cells = _index_rows(flat, grid.shape)
    ring = _index_rows(_setdiff(_translate(grid, cells, _lattice(-1, 2, d)), flat), grid.shape)
    if not len(ring):
        raise ValueError("the member cells cover the torus")
    # per-axis gap table, in cell units: [cell coordinate, position in the
    # cell, ring coordinate], with positions the _REFINE sub-grid offsets and
    # then the middle
    cv, rv = _unique(cells), _unique(ring)
    ci, ri = np.searchsorted(cv, cells), np.searchsorted(rv, ring)
    frac = np.append((np.arange(_REFINE) + 0.5) / _REFINE, 0.5)
    table = _interval_dists((cv[:, None] + frac)[..., None], rv, 1.0, period=m)[0]
    chunk = max(1, 2**16 // len(ring))

    def dist(w, pos):
        """Distance to the ring of position `pos` ((k, 1, d) or scalar) in cells `w`."""
        return grid.norm.length(table[ci[w, None, :], pos, ri]).min(axis=1)

    middles = [dist(slice(i, i + chunk), _REFINE) for i in range(0, len(cells), chunk)]
    slack = float(grid.norm.length(np.full(d, (_REFINE - 1) / (2 * _REFINE))))
    bound = np.concatenate(middles) + slack + 1e-9
    order = np.argsort(-bound, kind="stable")
    # the centers of the cells in `order`, at most one cell's worth at a time
    sub = _lattice(0, _REFINE, d)[:, None, :]
    per, total = len(sub), len(cells) * len(sub)
    step = min(chunk, per)
    best = 0.0
    for i in range(0, total, step):
        if bound[order[i // per]] <= best:
            break
        t = np.arange(i, min(i + step, total))
        best = max(best, float(dist(order[t // per], sub[t % per]).max()))
    return 2.0 * best / m


# ---------------------------------------------------------------------------
# serialization


def dump_config_csv(cfg: CellConfig) -> str:
    """Header `i0,...,i{d-1},count`, then one row per nonzero cell in C order."""
    d = cfg.grid.norm.dim
    nz = np.flatnonzero(cfg.counts)
    rows = np.stack([*np.unravel_index(nz, cfg.grid.shape), cfg.counts[nz]], axis=-1)
    header = ",".join(f"i{k}" for k in range(d)) + ",count\n"
    line = ",".join(["%d"] * (d + 1)) + "\n"
    return header + (line * len(rows)) % tuple(rows.ravel().tolist())


_BLANK_LINE = re.compile(r"^[ \t\v\f]+$", re.MULTILINE)


def load_config_csv(text: str, grid: GridModel) -> CellConfig:
    """Inverse of `dump_config_csv`; the first line is a header, blank lines,
    blanks around fields and CR/CRLF line ends are accepted.  It raises
    ValueError on a row without exactly d + 1 comma-separated int64 fields, a
    character that is not ASCII, an index outside the grid and a cell given
    on two rows."""
    body = text.strip().replace("\r", "\n").partition("\n")[2]
    # loadtxt strips any Python whitespace around a field, not only blanks
    if not body.isascii() or any(c in body for c in "\x1c\x1d\x1e\x1f"):
        raise ValueError("a row holds a non-ASCII or 0x1c-0x1f character")
    # loadtxt skips empty lines, but reads a blank-only line as one field
    if any(c in body for c in " \t\v\f"):
        body = _BLANK_LINE.sub("", body)
    width = grid.norm.dim + 1
    rows = np.empty((0, width), dtype=np.int64)
    if body.strip():
        try:
            # numpy 1.23 on, until the fallback went, casts a field that fails
            # as an integer (1.5, 1e2, 2**63) from a float and only warns
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, DeprecationWarning) as err:
            raise ValueError(f"a row does not hold {width} comma-separated fields of int64: {err}") from err
    if rows.shape[1] != width:
        raise ValueError(f"{len(rows)} rows need {len(rows) * width} integers, got {rows.size}")
    cells = np.ravel_multi_index(rows[:, :-1].T, grid.shape)
    ordered = np.sort(cells)  # np.unique takes 40x longer on 1e5 sorted rows
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("a cell is given on more than one row")
    counts = np.zeros(grid.num_cells, dtype=np.int64)
    counts[cells] = rows[:, -1]
    return CellConfig(counts, grid)
