"""Deterministic localization pipeline and theorem-event certification.

The pipeline reads a cell configuration and extracts, in order:
  frakI  — cells whose count exceeds the big-cell cutoff M;
  frakT  — the shortest prefix of frakI (sorted by count, descending) whose
           normalized vertex mass V exceeds 1 - 2*xi/log(n);
  frakP  — the members of frakT whose count exceeds xi^{1/4} q / tau_s.

The three stages exchange sorted C-order flat int64 cell indices, and the
report keeps them so: it turns a set into a sorted tuple of index tuples only
when that set is read, and into index rows when it is written.  On a localized
configuration frakP is a maximal clique set carrying nearly all excess
vertices; the certification report checks exactly that, clause by clause,
and never throws on non-localized inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .geometry import (
    Ball,
    BallBoxIntersection,
    Box,
    Norm,
    probe_contains,
    probe_measure,
    torus_distance,
    wrapped_delta,
)
from .grid import (
    CellConfig,
    GridModel,
    _in_sorted,
    _index_rows,
    _index_tuples,
    _lattice,
    _unique,
    build_grid,
    set_diameter,
    sgraded_edge_count,
)
from .points import ModelParams, PointSet
from .stats import DerivedScales, Q_internal, V_count, _pair_sums


class InsufficientMassError(ValueError):
    """The big-cell set does not carry enough vertex mass to localize."""


def extract_bulk_exceedance(cfg: CellConfig, scales: DerivedScales) -> np.ndarray:
    """frakI = {I : X_I > M}.  Counts are whole numbers, so X_I > M exactly
    when X_I > floor(M), a compare in the counts' own dtype."""
    return np.flatnonzero(cfg.counts > math.floor(scales.M))


def extract_T(cfg: CellConfig, frakI: np.ndarray, scales: DerivedScales) -> np.ndarray:
    """Shortest prefix of the big-cell list, sorted by count descending with ties
    to the lower flat index, with V > 1 - 2 xi / log n.

    The cells whose count reaches a cut are a head of that order, with the
    list's own running sums, so only the head is sorted.  The cut starts at
    half the largest count; while the head's mass falls short, it drops to
    half the smaller of the cut and the count still missing (one cell at
    that count would close the gap), down to the whole list."""
    threshold = 1.0 - 2.0 * scales.xi / math.log(scales.n)
    counts = cfg.counts[frakI]
    cut = int(counts.max(initial=0)) // 2
    while True:
        head = np.flatnonzero(counts >= cut)
        # frakI is sorted, so the stable sort hands ties to the lower index
        order = head[np.argsort(-counts[head], kind="stable")]
        acc = np.cumsum(counts[order] / scales.q)
        above = np.flatnonzero(acc > threshold)
        if len(above):
            return np.sort(frakI[order[: above[0] + 1]])
        if len(head) == len(counts):
            break
        cut = int(min(cut, (threshold - acc[-1]) * scales.q)) // 2
    total = float(acc[-1]) if len(acc) else 0.0
    raise InsufficientMassError(
        f"insufficient mass: V(frakI) = {total:.6g} <= {threshold:.6g}"
    )


def extract_P(cfg: CellConfig, frakT: np.ndarray, scales: DerivedScales) -> np.ndarray:
    """Filter frakT by the very-large-cell threshold xi^{1/4} q / tau_s."""
    cut = scales.xi**0.25 * scales.q / cfg.grid.tau_s
    return frakT[cfg.counts[frakT] > cut]


def _top_cells(counts: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k largest counts, by count descending with ties to
    the lower flat index (extract_T's rule).  The k-th largest of the maxima
    of at least k blocks is at most the k-th largest count, so only the cells
    at or above it are sorted: no sort or selection runs over the whole grid,
    where small tied counts make `np.partition` slower than a full sort."""
    k = min(k, counts.size)
    step = max(1, counts.size // max(k, 1024))
    blocks = np.maximum.reduceat(counts, np.arange(0, counts.size, step))
    bound = np.partition(blocks, blocks.size - k)[blocks.size - k]
    above = np.flatnonzero(counts >= bound)
    return above[np.argsort(-counts[above], kind="stable")[:k]]


def _report_json(report, schema: str, **cells) -> str:
    """A report as sorted-key JSON: its schema and every public field, tuples
    as arrays, plus `cells`, each a cell set as (k, d) index rows."""
    doc = {f.name: getattr(report, f.name) for f in fields(report) if f.name[0] != "_"}
    doc.update((key, rows.tolist()) for key, rows in cells.items())
    return json.dumps({"schema": schema, **doc}, sort_keys=True)


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """Theorem-2 clauses of one config.

    `_frakI`, `_frakT` and `_frakP` are the stages' sorted C-order flat int64
    cell indices into the grid shape `_shape`, made read-only.  The `frakI`,
    `frakT` and `frakP` properties derive each set as a sorted tuple of index
    tuples on first read and keep it.  A report holds arrays, so reports
    compare by identity."""

    _shape: tuple
    _frakI: np.ndarray
    _frakT: np.ndarray
    _frakP: np.ndarray
    diamP: int
    cardP: int
    max_dev_inside: float
    max_ratio_outside: float
    QP: float
    thm2_pass: bool
    eps_tilde: float
    insufficient_mass: bool

    def __post_init__(self):
        for flat in (self._frakI, self._frakT, self._frakP):
            flat.flags.writeable = False

    @cached_property
    def frakI(self) -> tuple:
        return _index_tuples(self._frakI, self._shape)

    @cached_property
    def frakT(self) -> tuple:
        return _index_tuples(self._frakT, self._shape)

    @cached_property
    def frakP(self) -> tuple:
        return _index_tuples(self._frakP, self._shape)

    def to_json(self) -> str:
        return _report_json(
            self,
            "thm2_report.v1",
            frakI=_index_rows(self._frakI, self._shape),
            frakT=_index_rows(self._frakT, self._shape),
            frakP=_index_rows(self._frakP, self._shape),
        )


def certify_thm2(
    cfg: CellConfig,
    grid: GridModel,
    scales: DerivedScales,
    eps_tilde: float = 0.2,
) -> LocalizationReport:
    """Run the pipeline and check the localization event at tolerance eps_tilde."""
    frakI = extract_bulk_exceedance(cfg, scales)
    insufficient = False
    try:
        frakT = extract_T(cfg, frakI, scales)
    except InsufficientMassError:
        frakT = frakI[:0]
        insufficient = True
    frakP = extract_P(cfg, frakT, scales)
    card = len(frakP)
    ratio = grid.tau_s / scales.q
    # every cell outside frakI counts at most M, below any cell in it, so the
    # largest count outside frakP is in frakI - frakP whenever that is nonempty
    outside = ~_in_sorted(frakI, frakP)
    if outside.any():
        top_out = cfg.counts[frakI[outside]].max()
    else:
        in_mask = np.zeros(grid.num_cells, dtype=bool)
        in_mask[frakP] = True
        top_out = cfg.counts.max(where=~in_mask, initial=0)
    dev_out = float(top_out * ratio)
    if card:
        rows = _index_rows(frakP, grid.shape)
        diam = set_diameter(rows, grid)
        dev_in = float(np.abs(cfg.counts[frakP] * ratio - 1.0).max())
        qp = Q_internal(rows, cfg, scales)
    else:
        diam, dev_in, qp = 0, math.inf, 0.0
    ok = (
        card >= grid.tau_s
        and diam <= grid.s
        and dev_in < eps_tilde
        and dev_out <= eps_tilde
    )
    return LocalizationReport(
        _shape=grid.shape,
        _frakI=frakI,
        _frakT=frakT,
        _frakP=frakP,
        diamP=diam,
        cardP=card,
        max_dev_inside=dev_in,
        max_ratio_outside=dev_out,
        QP=qp,
        thm2_pass=ok,
        eps_tilde=eps_tilde,
        insufficient_mass=insufficient,
    )


def localization_profile(cfg: CellConfig, grid: GridModel, scales: DerivedScales) -> dict:
    """Summary functionals for plotting: Q split across frakP, V, top counts.

    On grids of at most 1e5 cells the profile adds Q(frakP, frakP^c) and
    Q(frakP^c), with exact integer pair counts taken at the members of frakP
    only: the complement's pairs are |E_s| - pairs(frakP) - cross(frakP, frakP^c).
    """
    report = certify_thm2(cfg, grid, scales)
    frakP = report._frakP
    top = cfg.counts[_top_cells(cfg.counts, 20)]
    out = {
        "V_P": V_count(_index_rows(frakP, grid.shape), cfg, scales),
        "Q_P": report.QP,
        "top_counts": [int(v) for v in top],
        "cardP": report.cardP,
        "diamP": report.diamP,
    }
    if grid.num_cells <= 100_000:
        within, cross2, total = _pair_sums(cfg, frakP)
        cross = total - cross2
        comp = sgraded_edge_count(cfg) - (within + cross2 // 2) - cross
        out["Q_P_comp"] = (2.0 / scales.q**2) * cross
        out["Q_comp"] = (2.0 / scales.q**2) * comp
    return out


# ---------------------------------------------------------------------------
# Theorem-1-style continuum certification


@dataclass(frozen=True)
class Thm1Report:
    center: tuple
    r: float
    delta: float
    eps: float
    target: float  # sqrt(2 delta mu)
    count_A: int
    clause_a_margin_SA: float
    clause_a_pass_SA: bool
    clause_a_worst: float
    clause_a_worst_probe: str
    clause_a_pass: bool
    clause_b_worst: float
    clause_b_pass: bool
    n_probes_a: int
    n_probes_b: int

    def to_json(self) -> str:
        return _report_json(self, "thm1_report.v1")


def _wrapped_near(x: np.ndarray, center, reach: float) -> np.ndarray:
    """The rows of x whose wrapped gap to `center` is at most `reach` on every axis."""
    return x[(wrapped_delta(x, center) <= reach).all(axis=-1)]


def _densest_window(cells: np.ndarray, offsets: np.ndarray, m: int) -> np.ndarray:
    """Anchor of the clique window holding the most points on the m^d torus,
    the lowest C-order flat index among ties: a point in cell c adds one to
    each anchor c - o.  The offsets lie in [0, w]^d with w < m, so every
    anchor lies in [-w, m) per axis: the anchors are counted by one bincount
    on the padded (m + w)^d lattice, with no wrap per point, and each axis's
    margin [0, w) is then added onto [m, m + w), where its anchors belong
    mod m, and set to -1.  The padded lattice orders its interior
    [w, m + w)^d as C order on m^d does, so the first maximum of the whole
    padded array is the first maximum of the windows."""
    d = cells.shape[1]
    w = int(offsets.max())
    side = m + w
    strides = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    flat = ((cells + w) @ strides)[:, None] - offsets @ strides
    pad = np.bincount(flat.ravel(), minlength=side**d).reshape((side,) * d)
    for axis in range(d):
        view = np.moveaxis(pad, axis, 0)
        view[m:] += view[:w]
        view[:w] = -1
    return _index_rows(int(np.argmax(pad)), pad.shape) - w


def _densest_ball_center(ps: PointSet, params: ModelParams, s: int = 5) -> tuple:
    """Candidate ball center: densest clique-window centroid, locally refined.

    The window anchored at cell I holds the points of the cells I + o, o in
    the clique offsets, and `_densest_window` counts it at every anchor,
    anchors that no point reaches scoring 0.  The first maximum (lowest
    flat index) wins.  Each of the 5^d refined candidates, within 1/m of the
    window's centroid on every axis, counts only the points within
    r/2 + 1/m of that centroid per axis, a superset of its ball's points."""
    grid = build_grid(params, s)
    m = grid.m
    offsets = np.array(grid.clique_offsets, dtype=np.int64)
    cells = np.minimum((ps.points * m).astype(np.int64), m - 1)
    anchor = _densest_window(cells, offsets, m)
    base = (anchor + offsets.mean(axis=0) + 0.5) / m % 1.0
    # 5-per-axis local refinement of the center at stride (1/m)/2; the first
    # candidate with the most points in its ball of radius r/2 wins
    radius = params.r / 2.0
    cands = (base + (0.5 / m) * _lattice(-2, 3, params.norm.dim)) % 1.0
    near = _wrapped_near(ps.points, base, radius + 1.0 / m + 1e-9)
    hits = torus_distance(near[None, :, :], cands[:, None, :], params.norm) <= radius
    return tuple(cands[int(np.argmax(hits.sum(axis=1)))])


def _clause_a_probes(A: Ball, eps: float, tau: float) -> list:
    """Probes S ⊆ A with measure above (eps/16) tau, as (label, S, measure):
    concentric balls at 0.4, 0.6, 0.8 and 1.0 of the radius, the inscribed
    cube and one ball∩box."""
    d = A.norm.dim
    out = [(f"ball_f{f:g}", Ball(A.center, A.radius * f, A.norm)) for f in (0.4, 0.6, 0.8, 1.0)]
    # largest centered cube inside A: half-side = radius (Linf), radius/d (L1),
    # radius/sqrt(d) (L2)
    scale = {"linf": 1.0, "l2": 1.0 / math.sqrt(d), "l1": 1.0 / d}[A.norm.kind]
    half = A.radius * scale * 0.999
    corner = tuple((c - half) % 1.0 for c in A.center)
    out.append(("inscribed_box", Box(corner=corner, sides=(2 * half,) * d)))
    half = A.radius * 0.8
    corner = tuple((c - half * 0.2) % 1.0 for c in A.center)
    box = Box(corner=corner, sides=(half,) * d)
    out.append(("ball_box", BallBoxIntersection(ball=A, box=box)))
    floor = (eps / 16.0) * tau
    return [(name, S, v) for name, S in out if (v := probe_measure(S)) > floor]


def _tile_counts(points: np.ndarray, kgrid: int, r: float, norm: Norm) -> np.ndarray:
    """The points within r/2 of each tile center (idx + 1/2) / kgrid, as a
    C-order flat count per tile.  A tile's side 1/kgrid is at least r/2, so a
    tile two or more away on some axis has its center more than r/2 from the
    point; kgrid >= 4 since r < 1/2, so the 3^d tiles around a point's own are
    distinct, and each point is tested against those only.  Each axis gives
    its 3 candidate tiles and their wrapped gaps, and the 3^d distances are
    combined from them by broadcasting with the norm's own operation in axis
    order (max, running sum, or running sum of squares then sqrt), the float
    operations `torus_distance` does, so the hits are the same."""
    d = norm.dim
    stride = 1.0 / kgrid
    own = np.minimum(np.floor(points / stride).astype(np.int64), kgrid - 1)
    tiles = (own[:, :, None] + np.arange(-1, 2)) % kgrid  # (N, d, 3)
    gaps = wrapped_delta(points[:, :, None], (tiles + 0.5) * stride)
    if norm.kind == "l2":
        gaps = gaps * gaps

    def along(a, k):  # axis k's three entries on broadcast axis k + 1
        return a[:, k].reshape((-1,) + (1,) * k + (3,) + (1,) * (d - 1 - k))

    dist = along(gaps, 0)
    flat = along(tiles, 0) * kgrid ** (d - 1)
    for k in range(1, d):
        dist = np.maximum(dist, along(gaps, k)) if norm.kind == "linf" else dist + along(gaps, k)
        flat = flat + along(tiles, k) * kgrid ** (d - 1 - k)
    if norm.kind == "l2":
        dist = np.sqrt(dist)
    return np.bincount(flat[dist <= r / 2.0], minlength=kgrid**d)


def _tiles_near(center: np.ndarray, kgrid: int, r: float, norm: Norm) -> np.ndarray:
    """Flat indices of the tiles whose center lies within r of `center`.  Such a
    tile is at most r kgrid + 1/2 tiles from the center's own on every axis,
    so only a window of floor(r kgrid) + 1 tiles each side is tested."""
    d = norm.dim
    stride = 1.0 / kgrid
    own = np.minimum(np.floor(center / stride).astype(np.int64), kgrid - 1)
    w = int(r * kgrid) + 1
    axes = [_unique((c + np.arange(-w, w + 1)) % kgrid) for c in own]
    window = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    close = torus_distance((window + 0.5) * stride, center, norm) <= r
    return np.ravel_multi_index(window[close].T, (kgrid,) * d)


def certify_thm1(
    ps: PointSet,
    params: ModelParams,
    delta: float,
    eps: float,
    s: int = 5,
) -> Thm1Report:
    """Evaluate the localization event on a continuum sample.

    Clause (a): for probes S inside the candidate ball A,
        | |χ(S)|/sqrt(2 delta mu) - λ(S)/τ | < eps.
    Clause (b): for balls S of diameter r disjoint from A,
        |χ(S)|/sqrt(2 delta mu) < eps λ(S)/τ.

    Every clause-(a) probe lies in A, so A and each probe are counted among
    the points of A's bounding box only.  The box is widened by a relative
    1e-9 and an absolute 1e-12: a norm never rounds below a per-axis gap, so
    the margin is a guard, not a correction.  Clause (b) tiles the torus with
    balls of diameter r centered at stride 1/kgrid >= r/2, kgrid =
    floor(2/r): every point is tested against the 3^d tile centers around
    it, and the tiles whose center lies within r of A's (their balls may meet
    A) are found in a window around A's tile and skipped.
    """
    mu = params.mu
    tau = params.tau
    target = math.sqrt(2.0 * delta * mu)
    center = _densest_ball_center(ps, params, s=s)
    A = Ball(center=center, radius=params.r / 2.0, norm=params.norm)
    inside = _wrapped_near(ps.points, center, A.radius * (1.0 + 1e-9) + 1e-12)
    count_A = int(probe_contains(A, inside).sum())

    worst_a = -1.0
    worst_name = ""
    margin_sa = abs(count_A / target - 1.0)
    clause_a = _clause_a_probes(A, eps, tau)
    for name, S, measure in clause_a:
        k = int(probe_contains(S, inside).sum())
        margin = abs(k / target - measure / tau)
        if margin > worst_a:
            worst_a = margin
            worst_name = name

    # clause (b): tile ball probes at stride r/2, skip any that intersect A
    r = params.r
    kgrid = max(1, int(math.floor(2.0 / r)))
    counts = _tile_counts(ps.points, kgrid, r, params.norm)
    meets_A = _tiles_near(np.array(center), kgrid, r, params.norm)
    counts[meets_A] = 0
    worst_b = float(counts.max() / target)
    return Thm1Report(
        center=tuple(float(c) for c in center),
        r=params.r,
        delta=delta,
        eps=eps,
        target=target,
        count_A=count_A,
        clause_a_margin_SA=margin_sa,
        clause_a_pass_SA=margin_sa < eps,
        clause_a_worst=worst_a,
        clause_a_worst_probe=worst_name,
        clause_a_pass=worst_a < eps,
        clause_b_worst=worst_b,
        clause_b_pass=worst_b < eps,
        n_probes_a=len(clause_a),
        n_probes_b=kgrid**params.norm.dim - len(meets_A),
    )
