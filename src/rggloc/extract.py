"""Deterministic localization pipeline and theorem-event certification.

The pipeline reads a cell configuration and extracts, in order:
  frakI  — cells whose count exceeds the big-cell cutoff M;
  frakT  — the shortest prefix of frakI (sorted by count, descending) whose
           normalized vertex mass V exceeds 1 - 2*xi/log(n);
  frakP  — the members of frakT whose count exceeds xi^{1/4} q / tau_s.

The three stages exchange sorted C-order flat int64 cell indices; the report
holds each set as a sorted tuple of index tuples.  On a localized
configuration frakP is a maximal clique set carrying nearly all excess
vertices; the certification report checks exactly that, clause by clause,
and never throws on non-localized inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Ball, BallBoxIntersection, Box, probe_measure, torus_distance
from .grid import (
    CellConfig,
    GridModel,
    _index_tuples,
    _lattice,
    _shift_sum,
    build_grid,
    coarsen,
    set_diameter,
    sgraded_edge_count,
)
from .points import ModelParams, PointSet, close_pairs, count_in_probe
from .stats import DerivedScales, Q_internal, V_count, _mask, _pair_sums


class InsufficientMassError(ValueError):
    """The big-cell set does not carry enough vertex mass to localize."""


def extract_bulk_exceedance(cfg: CellConfig, scales: DerivedScales) -> np.ndarray:
    """frakI = {I : X_I > M}."""
    return np.flatnonzero(cfg.counts > scales.M)


def extract_T(cfg: CellConfig, frakI: np.ndarray, scales: DerivedScales) -> np.ndarray:
    """Shortest prefix of the big-cell list, sorted by count descending with ties
    to the lower flat index, with V > 1 - 2 xi / log n."""
    threshold = 1.0 - 2.0 * scales.xi / math.log(scales.n)
    counts = cfg.counts[frakI]
    # frakI is sorted, so the stable sort hands ties to the lower index
    order = np.argsort(-counts, kind="stable")
    acc = np.cumsum(counts[order] / scales.q)
    above = np.flatnonzero(acc > threshold)
    if len(above):
        return np.sort(frakI[order[: above[0] + 1]])
    total = float(acc[-1]) if len(acc) else 0.0
    raise InsufficientMassError(
        f"insufficient mass: V(frakI) = {total:.6g} <= {threshold:.6g}"
    )


def extract_P(cfg: CellConfig, frakT: np.ndarray, scales: DerivedScales) -> np.ndarray:
    """Filter frakT by the very-large-cell threshold xi^{1/4} q / tau_s."""
    cut = scales.xi**0.25 * scales.q / cfg.grid.tau_s
    return frakT[cfg.counts[frakT] > cut]


def _report_json(report, schema: str) -> str:
    """A report as sorted-key JSON: its schema and every field, tuples as arrays."""
    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    return json.dumps({"schema": schema, **doc}, sort_keys=True)


@dataclass(frozen=True)
class LocalizationReport:
    """Theorem-2 clauses of one config; frakI/T/P are sorted tuples of index tuples."""

    frakI: tuple
    frakT: tuple
    frakP: tuple
    diamP: int
    cardP: int
    max_dev_inside: float
    max_ratio_outside: float
    QP: float
    thm2_pass: bool
    eps_tilde: float
    insufficient_mass: bool

    def to_json(self) -> str:
        return _report_json(self, "thm2_report.v1")


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
    in_mask = np.zeros(grid.num_cells, dtype=bool)
    in_mask[frakP] = True
    dev_out = float(cfg.counts.max(where=~in_mask, initial=0) * ratio)
    if card:
        diam = set_diameter(np.stack(np.unravel_index(frakP, grid.shape), 1), grid)
        dev_in = float(np.abs(cfg.counts[frakP] * ratio - 1.0).max())
        qp = Q_internal(in_mask, cfg, scales)
    else:
        diam, dev_in, qp = 0, math.inf, 0.0
    ok = (
        card >= grid.tau_s
        and diam <= grid.s
        and dev_in < eps_tilde
        and dev_out <= eps_tilde
    )
    return LocalizationReport(
        frakI=_index_tuples(frakI, grid),
        frakT=_index_tuples(frakT, grid),
        frakP=_index_tuples(frakP, grid),
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
    in_mask = _mask(report.frakP, grid)
    top = np.sort(cfg.counts)[::-1][:20]
    out = {
        "V_P": V_count(in_mask, cfg, scales),
        "Q_P": report.QP,
        "top_counts": [int(v) for v in top],
        "cardP": report.cardP,
        "diamP": report.diamP,
    }
    if grid.num_cells <= 100_000:
        within, cross2 = _pair_sums(cfg, in_mask, in_mask)
        cross = _pair_sums(cfg, in_mask, ~in_mask)[1]
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


def _densest_ball_center(ps: PointSet, params: ModelParams, s: int = 5) -> tuple:
    """Candidate ball center: densest clique-window centroid, locally refined."""
    grid = build_grid(params, s)
    cfg = coarsen(ps, grid)
    acc = _shift_sum(cfg.lattice(), grid.clique_offsets)
    anchor = np.array(np.unravel_index(int(np.argmax(acc)), grid.shape))
    centroid = np.mean(np.array(grid.clique_offsets), axis=0)
    base = (anchor + centroid + 0.5) / grid.m % 1.0
    # 5-per-axis local refinement of the center at stride (1/m)/2; the first
    # candidate with the most points in its ball of radius r/2 wins
    cands = (base + (0.5 / grid.m) * _lattice(-2, 3, params.norm.dim)) % 1.0
    hits = close_pairs(cands, ps.points, params.r / 2.0, params.norm)[:, 0]
    return tuple(cands[int(np.argmax(np.bincount(hits, minlength=len(cands))))])


def _clause_a_probes(A: Ball, eps: float, tau: float) -> list:
    """Probes S ⊆ A with measure above (eps/16) tau, labelled for reporting:
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
    return [(name, S) for name, S in out if probe_measure(S) > floor]


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
    """
    mu = params.mu
    tau = params.tau
    target = math.sqrt(2.0 * delta * mu)
    center = _densest_ball_center(ps, params, s=s)
    A = Ball(center=center, radius=params.r / 2.0, norm=params.norm)
    count_A = count_in_probe(ps, A)

    worst_a = -1.0
    worst_name = ""
    margin_sa = abs(count_A / target - 1.0)
    clause_a = _clause_a_probes(A, eps, tau)
    for name, S in clause_a:
        k = count_in_probe(ps, S)
        margin = abs(k / target - probe_measure(S) / tau)
        if margin > worst_a:
            worst_a = margin
            worst_name = name

    # clause (b): tile ball probes at stride r/2, skip any that intersect A
    r = params.r
    d = params.norm.dim
    kgrid = max(1, int(math.floor(2.0 / r)))
    stride = 1.0 / kgrid
    axes = np.meshgrid(*[(np.arange(kgrid) + 0.5) * stride] * d, indexing="ij")
    centers = np.stack(axes, axis=-1).reshape(-1, d)
    dist_to_A = torus_distance(centers, np.array(A.center), params.norm)
    keep = centers[dist_to_A > r]  # center gap > r  =>  balls of radius r/2 disjoint
    counts = np.zeros(len(keep), dtype=np.int64)
    if len(ps) and len(keep):
        # assign points to nearby tiled centers: lookup table cell -> keep index
        shape = (kgrid,) * d
        table = np.full(kgrid**d, -1, dtype=np.int64)
        keep_cell = np.minimum(np.floor(keep / stride).astype(np.int64), kgrid - 1)
        table[np.ravel_multi_index(keep_cell.T, shape)] = np.arange(len(keep))
        pt_cell = np.minimum(np.floor(ps.points / stride).astype(np.int64), kgrid - 1)
        for off in _lattice(-1, 2, d):
            cand = (pt_cell + off) % kgrid
            ki = table[np.ravel_multi_index(cand.T, shape)]
            sel = ki >= 0
            if not sel.any():
                continue
            dd = torus_distance(ps.points[sel], keep[ki[sel]], params.norm)
            hit = dd <= r / 2.0
            np.add.at(counts, ki[sel][hit], 1)
    worst_b = float(counts.max() / target) if len(keep) else 0.0
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
        n_probes_b=int(len(keep)),
    )
