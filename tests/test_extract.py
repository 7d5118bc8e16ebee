"""Localization pipeline: big-cell extraction, clique certification, reports."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from rggloc import (
    Ball,
    InsufficientMassError,
    ModelParams,
    Norm,
    build_grid,
    certify_thm1,
    certify_thm2,
    coarsen,
    count_in_probe,
    derived_scales,
    extract_bulk_exceedance,
    extract_P,
    extract_T,
    localization_profile,
    params_for_p_hat,
    planted_cell_sampler,
    PointSet,
    planted_continuum_sampler,
    sample_cell_config,
    sample_ppp,
)
from rggloc import geometry
from rggloc.extract import (
    Thm1Report,
    _clause_a_probes,
    _densest_ball_center,
    _densest_window,
    _index_tuples,
    _tile_counts,
    _top_cells,
)
from rggloc.geometry import BallBoxIntersection, Box, probe_measure, torus_distance, wrapped_delta
from rggloc.grid import CellConfig, _lattice, clique_translate, flat_index, set_diameter, unflat_index
from rggloc.stats import Q_internal


@pytest.fixture(scope="module")
def big_grid():
    # d=1 so the clique level q/tau_s is far above the big-cell cutoff M
    params = params_for_p_hat(1e5, 1.0, Norm("linf", 1))
    return build_grid(params, s=5)


@pytest.fixture(scope="module")
def big_scales(big_grid):
    return derived_scales(big_grid, delta_tilde=1.0)


def _planted_level(grid, scales):
    # smallest integer level whose clique mass exceeds q (the V threshold is
    # 1 - O(xi), i.e. numerically 1)
    level = math.ceil(scales.q / grid.tau_s)
    if level * grid.tau_s <= scales.q:
        level += 1
    return level


def _planted_config(grid, scales, level=None):
    counts = np.zeros(grid.num_cells, dtype=np.int64)
    if level is None:
        level = _planted_level(grid, scales)
    W = clique_translate(grid, (grid.m // 2,))
    for I in W:
        counts[flat_index(I, grid.m)] = level
    return CellConfig(counts, grid), W


def _cells(flat, grid):
    return frozenset(_index_tuples(flat, grid.shape))


def test_bulk_exceedance_strict_threshold(big_grid, big_scales):
    cfg, W = _planted_config(big_grid, big_scales)
    assert _cells(extract_bulk_exceedance(cfg, big_scales), big_grid) == W
    # counts at exactly M (or below) are excluded
    lo = CellConfig(np.ones(big_grid.num_cells, dtype=np.int64), big_grid)
    assert _cells(extract_bulk_exceedance(lo, big_scales), big_grid) == frozenset()


def test_extract_T_takes_shortest_prefix(big_grid, big_scales):
    cfg, W = _planted_config(big_grid, big_scales)
    # add one extra big cell with a much smaller count: the clique prefix
    # already carries enough mass, so the straggler is dropped
    counts = cfg.counts.copy()
    far = (big_grid.m // 4,)
    counts[flat_index(far, big_grid.m)] = int(math.ceil(big_scales.M)) + 1
    cfg2 = CellConfig(counts, big_grid)
    frakI = extract_bulk_exceedance(cfg2, big_scales)
    assert flat_index(far, big_grid.m) in frakI
    frakT = extract_T(cfg2, frakI, big_scales)
    assert _cells(frakT, big_grid) == W


def test_extract_T_insufficient_mass(big_grid, big_scales):
    counts = np.zeros(big_grid.num_cells, dtype=np.int64)
    counts[0] = 2  # above M but carrying ~nothing of the q mass
    cfg = CellConfig(counts, big_grid)
    with pytest.raises(InsufficientMassError):
        extract_T(cfg, extract_bulk_exceedance(cfg, big_scales), big_scales)


def _extract_T_loop(cfg, frakI, scales):
    """Reference: Python sort by (-count, index), then add V cell by cell."""
    threshold = 1.0 - 2.0 * scales.xi / math.log(scales.n)
    acc = 0.0
    out = []
    for I in sorted(frakI, key=lambda I: (-cfg[I], I)):
        out.append(I)
        acc += cfg[I] / scales.q
        if acc > threshold:
            return frozenset(out)
    raise InsufficientMassError


def test_extract_T_matches_sorted_prefix_loop(l2_grid, l2_scales):
    # Poisson(3) counts tie often among the largest cells, so the prefix cut
    # depends on the index tie-break; Poisson(0.05) leaves too little mass
    for D, seed in ((3.0, 71), (0.05, 72)):
        for k in range(10):
            counts = np.random.default_rng([seed, k]).poisson(D, size=l2_grid.num_cells)
            cfg = CellConfig(counts, l2_grid)
            frakI = extract_bulk_exceedance(cfg, l2_scales)
            try:
                want = _extract_T_loop(cfg, _cells(frakI, l2_grid), l2_scales)
            except InsufficientMassError:
                with pytest.raises(InsufficientMassError):
                    extract_T(cfg, frakI, l2_scales)
            else:
                assert _cells(extract_T(cfg, frakI, l2_scales), l2_grid) == want


def test_extract_T_widens_its_cut_past_a_short_head(big_grid, big_scales):
    # six planted cells carry 3/4 to 1 of q, so the first head (the cells at
    # half the largest count or more) falls short and the cut must drop into
    # the tied nominal bulk; with q/12 a cell over a sparse bulk the whole
    # list falls short
    q = big_scales.q
    for low, high, D, seed in ((q / 8, q / 6, big_grid.D, 73), (q / 16, q / 12, 0.01, 74)):
        for k in range(5):
            g = np.random.default_rng([seed, k])
            counts = g.poisson(D, size=big_grid.num_cells)
            counts[g.choice(big_grid.num_cells, 6, replace=False)] = g.integers(low, high, size=6)
            cfg = CellConfig(counts, big_grid)
            frakI = extract_bulk_exceedance(cfg, big_scales)
            try:
                want = _extract_T_loop(cfg, _cells(frakI, big_grid), big_scales)
            except InsufficientMassError:
                # the message sums V over the whole list, largest count first
                total = np.cumsum(np.sort(counts[frakI])[::-1] / q)[-1]
                threshold = 1.0 - 2.0 * big_scales.xi / math.log(big_scales.n)
                msg = f"insufficient mass: V(frakI) = {total:.6g} <= {threshold:.6g}"
                with pytest.raises(InsufficientMassError) as err:
                    extract_T(cfg, frakI, big_scales)
                assert str(err.value) == msg
            else:
                assert len(want) > 6
                assert _cells(extract_T(cfg, frakI, big_scales), big_grid) == want


def test_extract_P_filters_small_cells(big_grid, big_scales):
    cfg, W = _planted_config(big_grid, big_scales)
    frakT = extract_T(cfg, extract_bulk_exceedance(cfg, big_scales), big_scales)
    assert _cells(extract_P(cfg, frakT, big_scales), big_grid) == W


def test_certify_thm2_planted_passes(big_grid, big_scales):
    cfg, W = _planted_config(big_grid, big_scales)
    rep = certify_thm2(cfg, big_grid, big_scales)
    assert rep.frakP == tuple(sorted(W))
    assert rep.cardP == big_grid.tau_s
    assert rep.diamP <= big_grid.s
    assert rep.max_dev_inside < 0.2
    assert rep.max_ratio_outside == 0.0
    assert rep.thm2_pass
    assert not rep.insufficient_mass


@pytest.mark.parametrize("kind,s", [("linf", 20), ("l2", 22)])
def test_certify_thm2_passes_clique_sets_above_400_cells(kind, s):
    # tau_s = 441 and 433: the canonical clique set at the planted level, and
    # nothing else, meets every clause with its true diameter s
    grid = build_grid(ModelParams(1e6, 0.1, Norm(kind, 2)), s)
    scales = derived_scales(grid, delta_tilde=1.0)
    assert grid.tau_s > 400
    counts = np.zeros(grid.num_cells, dtype=np.int64)
    level = _planted_level(grid, scales)
    for I in clique_translate(grid, (grid.m // 2, grid.m - 3)):
        counts[flat_index(I, grid.m)] = level
    rep = certify_thm2(CellConfig(counts, grid), grid, scales)
    assert rep.cardP == grid.tau_s
    assert rep.diamP == s
    assert rep.max_ratio_outside == 0.0
    assert rep.thm2_pass


def test_certify_thm2_rejects_split_mass(big_grid, big_scales):
    # two half-level cliques far apart: diameter blows past s
    counts = np.zeros(big_grid.num_cells, dtype=np.int64)
    level = round(big_scales.q / big_grid.tau_s)
    for anchor in ((0,), (big_grid.m // 2,)):
        for I in clique_translate(big_grid, anchor):
            counts[flat_index(I, big_grid.m)] = max(level // 2, 2)
    rep = certify_thm2(CellConfig(counts, big_grid), big_grid, big_scales)
    assert not rep.thm2_pass


def test_certify_thm2_never_raises_on_empty(big_grid, big_scales):
    rep = certify_thm2(
        CellConfig(np.zeros(big_grid.num_cells, dtype=np.int64), big_grid),
        big_grid,
        big_scales,
    )
    assert rep.cardP == 0
    assert not rep.thm2_pass
    assert rep.max_dev_inside == math.inf


def test_report_json_schema(big_grid, big_scales):
    cfg, _ = _planted_config(big_grid, big_scales)
    doc = json.loads(certify_thm2(cfg, big_grid, big_scales).to_json())
    assert doc["schema"] == "thm2_report.v1"
    assert doc["thm2_pass"] is True
    assert len(doc["frakP"]) == big_grid.tau_s


def _certify_thm2_tuples(cfg, grid, scales, eps_tilde=0.2):
    """Reference: the pipeline on frozensets of index tuples, cell by cell,
    down to the report JSON."""
    frakI = frozenset(
        unflat_index(int(f), grid.m, grid.norm.dim) for f in np.flatnonzero(cfg.counts > scales.M)
    )
    insufficient = False
    try:
        frakT = _extract_T_loop(cfg, frakI, scales)
    except InsufficientMassError:
        frakT, insufficient = frozenset(), True
    cut = scales.xi**0.25 * scales.q / grid.tau_s
    frakP = frozenset(I for I in frakT if cfg[I] > cut)
    ratio = grid.tau_s / scales.q
    mask = np.zeros(grid.num_cells, dtype=bool)
    for I in frakP:
        mask[flat_index(I, grid.m)] = True
    if frakP:
        diam = set_diameter(frakP, grid)
        dev_in = float(np.abs(cfg.counts[mask] * ratio - 1.0).max())
        dev_out = float(cfg.counts[~mask].max() * ratio) if (~mask).any() else 0.0
        qp = Q_internal(mask, cfg, scales)
    else:
        diam, dev_in, qp = 0, math.inf, 0.0
        dev_out = float(cfg.counts.max() * ratio)

    def enc(cells):
        return sorted(list(map(list, cells)))

    return json.dumps(
        {
            "schema": "thm2_report.v1",
            "frakI": enc(frakI),
            "frakT": enc(frakT),
            "frakP": enc(frakP),
            "diamP": diam,
            "cardP": len(frakP),
            "max_dev_inside": dev_in,
            "max_ratio_outside": dev_out,
            "QP": qp,
            "thm2_pass": len(frakP) >= grid.tau_s
            and diam <= grid.s
            and dev_in < eps_tilde
            and dev_out <= eps_tilde,
            "eps_tilde": eps_tilde,
            "insufficient_mass": insufficient,
        },
        sort_keys=True,
    )


def test_certify_thm2_json_matches_tuple_pipeline(big_grid, big_scales):
    l2 = build_grid(params_for_p_hat(1e4, 1.0, Norm("l2", 2)), s=5)
    l2_scales = derived_scales(l2, delta_tilde=1.0)
    zero = np.zeros(big_grid.num_cells, dtype=np.int64)
    lone = zero.copy()
    lone[0] = 2  # above M but carrying ~nothing of the q mass
    cases = [
        *((big_grid, big_scales, planted_cell_sampler(big_grid, 1.0, 43, k).config) for k in range(3)),
        *((big_grid, big_scales, sample_cell_config(big_grid, 47, k)) for k in range(2)),
        *((l2, l2_scales, planted_cell_sampler(l2, 1.0, 53, k).config) for k in range(2)),
        (big_grid, big_scales, CellConfig(zero, big_grid)),
        (big_grid, big_scales, CellConfig(lone, big_grid)),
    ]
    verdicts = set()
    for grid, scales, cfg in cases:
        rep = certify_thm2(cfg, grid, scales)
        assert rep.to_json() == _certify_thm2_tuples(cfg, grid, scales)
        verdicts.add((rep.thm2_pass, rep.insufficient_mass, rep.cardP > 0))
    # passing, failing, empty and insufficient-mass reports are all compared
    assert {(True, False, True), (False, False, True), (False, True, False)} <= verdicts


def test_max_ratio_outside_matches_dense_masked_max(big_grid, big_scales):
    # the report takes the largest count outside frakP from frakI - frakP and
    # scans the whole grid only when frakP = frakI; a background of ones keeps
    # every cell outside frakI (counts <= M < 2) from reading 0
    assert 1 <= big_scales.M < 2
    ones = np.ones(big_grid.num_cells, dtype=np.int64)
    planted, W = _planted_config(big_grid, big_scales)
    on_ones = ones.copy()
    on_ones[planted.counts > 0] = planted.counts[planted.counts > 0]
    extra = on_ones.copy()
    extra[[10, 20, 30]] = [2, 3, 2]  # big cells far from the clique set
    lone = ones.copy()
    lone[10] = 2
    cases = {
        "I > P": (extra, True),
        "P = I": (on_ones, True),
        "I empty": (ones, False),
        "insufficient mass": (lone, False),
    }
    ratio = big_grid.tau_s / big_scales.q
    for name, (counts, localized) in cases.items():
        rep = certify_thm2(CellConfig(counts, big_grid), big_grid, big_scales)
        mask = np.zeros(big_grid.num_cells, dtype=bool)
        mask[[flat_index(I, big_grid.m) for I in rep.frakP]] = True
        assert rep.max_ratio_outside == float(counts.max(where=~mask, initial=0) * ratio), name
        assert rep.thm2_pass == localized, name
    assert len(certify_thm2(CellConfig(extra, big_grid), big_grid, big_scales).frakI) == 9
    assert certify_thm2(CellConfig(on_ones, big_grid), big_grid, big_scales).frakP == tuple(sorted(W))
    assert certify_thm2(CellConfig(lone, big_grid), big_grid, big_scales).insufficient_mass


def _report_cases():
    """(grid, scales, config) at d = 1, 2, 3: planted draws, an empty grid
    (frakI = frakT = frakP = {}) and a lone big cell (frakI nonempty, frakT =
    frakP = {})."""
    grids = [
        build_grid(params_for_p_hat(1e5, 1.0, Norm("linf", 1)), 5),
        build_grid(params_for_p_hat(1e4, 1.0, Norm("l2", 2)), 5),
        build_grid(ModelParams(200.0, 0.2, Norm("l1", 3)), 3),
    ]
    for grid in grids:
        scales = derived_scales(grid, delta_tilde=1.0)
        lone = np.zeros(grid.num_cells, dtype=np.int64)
        lone[1] = 2
        yield grid, scales, CellConfig(np.zeros(grid.num_cells, dtype=np.int64), grid)
        yield grid, scales, CellConfig(lone, grid)
        for k in range(2):
            yield grid, scales, planted_cell_sampler(grid, 1.0, 5, k).config


def test_report_sets_derive_from_stored_flat_indices():
    seen = set()
    for grid, scales, cfg in _report_cases():
        rep = certify_thm2(cfg, grid, scales)
        assert rep._shape == grid.shape
        for name in ("frakI", "frakT", "frakP"):
            flat = getattr(rep, "_" + name)
            assert not flat.flags.writeable
            assert getattr(rep, name) == _index_tuples(flat, grid.shape)
            assert getattr(rep, name) is getattr(rep, name)  # built once
        tuples = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
        tuples = {k: v for k, v in tuples.items() if k[0] != "_"}
        tuples.update(frakI=rep.frakI, frakT=rep.frakT, frakP=rep.frakP)
        assert rep.to_json() == json.dumps({"schema": "thm2_report.v1", **tuples}, sort_keys=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.cardP = 0
        with pytest.raises(ValueError):
            rep._frakP[:1] = 0
        seen.add((grid.norm.dim, bool(rep.frakI), bool(rep.frakT), bool(rep.frakP)))
    for d in (1, 2, 3):
        assert {(d, False, False, False), (d, True, False, False), (d, True, True, True)} <= seen


def test_report_sets_serve_the_tuple_interface(big_grid, big_scales):
    # what callers that predate the flat storage read: lengths, truth values,
    # sorting and tuple equality
    cfg, W = _planted_config(big_grid, big_scales)
    rep = certify_thm2(cfg, big_grid, big_scales)
    assert len(rep.frakI) == len(W)
    assert rep.frakP == tuple(sorted(W))
    assert sorted(rep.frakP) == list(rep.frakP)
    assert all(type(c) is int for I in rep.frakP for c in I)
    idx = np.ravel_multi_index(np.asarray(sorted(rep.frakP)).T, big_grid.shape)
    assert (cfg.counts[idx] > 0).all()
    empty = certify_thm2(
        CellConfig(np.zeros(big_grid.num_cells, dtype=np.int64), big_grid), big_grid, big_scales
    )
    assert not empty.frakP and empty.frakP == ()
    assert len(empty.frakI) == 0


def test_stages_return_sorted_flat_int64(big_grid, big_scales):
    for k in range(3):
        cfg = planted_cell_sampler(big_grid, 1.0, 59, k).config
        frakI = extract_bulk_exceedance(cfg, big_scales)
        frakT = extract_T(cfg, frakI, big_scales)
        frakP = extract_P(cfg, frakT, big_scales)
        assert len(frakP) >= big_grid.tau_s
        for cells in (frakI, frakT, frakP):
            assert cells.dtype == np.int64 and cells.ndim == 1
            assert (np.diff(cells) > 0).all()


def test_extract_P_cut_is_strict(big_grid, big_scales):
    # xi = 1/16 makes the cut xi^{1/4} q / tau_s the integer 5
    scales = dataclasses.replace(big_scales, xi=1.0 / 16.0, q=10.0 * big_grid.tau_s)
    assert scales.xi**0.25 * scales.q / big_grid.tau_s == 5.0
    counts = np.zeros(big_grid.num_cells, dtype=np.int64)
    counts[[3, 7, 9]] = [5, 6, 4]
    frakT = np.array([3, 7, 9], dtype=np.int64)
    assert extract_P(CellConfig(counts, big_grid), frakT, scales).tolist() == [7]


def test_planted_sampler_feeds_pipeline(big_grid, big_scales):
    ws = planted_cell_sampler(big_grid, t=1.0, seed=17, replica=0)
    rep = certify_thm2(ws.config, big_grid, big_scales)
    # the tilted clique dominates, so the extracted set is a clique translate
    assert rep.cardP >= big_grid.tau_s
    assert rep.diamP <= big_grid.s


def test_localization_profile_keys(big_grid, big_scales):
    cfg, _ = _planted_config(big_grid, big_scales)
    prof = localization_profile(cfg, big_grid, big_scales)
    assert prof["cardP"] == big_grid.tau_s
    assert prof["V_P"] == pytest.approx(
        big_grid.tau_s * _planted_level(big_grid, big_scales) / big_scales.q
    )
    assert prof["Q_P"] > 0.0
    assert len(prof["top_counts"]) == 20
    json.dumps(prof)  # must be serializable as-is
    for k in range(2):
        cfg = planted_cell_sampler(big_grid, 1.0, 61, k).config
        top = localization_profile(cfg, big_grid, big_scales)["top_counts"]
        assert top == np.sort(cfg.counts)[::-1][:20].tolist()


def test_top_cells_matches_lexsort():
    # count descending, ties to the lower flat index, on tied small counts of
    # both dtypes, grids smaller than k and than the 1024 blocks, a lone big
    # cell and a grid of one value
    rng = np.random.default_rng(3)
    cases = [rng.poisson(lam, size) for lam, size in ((0.2, 499_999), (3.0, 5000), (1.0, 700), (2.0, 12))]
    cases += [cases[1].astype(np.float64), np.zeros(3000, dtype=np.int64), np.eye(1, 4099, 4098).ravel()]
    for counts in cases:
        rank = np.lexsort((np.arange(counts.size), -counts))
        for k in (1, 20, 50):
            assert np.array_equal(_top_cells(counts, k), rank[:k])


def test_certify_thm1_planted_continuum():
    params = params_for_p_hat(2000.0, 1.0, Norm("l2", 2))
    ps = planted_continuum_sampler(params, delta=1.0, seed=23)
    rep = certify_thm1(ps, params, delta=1.0, eps=0.25)
    assert rep.clause_a_pass_SA  # the planted ball itself carries ~sqrt(2 mu)
    assert rep.clause_b_pass
    assert rep.n_probes_b > 100
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "thm1_report.v1"


def test_certify_thm1_ball_box_quadrature_memory_is_capped():
    # at L1 d=3 the ball∩box bracket is still open at 128^3 centres, and a
    # 256^3 mesh would take the process near 2 GB
    params = params_for_p_hat(300.0, 1.0, Norm("l1", 3))
    ps = sample_ppp(params.n, params.norm, seed=53, replica=3)
    tracemalloc.start()
    try:
        rep = certify_thm1(ps, params, delta=1.0, eps=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.clause_a_pass_SA
    assert peak < 512 * 2**20


def test_certify_thm1_null_sample_fails_clause_a():
    params = params_for_p_hat(2000.0, 1.0, Norm("l2", 2))
    ps = sample_ppp(params.n, params.norm, seed=29)
    rep = certify_thm1(ps, params, delta=1.0, eps=0.25)
    assert not rep.clause_a_pass_SA  # nothing near sqrt(2 mu) points anywhere


def test_certify_thm1_json_lists_every_field():
    params = params_for_p_hat(2000.0, 1.0, Norm("l2", 2))
    planted = planted_continuum_sampler(params, delta=1.0, seed=23)
    null = sample_ppp(params.n, params.norm, seed=29)
    for ps in (planted, null):
        rep = certify_thm1(ps, params, delta=1.0, eps=0.25)
        want = json.dumps(
            {
                "schema": "thm1_report.v1",
                "center": list(rep.center),
                "r": rep.r,
                "delta": rep.delta,
                "eps": rep.eps,
                "target": rep.target,
                "count_A": rep.count_A,
                "clause_a_margin_SA": rep.clause_a_margin_SA,
                "clause_a_pass_SA": rep.clause_a_pass_SA,
                "clause_a_worst": rep.clause_a_worst,
                "clause_a_worst_probe": rep.clause_a_worst_probe,
                "clause_a_pass": rep.clause_a_pass,
                "clause_b_worst": rep.clause_b_worst,
                "clause_b_pass": rep.clause_b_pass,
                "n_probes_a": rep.n_probes_a,
                "n_probes_b": rep.n_probes_b,
            },
            sort_keys=True,
        )
        assert rep.to_json() == want


def _densest_ball_center_loop(ps, params, s=5):
    """Reference: clique-window argmax, then the first of the 5^d refined balls
    with the most points, each counted with count_in_probe."""
    grid = build_grid(params, s)
    x = coarsen(ps, grid).lattice()
    acc = np.zeros_like(x)
    for off in grid.clique_offsets:
        acc += np.roll(x, shift=tuple(-c for c in off), axis=tuple(range(x.ndim)))
    anchor = np.array(np.unravel_index(int(np.argmax(acc)), grid.shape))
    centroid = np.mean(np.array(grid.clique_offsets), axis=0)
    base = (anchor + centroid + 0.5) / grid.m % 1.0
    best, best_count = None, -1
    for off in itertools.product(range(-2, 3), repeat=params.norm.dim):
        c = tuple((base + 0.5 / grid.m * np.array(off)) % 1.0)
        k = count_in_probe(ps, Ball(center=c, radius=params.r / 2.0, norm=params.norm))
        if k > best_count:
            best, best_count = c, k
    return best


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_densest_ball_center_matches_first_maximum_loop(kind):
    for dim in (1, 2, 3):
        params = params_for_p_hat(300.0, 1.0, Norm(kind, dim))
        for k in range(3):
            for ps in (
                planted_continuum_sampler(params, delta=1.0, seed=31, replica=k),
                sample_ppp(params.n, params.norm, seed=37, replica=k),
            ):
                assert _densest_ball_center(ps, params) == _densest_ball_center_loop(ps, params)


def _certify_thm1_reference(ps, params, delta, eps, s=5):
    """certify_thm1 by definition: the loop's centre, then A and each clause-(a)
    probe counted with count_in_probe over all points, and every one of the
    kgrid^d tile balls whose centre is more than r from A's likewise."""
    r, norm, tau = params.r, params.norm, params.tau
    center = _densest_ball_center_loop(ps, params, s)
    target = math.sqrt(2.0 * delta * params.mu)
    A = Ball(center=center, radius=r / 2.0, norm=norm)
    count_A = count_in_probe(ps, A)
    probes = [(name, S) for name, S, _ in _clause_a_probes(A, eps, tau)]
    worst_a, worst_name = -1.0, ""
    for name, S in probes:
        margin = abs(count_in_probe(ps, S) / target - probe_measure(S) / tau)
        if margin > worst_a:
            worst_a, worst_name = margin, name
    kgrid = int(math.floor(2.0 / r))
    kept = [
        c
        for idx in itertools.product(range(kgrid), repeat=norm.dim)
        if torus_distance(c := (np.array(idx) + 0.5) * (1.0 / kgrid), np.array(center), norm) > r
    ]
    worst_b = max((count_in_probe(ps, Ball(tuple(c), r / 2.0, norm)) for c in kept), default=0) / target
    margin_sa = abs(count_A / target - 1.0)
    return Thm1Report(
        center=tuple(float(c) for c in center), r=r, delta=delta, eps=eps, target=target,
        count_A=count_A, clause_a_margin_SA=margin_sa, clause_a_pass_SA=margin_sa < eps,
        clause_a_worst=worst_a, clause_a_worst_probe=worst_name, clause_a_pass=worst_a < eps,
        clause_b_worst=float(worst_b), clause_b_pass=worst_b < eps,
        n_probes_a=len(probes), n_probes_b=len(kept),
    )


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_certify_thm1_matches_definitional_counts(kind, monkeypatch):
    # the counts are under test, not the ball∩box quadrature, which at L1 d=3
    # takes seconds a call: both sides get the same stand-in measure
    monkeypatch.setattr(geometry, "_ball_box_measure", lambda S: 0.5 * math.prod(S.box.sides))
    for dim in (1, 2, 3):
        params = params_for_p_hat(300.0, 1.0, Norm(kind, dim))
        planted = planted_continuum_sampler(params, delta=1.0, seed=47, replica=dim)
        # the planted ball moved from (1/2, ...) onto the seam at the origin
        seam = PointSet((planted.points + 0.5) % 1.0, planted.intensity, planted.seed)
        null = sample_ppp(params.n, params.norm, seed=53, replica=dim)
        reps = [certify_thm1(ps, params, delta=1.0, eps=0.25) for ps in (planted, seam, null)]
        for ps, rep in zip((planted, seam, null), reps):
            assert rep == _certify_thm1_reference(ps, params, delta=1.0, eps=0.25)
        # A straddles the seam on every axis
        assert (wrapped_delta(reps[1].center, 0.0) < params.r / 2.0).all()


def _densest_window_rolls(cells, offsets, m):
    """Reference: count the points per cell, add the m^d lattice rolled by
    every -o, and take the first maximum in C order."""
    d = cells.shape[1]
    x = np.zeros((m,) * d, dtype=np.int64)
    np.add.at(x, tuple(cells.T), 1)
    acc = sum(np.roll(x, tuple(-c for c in o), axis=tuple(range(d))) for o in offsets)
    return np.array(np.unravel_index(int(np.argmax(acc)), x.shape))


def _window_case(dim):
    grid = build_grid(params_for_p_hat(300.0, 1.0, Norm("l2", dim)), s=5)
    return np.array(grid.clique_offsets, dtype=np.int64), grid.m


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_densest_window_tie_goes_to_the_lower_flat_index(dim):
    offsets, m = _window_case(dim)
    low, high = np.full(dim, 2), np.full(dim, m // 2)
    # both windows full, so the two tie; the higher one comes first
    cells = np.concatenate([high + offsets, low + offsets])
    assert np.array_equal(_densest_window(cells, offsets, m), low)
    assert np.array_equal(_densest_window_rolls(cells, offsets, m), low)
    # a lone point ties every anchor that reaches it: the lowest is its cell
    # minus the offset that is largest in C order
    point = np.full((1, dim), m // 3)
    want = _densest_window_rolls(point, offsets, m)
    assert np.array_equal(want, point[0] - max(map(tuple, offsets)))
    assert np.array_equal(_densest_window(point, offsets, m), want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_densest_window_wraps_on_every_axis(dim):
    offsets, m = _window_case(dim)
    rng = np.random.default_rng(dim)
    for anchor in (np.full(dim, m - 1), np.full(dim, m - 2), m - offsets.max(axis=0)):
        full = (anchor + offsets) % m  # every cell of this window, wrapped
        # fewer points than the window, and no window reaches both them and it
        noise = rng.integers(m // 2 - 3, m // 2 + 3, (len(offsets) // 2, dim))
        cells = np.concatenate([noise, full])
        assert np.array_equal(_densest_window(cells, offsets, m), anchor)
        assert np.array_equal(_densest_window_rolls(cells, offsets, m), anchor)
    for k in range(5):  # sparse samples, with many ties
        cells = rng.integers(0, m, (3 + 7 * k, dim))
        assert np.array_equal(_densest_window(cells, offsets, m), _densest_window_rolls(cells, offsets, m))


def _tile_counts_3d_form(points, kgrid, r, norm):
    """Reference: `torus_distance` from each point to its 3^d tile centres."""
    d = norm.dim
    stride = 1.0 / kgrid
    own = np.minimum(np.floor(points / stride).astype(np.int64), kgrid - 1)
    tiles = (own[:, None, :] + _lattice(-1, 2, d)) % kgrid
    hit = torus_distance(points[:, None, :], (tiles + 0.5) * stride, norm) <= r / 2.0
    return np.bincount(np.ravel_multi_index(tiles[hit].T, (kgrid,) * d), minlength=kgrid**d)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_tile_counts_match_the_3d_torus_distance_form(kind):
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4):
        norm = Norm(kind, dim)
        for r in (0.3, 0.13, 0.07):
            kgrid = int(math.floor(2.0 / r))
            stride = 1.0 / kgrid
            centres = (rng.integers(0, kgrid, (40, dim)) + 0.5) * stride
            # r/2 from a tile centre along one axis (the closed ball's boundary,
            # up to rounding), along the diagonal, on tile edges, and at 0
            axis = np.eye(dim)[rng.integers(0, dim, 40)]
            edge = rng.integers(0, kgrid, (40, dim)) * stride
            points = np.concatenate([
                rng.random((300, dim)),
                (centres + axis * r / 2.0) % 1.0,
                (centres - axis * r / 2.0) % 1.0,
                (centres + r / 2.0 / norm.length(np.ones(dim))) % 1.0,
                edge,
                np.where(rng.random((40, dim)) < 0.5, edge, rng.random((40, dim))),
                np.zeros((1, dim)),
            ])
            got = _tile_counts(points, kgrid, r, norm)
            assert np.array_equal(got, _tile_counts_3d_form(points, kgrid, r, norm))
            assert got.sum() > 0


def _ball_box_measure_at_center(S, rel_tol):
    """Reference: the bracket quadrature over the box's mesh in absolute
    coordinates, each mesh centre wrapped and measured to the ball's centre."""
    ball, box = S.ball, S.box
    d = ball.norm.dim
    tau = ball.norm.nu * ball.radius**d
    sides, corner = np.asarray(box.sides), np.asarray(box.corner)
    for k in range(3, 12):
        npc = 1 << k
        if npc**d > geometry._MESH_CAP:
            break
        step = sides / npc
        axes = [corner[i] + (np.arange(npc) + 0.5) * step[i] for i in range(d)]
        centers = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1) % 1.0
        dist = torus_distance(centers, np.asarray(ball.center), ball.norm)
        half = ball.norm.length(step / 2.0)
        cell_vol = float(np.prod(step))
        lower = float((dist <= ball.radius - half).sum()) * cell_vol
        upper = float((dist <= ball.radius + half).sum()) * cell_vol
        if upper - lower <= rel_tol * tau:
            break
    return 0.5 * (lower + upper)


def test_ball_box_measure_is_shared_across_centres():
    """The centre-relative quadrature equals the per-centre one at centres on
    and off the seam, for the ball∩box probe of certify_thm1's clause (a),
    built as _clause_a_probes builds it, and all the centres share one
    quadrature: the corner offsets, which differ in their last bits, are
    snapped to one key."""
    rng = np.random.default_rng(5)
    for kind, dim, n in (("l1", 1, 2000.0), ("l1", 2, 2000.0), ("l2", 2, 2000.0), ("l2", 3, 300.0), ("l2", 4, 300.0)):
        params = params_for_p_hat(n, 1.0, Norm(kind, dim))
        centres = [np.full(dim, 0.999), np.zeros(dim), np.full(dim, 1e-3), *rng.random((3, dim))]
        misses = geometry._ball_box_bracket.cache_info().misses
        for c in centres:
            A = Ball(tuple(c.tolist()), params.r / 2.0, params.norm)
            half = A.radius * 0.8
            S = BallBoxIntersection(A, Box(tuple((x - half * 0.2) % 1.0 for x in A.center), (half,) * dim))
            assert geometry._ball_box_measure(S, 1e-2) == _ball_box_measure_at_center(S, 1e-2)
        assert geometry._ball_box_bracket.cache_info().misses - misses <= 1


def test_ball_box_measure_matches_per_centre_at_the_mesh_cap():
    """At the default rel_tol an L2 d=2 box that cuts the ball's boundary
    refines to the 2048^2 mesh cap, where mesh centres come closest to the
    sphere; the centre-relative value still equals the per-centre one, on and
    off the seam."""
    norm = Norm("l2", 2)
    for c in (np.full(2, 0.999), np.array([0.3141, 0.7182])):
        A = Ball(tuple(c.tolist()), 0.05, norm)
        S = BallBoxIntersection(A, Box(tuple((x - 0.015) % 1.0 for x in A.center), (0.06, 0.06)))
        assert geometry._ball_box_measure(S) == _ball_box_measure_at_center(S, 1e-4)
