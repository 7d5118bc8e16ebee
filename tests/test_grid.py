"""Discretized model: cell metric, neighborhoods, clique sets, hulls."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rggloc import (
    CellConfig,
    ModelParams,
    Norm,
    build_grid,
    cell_metric,
    cell_metric_numeric_oracle,
    coarsen,
    edge_count,
    enumerate_max_clique_sets,
    index_union,
    inner_hull,
    inscribed_ball_diameter,
    max_clique_info,
    neighborhood,
    outer_hull,
    params_for_p_hat,
    sample_cell_config,
    sample_ppp,
    sgraded_edge_count,
    tiny_grid,
)
from rggloc.grid import (
    _cell_range,
    _clique_graph,
    _clique_search,
    _interval_dists,
    _lattice,
    _max_clique,
    _metric_blocks,
    _metric_from_delta,
    _neighbor_offsets_cached,
    _setdiff,
    _sgraded_edge_counts,
    _shift_sum,
    _unique,
    clique_translate,
    dump_config_csv,
    is_maximal_clique_set,
    load_config_csv,
    neighbor_offsets,
    set_diameter,
    unflat_index,
)
from rggloc.geometry import Ball, BallBoxIntersection, Box, probe_measure


def test_build_grid_headline_numbers(l2_grid):
    assert l2_grid.m == 50
    assert l2_grid.D == pytest.approx(0.06)
    assert l2_grid.nbhd_size == 109
    assert l2_grid.tau_s == 32
    assert l2_grid.mu_s == pytest.approx(490.5)


def test_build_grid_preconditions():
    with pytest.raises(ValueError):
        build_grid(ModelParams(150.0, 0.1, Norm("l2", 2)), s=2)
    with pytest.raises(ValueError):
        # m = floor(3/0.4) = 7 < 2s+3 = 9
        build_grid(ModelParams(50.0, 0.4, Norm("l2", 2), delta_star=0.01), s=3)


def test_cell_metric_worked_examples(l2_grid):
    # same cell is distance 0; touching cells distance 1
    assert cell_metric((3, 3), (3, 3), l2_grid) == 0
    assert cell_metric((3, 3), (4, 4), l2_grid) == 1
    assert cell_metric((3, 7), (40, 22), l2_grid) == 19  # wraps in axis 0
    assert cell_metric((0, 0), (25, 25), l2_grid) == 34


def test_cell_metric_matches_numeric_oracle(l2_grid):
    rng = np.random.default_rng(3)
    for _ in range(40):
        I = tuple(rng.integers(0, l2_grid.m, 2))
        J = tuple(rng.integers(0, l2_grid.m, 2))
        assert cell_metric(I, J, l2_grid) == cell_metric_numeric_oracle(I, J, l2_grid)


def test_neighborhood_translation_invariant(l2_grid):
    base = neighborhood((0, 0), l2_grid)
    assert len(base) == l2_grid.nbhd_size
    shifted = neighborhood((17, 42), l2_grid)
    assert len(shifted) == len(base)
    back = frozenset(((i - 17) % 50, (j - 42) % 50) for i, j in shifted)
    assert back == base


@pytest.mark.parametrize("dim,s,expect", [(1, 3, 4), (1, 5, 6), (2, 3, 16), (2, 5, 36), (3, 3, 64)])
def test_tau_s_linf_closed_form(dim, s, expect):
    assert max_clique_set_size_for(Norm("linf", dim), s) == expect


def max_clique_set_size_for(norm, s):
    return max_clique_info(norm, s).size


def test_tau_s_l2_frozen_values():
    # proved optimal by the branch and bound; frozen here as regression anchors
    assert max_clique_info(Norm("l2", 2), 8).size == 69
    info = max_clique_info(Norm("l2", 2), 8)
    assert info.exact
    assert len(info.members) == 69


def test_clique_set_is_maximal(l2_grid):
    members = clique_translate(l2_grid, (10, 10))
    assert len(members) == l2_grid.tau_s
    assert set_diameter(members, l2_grid) <= l2_grid.s
    assert is_maximal_clique_set(members, l2_grid)


def test_enumerate_clique_sets_contains_anchor(l2_grid):
    sets = enumerate_max_clique_sets(l2_grid, (5, 5), cap=8)
    assert sets
    for W in sets:
        assert (5, 5) in W
        assert len(W) == l2_grid.tau_s
        assert set_diameter(W, l2_grid) <= l2_grid.s


def _graph(cells, norm, s, m=None):
    """Adjacency sets of the cells at metric <= s, built pair by pair."""
    adj = {i: set() for i in range(len(cells))}
    for i, I in enumerate(cells):
        for j, J in enumerate(cells[:i]):
            delta = [abs(a - b) for a, b in zip(I, J)]
            if m is not None:
                delta = [min(c, m - c) for c in delta]
            if int(_metric_from_delta(np.array(delta), norm)) <= s:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _maximum_cliques(adj, P, ties=False):
    """Reference: Bron-Kerbosch with pivoting over the vertex set P, cut where
    no clique can beat (with `ties`, reach) the best size found so far.

    Returns the maximum clique size and the maximum cliques met: all of them
    with `ties`, otherwise at least one.
    """
    best = [0, []]

    def bk(R, P, X):
        if len(R) + len(P) < best[0] + (not ties):
            return
        if not P and not X:
            if len(R) > best[0]:
                best[:] = [len(R), []]
            best[1].append(frozenset(R))
            return
        u = max(P | X, key=lambda v: len(P & adj[v]))
        for v in list(P - adj[u]):
            bk(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    bk(set(), set(P), set())
    return best


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_tau_s_matches_bron_kerbosch_on_windows(kind):
    for dim, svals in ((1, (1, 3, 6)), (2, (1, 2, 3, 5, 8)), (3, (1, 2, 3))):
        norm = Norm(kind, dim)
        for s in svals:
            cells = list(itertools.product(range(s + 2), repeat=dim))
            adj = _graph(cells, norm, s)
            info = max_clique_info(norm, s)
            assert info.exact
            assert info.size == _maximum_cliques(adj, range(len(cells)))[0]
            assert len(info.members) == info.size
            offs = np.array(sorted(info.members))
            assert int(_metric_from_delta(np.abs(offs[:, None] - offs[None]), norm).max()) <= s


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_tiny_grid_tau_matches_bron_kerbosch(kind):
    for m, dims in ((4, (1, 2, 3)), (6, (1, 2))):
        for dim in dims:
            norm = Norm(kind, dim)
            # at d=3, s=3 the L1 torus graph has so many maximum cliques
            # that the reference search takes minutes
            for s in (1, 2, 3) if dim < 3 else (1, 2):
                g = tiny_grid(norm, m=m, s=s, n=1.0)
                cells = list(itertools.product(range(m), repeat=dim))
                adj = _graph(cells, norm, s, m)
                assert g.tau_s == _maximum_cliques(adj, range(len(cells)))[0]
                assert len(g.clique_offsets) == g.tau_s
                assert set_diameter(g.clique_offsets, g) <= s


@pytest.mark.parametrize(
    "kind,dim,s,tau",
    [("l2", 3, 5, 160), ("l1", 3, 4, 49), ("l2", 3, 3, 56), ("l1", 3, 3, 32), ("l2", 3, 7, 340),
     ("l2", 3, 8, 473)],
)
def test_tau_s_frozen_values_d3(kind, dim, s, tau):
    # regression anchors at d=3, where the disc-swept greedy clique is not
    # always maximum and the proof needs a real search; L2 s=7 and 8 take
    # seconds on the (s+1)^3 box and took minutes on the (s+2)^3 window
    info = max_clique_info(Norm(kind, dim), s)
    assert info.size == tau
    assert info.exact
    offs = np.array(sorted(info.members))
    assert int(_metric_from_delta(np.abs(offs[:, None] - offs[None]), Norm(kind, dim)).max()) <= s


@pytest.mark.parametrize("dim,m,s,tau", [(1, 6, 3, 6), (2, 5, 2, 10)])
def test_tiny_grid_clique_wider_than_the_box(dim, m, s, tau):
    # a clique set of a small torus wraps, so it can outgrow the (s+1)^d box:
    # the wrapped proof runs over the whole grid
    g = tiny_grid(Norm("l1", dim), m=m, s=s, n=4.0)
    assert g.tau_s == tau > (s + 1) ** dim
    assert set_diameter(g.clique_offsets, g) <= s


def test_enumerate_clique_sets_matches_bron_kerbosch(l2_grid):
    s, m = l2_grid.s, l2_grid.m
    window = list(itertools.product(range(5 - s - 1, 5 + s + 2), repeat=2))
    adj = _graph(window, l2_grid.norm, s)
    a = window.index((5, 5))
    _, cliques = _maximum_cliques(adj, adj[a], ties=True)
    ref = {frozenset(window[v] for v in W) | {(5, 5)} for W in cliques}
    assert len(ref) == 32
    sets = enumerate_max_clique_sets(l2_grid, (5, 5), cap=1000)
    assert len(sets) == len(set(sets)) == 32
    assert set(sets) == {frozenset((i % m, j % m) for i, j in W) for W in ref}
    assert enumerate_max_clique_sets(l2_grid, (5, 5), cap=3) == sets[:3]


def _spans(offsets):
    """Row i of the offsets as its (i, lo, hi) column span; each row is contiguous."""
    rows = {}
    for i, j in offsets:
        rows.setdefault(i, []).append(j)
    assert all(max(js) - min(js) + 1 == len(js) for js in rows.values())
    return [(i, min(js), max(js)) for i, js in sorted(rows.items())]


SPANS_L2_S5 = [(0, 1, 4), (1, 0, 5), (2, 0, 5), (3, 0, 5), (4, 0, 5), (5, 1, 4)]
SPANS_L2_S8 = [
    (0, 1, 7), (1, 0, 8), (2, 0, 8), (3, 0, 8), (4, 0, 8), (5, 0, 8), (6, 1, 7), (7, 1, 7),
    (8, 3, 5),
]
SPANS_L2_S12 = [
    (0, 3, 9), (1, 2, 10), (2, 1, 11), (3, 0, 12), (4, 0, 12), (5, 0, 12), (6, 0, 12),
    (7, 0, 12), (8, 0, 12), (9, 1, 11), (10, 1, 11), (11, 2, 10), (12, 4, 8),
]
SPANS_L2_S16 = [
    (0, 5, 11), (1, 3, 13), (2, 2, 14), (3, 1, 15), (4, 1, 15), (5, 0, 16), (6, 0, 16),
    (7, 0, 16), (8, 0, 16), (9, 0, 16), (10, 0, 16), (11, 0, 16), (12, 1, 15), (13, 1, 15),
    (14, 2, 14), (15, 3, 13), (16, 5, 11),
]


def test_clique_offsets_pinned():
    # canonical witnesses; the planted samplers and every output derived from
    # them build on these shapes.  The search proves tau first; the witness is
    # the first centre's disc-swept greedy clique to reach it, and s=12
    # depends on that sweep breaking distance ties in the window's row order.
    assert _spans(max_clique_info(Norm("l2", 2), 5).members) == SPANS_L2_S5
    assert _spans(max_clique_info(Norm("l2", 2), 8).members) == SPANS_L2_S8
    assert _spans(max_clique_info(Norm("l2", 2), 12).members) == SPANS_L2_S12
    assert _spans(max_clique_info(Norm("l2", 2), 16).members) == SPANS_L2_S16


def _sweep_then_search(cells, norm, s, m=None):
    """Reference witness: the best disc-swept greedy clique over every centre
    (the first centre to reach the best size keeps it), replaced only by the
    branch and bound's last clique when that is larger.  Also returns the
    greedy size."""
    order, nbrs = _clique_graph(cells, norm, s, m)
    pts = cells[order]
    full = (1 << len(nbrs)) - 1
    best: list = []
    for c in _lattice(0, int(pts.max()) + 1, pts.shape[1]).astype(float):
        dist = ((pts - c) ** 2).sum(axis=1)
        cur, mask = [], full
        for v in np.lexsort((order, dist)).tolist():
            if mask >> v & 1:
                cur.append(v)
                mask &= nbrs[v]
                if mask == 0:
                    break
        if len(cur) > len(best):
            best = cur
    better = _clique_search(nbrs, [], full, len(best))
    return pts[better[-1] if better else best], len(best)


# the greedy sweep falls short of tau on these keys, so the witness is the
# search's clique there
GREEDY_SHORT = {("l1", 2, 3), ("l1", 2, 5), ("l1", 2, 7), ("l1", 2, 9), ("l1", 2, 11),
                ("l1", 3, 3), ("l1", 3, 4), ("l1", 3, 5), ("l2", 2, 5), ("l2", 2, 9),
                ("l2", 2, 10), ("l2", 3, 3), ("l2", 3, 5)}


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_max_clique_witness_matches_sweep_then_search(kind):
    for dim, svals in ((1, range(1, 9)), (2, range(1, 13)), (3, range(1, 6))):
        for s in svals:
            cells = _lattice(0, s + 2, dim)
            ref, greedy = _sweep_then_search(cells, Norm(kind, dim), s)
            assert (greedy < len(ref)) == ((kind, dim, s) in GREEDY_SHORT), (dim, s)
            np.testing.assert_array_equal(_max_clique(cells, Norm(kind, dim), s), ref)


@pytest.mark.parametrize("dim,m,s", [(2, 8, 3), (3, 5, 2)])
def test_max_clique_witness_matches_sweep_then_search_on_tiny_grids(dim, m, s):
    # wrapped L1 grids where the greedy reaches tau but the search, started
    # from a lower floor, would first meet a different maximum clique
    cells = _lattice(0, m, dim)
    ref, greedy = _sweep_then_search(cells, Norm("l1", dim), s, m)
    assert greedy == len(ref)
    np.testing.assert_array_equal(_max_clique(cells, Norm("l1", dim), s, m), ref)


def _bitset_adjacency(cells, norm, s, m=None):
    """`_clique_graph`'s bitsets unpacked into a bool matrix over the rows of `cells`."""
    order, nbrs = _clique_graph(cells, norm, s, m)
    bits = np.array([[row >> u & 1 for u in range(len(nbrs))] for row in nbrs], dtype=bool)
    adj = np.zeros_like(bits)
    adj[np.ix_(order, order)] = bits
    return order, adj


@pytest.mark.parametrize("kind,dim", [("l1", 2), ("l2", 2), ("linf", 2), ("l1", 3), ("l2", 3)])
def test_clique_graph_matches_metric_blocks(kind, dim):
    norm = Norm(kind, dim)
    s = 3
    span, _ = _cell_range(s, 2 * s + 3, dim)  # -(s+1)..s+1, negative coordinates
    for cells, m in ((_lattice(0, s + 2, dim), None), (span, None), (_lattice(0, 5, dim), 5)):
        ref = np.vstack(list(_metric_blocks(cells, cells, norm, m))) <= s
        np.fill_diagonal(ref, False)
        order, adj = _bitset_adjacency(cells, norm, s, m)
        np.testing.assert_array_equal(adj, ref)
        np.testing.assert_array_equal(order, np.argsort(-ref.sum(axis=1), kind="stable"))


def test_set_diameter_matches_pairwise_loop(l2_grid):
    rng = np.random.default_rng(5)
    cases = [rng.integers(0, l2_grid.m, (k, 2)) for k in (0, 1, 2, 7, 30)]
    # more than one 256-row block, in a 24 x 24 window across both seams;
    # rows run outward from its center, so the farthest pairs sit in the last block
    for k in (300, 600):
        offs = rng.integers(-12, 12, (k, 2))
        cases.append(offs[np.argsort((offs**2).sum(axis=1), kind="stable")] % l2_grid.m)
    for cells in cases:
        cells = [tuple(int(c) for c in row) for row in cells]
        uniq = list(dict.fromkeys(cells))  # repeats add no pairs to the loop
        loop = max(
            (cell_metric(I, J, l2_grid) for i, I in enumerate(uniq) for J in uniq[:i]),
            default=0,
        )
        assert set_diameter(cells, l2_grid) == loop


def test_set_diameter_memory_is_bounded():
    # all 3000^2 pairs at once would take several hundred MB
    grid = build_grid(ModelParams(1e4, 0.006, Norm("l2", 2)), 6)
    assert grid.m == 1000
    cells = np.random.default_rng(6).integers(0, grid.m, (3000, 2))
    tracemalloc.start()
    try:
        diam = set_diameter(cells, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    rows = (np.abs(cells - c) for c in cells)
    assert diam == max(int(_metric_from_delta(np.minimum(d, grid.m - d), grid.norm).max()) for d in rows)


def _neighbor_offsets_loop(kind, dim, s, m):
    """Reference: the two-branch itertools enumeration the array path replaced."""
    norm = Norm(kind, dim)
    offs = []
    if m >= 2 * s + 3:
        for o in itertools.product(range(-(s + 1), s + 2), repeat=dim):
            if any(o) and int(_metric_from_delta(np.abs(np.array(o)), norm)) <= s:
                offs.append(o)
    else:
        for o in itertools.product(range(m), repeat=dim):
            delta = np.array([min(c, m - c) for c in o])
            if any(o) and int(_metric_from_delta(delta, norm)) <= s:
                offs.append(o)
    return tuple(offs)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_neighbor_offsets_match_itertools_enumeration(kind):
    # m below 2s+3 takes the whole wrapped grid, from 2s+3 on the window
    for dim, svals in ((1, (1, 2, 3, 5, 8)), (2, (1, 2, 3, 5)), (3, (1, 2, 3))):
        for s in svals:
            for m in range(3, 4 * s + 2):
                got = _neighbor_offsets_cached(kind, dim, s, m)
                assert got == _neighbor_offsets_loop(kind, dim, s, m), (dim, s, m)


def _is_maximal_loop(members, grid):
    """Reference: the per-pair loop over every member's neighbours."""
    members = set(map(tuple, members))
    if set_diameter(members, grid) > grid.s:
        return False
    m = grid.m
    for I in members:
        for o in neighbor_offsets(grid):
            J = tuple((c + oc) % m for c, oc in zip(I, o))
            if J not in members and all(cell_metric(J, K, grid) <= grid.s for K in members):
                return False
    return True


def test_is_maximal_clique_set_matches_pair_loop(l2_grid):
    cases = [(l2_grid, W) for W in enumerate_max_clique_sets(l2_grid, (5, 5), cap=6)]
    cases += [(g, W - {min(W)}) for g, W in cases]  # one cell short: never maximal
    W = clique_translate(l2_grid, (49, 48))
    cases += [
        (l2_grid, W),
        (l2_grid, W | {(20, 20)}),  # diameter > s
        (l2_grid, {(0, 0), (0, 1), (1, 0), (1, 1)}),
    ]
    for norm, m in ((Norm("linf", 2), 6), (Norm("l1", 2), 5), (Norm("l2", 1), 9)):
        g = tiny_grid(norm, m=m, s=2, n=1.0)
        W = clique_translate(g, (m - 1,) * norm.dim)
        cases += [(g, W), (g, W - {min(W)})]
    verdicts = [is_maximal_clique_set(W, g) for g, W in cases]
    assert verdicts == [_is_maximal_loop(W, g) for g, W in cases]
    assert True in verdicts and False in verdicts


def test_empty_set_is_not_maximal(l2_grid, tiny):
    # any one cell can join the empty set, and any neighbour a lone cell
    for grid in (l2_grid, tiny):
        assert not is_maximal_clique_set(set(), grid)
        assert not is_maximal_clique_set(frozenset(), grid)
        assert not is_maximal_clique_set({(0,) * grid.norm.dim}, grid)


def test_cell_config_rejects_cells_off_the_grid(l2_grid):
    counts = np.zeros(l2_grid.num_cells, dtype=np.int64)
    counts[50] = 7  # cell (1, 0)
    cfg = CellConfig(counts, l2_grid)
    assert cfg[(1, 0)] == 7
    for bad in ((0, 50), (-1, 0)):
        with pytest.raises(ValueError):
            cfg[bad]


def test_sgraded_edge_count_oracle(l2_grid):
    """|E_s| = sum C(X_I,2) + adjacent products, checked against O(cells^2) loops."""
    cfg = sample_cell_config(l2_grid, seed=21)
    got = sgraded_edge_count(cfg)
    lat = cfg.counts
    nz = np.nonzero(lat)[0]
    from rggloc.grid import unflat_index

    idxs = [unflat_index(int(f), l2_grid.m, 2) for f in nz]
    slow = 0
    for a in range(len(nz)):
        xa = int(lat[nz[a]])
        slow += xa * (xa - 1) // 2
        for b in range(a + 1, len(nz)):
            if cell_metric(idxs[a], idxs[b], l2_grid) <= l2_grid.s:
                slow += xa * int(lat[nz[b]])
    assert got == slow


def _roll_shift_sum(x, offsets, d):
    """Reference: one wrapped np.roll copy of x per offset."""
    axes = tuple(range(x.ndim - d, x.ndim))
    out = np.zeros_like(x)
    for o in offsets:
        out += np.roll(x, tuple(-c for c in o), axis=axes)
    return out


def _roll_edge_counts(x, grid):
    """Reference: sum C(X_I, 2) + 1/2 sum_I X_I (rolled neighbour sum)_I."""
    d = grid.norm.dim
    axes = tuple(range(x.ndim - d, x.ndim))
    within = (x * (x - 1)).sum(axis=axes) // 2
    cross2 = (x * _roll_shift_sum(x, neighbor_offsets(grid), d)).sum(axis=axes)
    return within + cross2 // 2


def _kernel_grids():
    grids = [
        build_grid(params_for_p_hat(1e4, 1.0, Norm("l2", 2)), 5),
        build_grid(ModelParams(2000.0, 0.3, Norm("l1", 3)), 3),
    ]
    for kind in ("l1", "l2", "linf"):
        # even m: offsets with o = -o mod m, e.g. 2 on the m=4 circle
        grids += [tiny_grid(Norm(kind, 1), m=4, s=3, n=4.0), tiny_grid(Norm(kind, 2), m=4, s=2, n=32.0)]
    return grids


def test_sgraded_edge_counts_match_rolled_stencil():
    linf = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    assert linf.m == 5000
    for seed in range(5):
        x = sample_cell_config(linf, seed=seed).lattice()
        assert _sgraded_edge_counts(x, linf) == _roll_edge_counts(x, linf)
    grids = _kernel_grids()
    assert grids[0].m == 626 and grids[1].m == 10 and grids[1].s == 3
    for grid in grids[2:]:
        m = grid.m
        assert any(tuple(c % m for c in o) == tuple(-c % m for c in o) for o in neighbor_offsets(grid))
    for k, grid in enumerate(grids):
        for R in (1, 3) if grid.num_cells > 16 else (1, 500):
            x = np.random.default_rng(k).poisson(max(grid.D, 1.0), size=(R, *grid.shape))
            want = _roll_edge_counts(x, grid)
            assert np.array_equal(_sgraded_edge_counts(x, grid), want)
            assert [sgraded_edge_count(CellConfig(c.ravel(), grid)) for c in x] == want.tolist()


def test_shift_sum_matches_rolled_stencil():
    grids = _kernel_grids() + [build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)]
    for k, grid in enumerate(grids):
        d = grid.norm.dim
        x = np.random.default_rng(k).poisson(2.0, size=(2, *grid.shape))
        for offsets in (grid.clique_offsets, neighbor_offsets(grid)):
            assert np.array_equal(_shift_sum(x, offsets), _roll_shift_sum(x, offsets, d))
            assert np.array_equal(_shift_sum(x[0], offsets), _roll_shift_sum(x[0], offsets, d))


def test_sgraded_edge_counts_refuse_int64_overflow(tiny, l2_grid):
    for grid in (tiny, l2_grid):
        x = np.zeros((2, *grid.shape), dtype=np.int64)
        x[1].flat[0] = 3 * 10**9  # (sum x)^2 > 2^62
        with pytest.raises(OverflowError):
            _sgraded_edge_counts(x, grid)
        with pytest.raises(OverflowError):  # the same bound on totals the caller passes
            _sgraded_edge_counts(x, grid, np.array([0, 3 * 10**9]))
        x[1].flat[0] = 2 * 10**9
        assert _sgraded_edge_counts(x, grid).tolist() == [0, 2 * 10**9 * (2 * 10**9 - 1) // 2]
        assert _sgraded_edge_counts(x, grid, np.array([0, 2 * 10**9])).tolist() == [0, 2 * 10**9 * (2 * 10**9 - 1) // 2]


def test_sgraded_edge_counts_agree_in_float64_and_int64():
    # the replica loop contracts float32 counts, certified exact while each
    # row's sum x^2 is below 2^24, and float64 counts, exact below 2^53
    for k, grid in enumerate(_kernel_grids()):
        for R in (1, 3) if grid.num_cells > 16 else (1, 500):
            x = np.random.default_rng(k).poisson(max(grid.D, 1.0), size=(R, *grid.shape))
            assert (np.square(x).sum(axis=tuple(range(1, x.ndim))) < 2**24).all()
            want = _sgraded_edge_counts(x, grid)
            for dtype in (np.float64, np.float32):
                got = _sgraded_edge_counts(x.astype(dtype), grid)
                assert got.dtype == np.int64
                assert np.array_equal(got, want)


def test_sgraded_edge_counts_certify_float32_below_2_24(tiny, l2_grid):
    # 4095^2 < 2^24 = 4096^2: float32 counts are certified exact only while
    # each row's sum x^2 is below 2^24, whatever the totals
    for grid in (tiny, l2_grid):
        x = np.zeros((2, *grid.shape), dtype=np.float32)
        x[1].flat[0] = 4095
        assert _sgraded_edge_counts(x, grid).tolist() == [0, 4095 * 4094 // 2]
        assert _sgraded_edge_counts(x, grid, np.array([0, 4095])).tolist() == [0, 4095 * 4094 // 2]
        x[1].flat[0] = 4096
        with pytest.raises(OverflowError):
            _sgraded_edge_counts(x, grid)
        with pytest.raises(OverflowError):
            _sgraded_edge_counts(x, grid, np.array([0, 4096]))
        # no cell reaches 4096, but the row's sum x^2 = 2 * 3000^2 does reach 2^24
        x[1].flat[:2] = 3000
        with pytest.raises(OverflowError):
            _sgraded_edge_counts(x, grid)
        # a cell past 2^24 points sticks at 2^24 in float32, and is caught too
        x[1].flat[:2] = [2**24 + 1, 0]
        with pytest.raises(OverflowError):
            _sgraded_edge_counts(x, grid, np.array([0, 2**24 + 1]))
        # every cell full, sum x^2 just below 2^24: certified, and exact although
        # 2|E_s| is far past 2^24, with the totals summed here or passed
        full = math.isqrt((2**24 - 1) // grid.num_cells)
        x = np.full((1, *grid.shape), full, dtype=np.float32)
        want = _sgraded_edge_counts(x.astype(np.int64), grid)
        assert 2 * want[0] > 2**24
        assert np.array_equal(_sgraded_edge_counts(x, grid), want)
        assert np.array_equal(_sgraded_edge_counts(x, grid, np.array([full * grid.num_cells])), want)


def test_sgraded_edge_counts_refuse_float64_past_2_53(tiny, l2_grid):
    top = math.isqrt(2**53)  # top^2 < 2^53 <= (top + 1)^2
    for grid in (tiny, l2_grid):
        x = np.zeros((2, *grid.shape))
        x[1].flat[0] = top + 1
        with pytest.raises(OverflowError):
            _sgraded_edge_counts(x, grid)
        with pytest.raises(OverflowError):  # the same bound on totals the caller passes
            _sgraded_edge_counts(x, grid, np.array([0, top + 1]))
        x[1].flat[0] = top
        assert _sgraded_edge_counts(x, grid).tolist() == [0, top * (top - 1) // 2]
        assert _sgraded_edge_counts(x, grid, np.array([0, top])).tolist() == [0, top * (top - 1) // 2]


def test_unique_and_setdiff_match_numpy():
    rs = np.random.default_rng(5)
    arrays = (np.array([], dtype=np.int64), np.array([3]), rs.integers(0, 9, size=(7, 2)),
              rs.integers(-5, 50, size=200))
    for a in arrays:
        assert np.array_equal(_unique(a), np.unique(a))
        for b in arrays + (a.ravel()[:3], rs.integers(0, 60, size=30)):
            assert np.array_equal(_setdiff(a, b), np.setdiff1d(a, b))


def test_tiny_grid_complete_graph(tiny):
    # on the m=4, s=3 wrapped line every pair of cells is adjacent
    assert tiny.nbhd_size == 4
    assert tiny.tau_s == 4
    counts = np.array([2, 0, 1, 3], dtype=np.int64)
    cfg = CellConfig(counts, tiny)
    total = counts.sum()
    assert sgraded_edge_count(cfg) == total * (total - 1) // 2


def test_continuum_edges_dominated_by_graded(l2_grid, l2_params):
    for k in range(10):
        ps = sample_ppp(150.0, Norm("l2", 2), seed=33, replica=k)
        ce = edge_count(ps, l2_params.r, l2_params.norm)
        assert ce <= sgraded_edge_count(coarsen(ps, l2_grid))


def test_coarsen_conserves_mass(l2_grid):
    ps = sample_ppp(150.0, Norm("l2", 2), seed=8)
    assert coarsen(ps, l2_grid).counts.sum() == len(ps)


def test_hulls_bracket_probe(l2_grid):
    ball = Ball((0.37, 0.61), 0.12, Norm("l2", 2))
    outer = outer_hull(ball, l2_grid)
    inner = inner_hull(ball, l2_grid)
    assert inner <= outer
    mo = index_union(outer, l2_grid).measure
    mi = index_union(inner, l2_grid).measure
    assert mi <= probe_measure(ball) <= mo


def test_index_union_membership(l2_grid):
    u = index_union([(0, 0), (49, 49)], l2_grid)
    assert u.measure == pytest.approx(2.0 / 2500.0)
    assert u.contains([0.01, 0.01])
    assert u.contains([0.999, 0.999])
    assert not u.contains([0.5, 0.5])


def test_inscribed_ball_in_full_block(l2_grid):
    # a (2k+1)-cell square block centered anywhere contains a ball of that width
    members = [(i % 50, j % 50) for i in range(10, 15) for j in range(48, 53)]
    d = inscribed_ball_diameter(members, l2_grid)
    assert d == pytest.approx(5.0 / 50.0, rel=0.05)


# ---------------------------------------------------------------------------
# references: the per-cell hull tests and the margin-window inscribed-ball scan
# that the array geometry replaced, kept as they were


def _ref_axis_dists(c, lo, length):
    u = (c - lo) % 1.0
    dmin = 0.0 if u <= length else min(u - length, 1.0 - u)
    if (c + 0.5 - lo) % 1.0 <= length:
        return dmin, 0.5
    u1 = (c - (lo + length)) % 1.0
    return dmin, max(min(u, 1.0 - u), min(u1, 1.0 - u1))


def _ref_vs_ball(I, ball, m):
    dists = [_ref_axis_dists(c, I[k] / m, 1.0 / m) for k, c in enumerate(ball.center)]
    lo = float(ball.norm.length(np.array([a for a, _ in dists])))
    hi = float(ball.norm.length(np.array([b for _, b in dists])))
    return lo <= ball.radius, hi <= ball.radius


def _ref_vs_box(I, box, m):
    us = [(I[k] / m - box.corner[k]) % 1.0 for k in range(len(I))]
    inter = all(u <= side or u >= 1.0 - 1.0 / m for u, side in zip(us, box.sides))
    cont = all(u + 1.0 / m <= side + 1e-12 for u, side in zip(us, box.sides))
    return inter, cont


def _ref_relation(I, S, m):
    if isinstance(S, Ball):
        return _ref_vs_ball(I, S, m)
    if isinstance(S, Box):
        return _ref_vs_box(I, S, m)
    ib, cb = _ref_vs_ball(I, S.ball, m)
    ix, cx = _ref_vs_box(I, S.box, m)
    if not (ib and ix):
        return False, cb and cx
    dmin = []
    for k, c in enumerate(S.ball.center):
        u = (I[k] / m - S.box.corner[k]) % 1.0
        side = S.box.sides[k]
        lo, hi = (u, min(u + 1.0 / m, side)) if u <= side else (0.0, min(u + 1.0 / m - 1.0, side))
        dmin.append(_ref_axis_dists(c, (S.box.corner[k] + lo) % 1.0, hi - lo)[0])
    return float(S.ball.norm.length(np.array(dmin))) <= S.ball.radius, cb and cx


def _ref_hulls(S, m):
    if isinstance(S, Ball):
        los, lens = [c - S.radius for c in S.center], [2 * S.radius] * len(S.center)
    else:
        box = S if isinstance(S, Box) else S.box
        los, lens = list(box.corner), list(box.sides)
    ranges = []
    for lo, ln in zip(los, lens):
        a = int(math.floor((lo % 1.0) * m)) - 1
        count = int(math.ceil(ln * m)) + 3
        ranges.append([(a + k) % m for k in range(min(count, m))])
    rel = {I: _ref_relation(I, S, m) for I in itertools.product(*ranges)}
    return (
        frozenset(I for I, (inter, _) in rel.items() if inter),
        frozenset(I for I, (_, cont) in rel.items() if cont),
    )


def _random_probes(rng, norm, count):
    d = norm.dim
    out = []
    for _ in range(count):
        c = tuple(float(x) for x in rng.random(d))
        ball = Ball(c, float(rng.uniform(0.02, 0.24)), norm)
        box = Box(tuple(float(x) for x in rng.random(d)),
                  tuple(float(x) for x in rng.uniform(0.01, 0.49, d)))
        near = Box(tuple(float(x) for x in (np.array(c) - rng.uniform(0, 0.3, d)) % 1.0),
                   tuple(float(x) for x in rng.uniform(0.05, 0.49, d)))
        out += [ball, box, BallBoxIntersection(ball, near)]
    # probes whose faces sit on cell boundaries
    return out + [Ball((0.5,) * d, 0.2, norm), Box((0.0,) * d, (0.25,) * d)]


def test_interval_dists_match_sampled_interval():
    # min and max over 2001 points of the interval, on circles of length 1
    # and 7; the intervals include ones that hold the antipode of c
    rng = np.random.default_rng(4)
    for period in (1.0, 7.0):
        c = rng.uniform(-period, 2 * period, 300)
        lo = rng.uniform(0, period, 300)
        length = rng.uniform(0, period / 2, 300)
        length[:50] = period / 7
        dmin, dmax = _interval_dists(c, lo, length, period=period)
        x = np.mod(c[:, None] - lo[:, None] - length[:, None] * np.linspace(0, 1, 2001), period)
        dist = np.minimum(x, period - x)
        step = length / 2000
        assert np.all(np.abs(dmin - dist.min(axis=1)) <= step + 1e-12)
        assert np.all(np.abs(dmax - dist.max(axis=1)) <= step + 1e-12)
    dmin, dmax = _interval_dists(0.1, 0.55, 0.1)
    assert (dmin, dmax) == (pytest.approx(0.45), 0.5)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hulls_match_per_cell_reference(kind, dim):
    norm = Norm(kind, dim)
    rng = np.random.default_rng(17 + dim)
    grids = [build_grid(ModelParams(200.0, 0.2 if dim == 3 else 0.1, norm), 3)]
    grids += [tiny_grid(norm, m=m, s=2, n=1.0) for m in (4, 5, 6, 7)]
    for g in grids:
        for S in _random_probes(rng, norm, 4):
            outer, inner = _ref_hulls(S, g.m)
            assert outer_hull(S, g) == outer
            assert inner_hull(S, g) == inner


def _ref_inscribed(members, grid, refine=8):
    members = [tuple(map(int, I)) for I in members]
    m, d = grid.m, grid.norm.dim
    offs = np.array([(np.array(I) - np.array(members[0]) + m // 2) % m - m // 2 for I in members])
    lo, hi = offs.min(axis=0), offs.max(axis=0)
    margin = int(np.ceil((hi - lo).max() / 2)) + 2
    grids = [np.arange(lo[k] - margin, hi[k] + margin + 1) for k in range(d)]
    # the fallback that mixed offsets with cell indices is not kept: callers
    # must stay inside the window
    assert all(len(gk) < m for gk in grids)
    member_set = {tuple(o) for o in offs}
    # the nearest non-member touches a member: short of the nearest point p of
    # its box, the segment from the center to p runs through member cells only,
    # or a nearer non-member would exist; so only the 3^d neighbours are scored
    touch = np.unique((offs[:, None, :] + _lattice(-1, 2, d)).reshape(-1, d), axis=0)
    nonmem = np.array([row for row in touch if tuple(row) not in member_set], dtype=float)
    sub = (np.arange(refine) + 0.5) / refine
    shifts = np.array(list(itertools.product(sub, repeat=d)))
    centers = (offs[:, None, :] + shifts[None, :, :]).reshape(-1, d)
    best = 0.0
    chunk = max(1, 2_000_000 // len(nonmem))
    for i in range(0, len(centers), chunk):
        cs = centers[i : i + chunk]
        diff_lo = nonmem[None, :, :] - cs[:, None, :]
        diff_hi = cs[:, None, :] - (nonmem[None, :, :] + 1.0)
        gap = np.maximum(np.maximum(diff_lo, diff_hi), 0.0)
        best = max(best, float(grid.norm.length(gap).min(axis=1).max()))
    return 2.0 * best / m


def test_inscribed_ball_matches_window_reference(l2_grid):
    headline = ModelParams(150.0, 0.1, Norm("l2", 2))
    # the criterion-13 sets (anchor (0, 0)) and anchors at the seam
    cases = []
    for s, anchors in ((8, 3), (16, 2), (32, 1)):
        g = build_grid(headline, s)
        cases += [(g, a) for a in [(0, 0), (g.m - 1, g.m - 3), (g.m // 2, 7)][:anchors]]
    for kind, dim, r in (("l1", 1, 0.05), ("l1", 2, 0.1), ("linf", 2, 0.1)):
        g = build_grid(ModelParams(200.0, r, Norm(kind, dim)), 4)
        cases += [(g, (0,) * dim), (g, (g.m - 1,) * dim)]
    g = build_grid(ModelParams(200.0, 0.2, Norm("l1", 3)), 3)
    cases.append((g, (g.m - 1, 0, 0)))
    for g, a in cases:
        W = clique_translate(g, a)
        assert inscribed_ball_diameter(W, g) == _ref_inscribed(W, g)
    # a block across the seam of the m=50 grid
    block = [(i % 50, j) for i in range(47, 53) for j in range(20, 23)]
    assert inscribed_ball_diameter(block, l2_grid) == _ref_inscribed(block, l2_grid)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inscribed_ball_pruning_matches_reference_on_irregular_sets(kind, dim):
    # the scan skips cells whose middle-plus-slack bound cannot beat the best
    # center so far.  In a blob with holes a cell's best center can sit far
    # from its middle, which near-convex clique translates never show: the L1
    # and L2 blobs at d = 2, 3 fail if the slack is left out of the bound, and
    # the L2 blob at d = 2 fails with half of it
    g = build_grid(ModelParams(200.0, {1: 0.0749, 2: 0.107, 3: 0.166}[dim], Norm(kind, dim)), 3)
    shape, p, seed = {1: ((12,), 0.7, 0), 2: ((7, 7), 0.7, 0), 3: ((3, 2, 2), 0.7, 5)}[dim]
    window = np.array(list(itertools.product(*map(range, shape))))
    sets = [window[np.random.default_rng(seed).random(len(window)) < p]]
    # thin strips, one and two cells wide
    line = np.zeros((shape[0], dim), dtype=np.int64)
    line[:, 0] = np.arange(len(line))
    sets += [line] if dim != 2 else [line, np.concatenate([line, line + (0, 1)])]
    for rows in sets:
        W = [tuple(int(c) for c in I) for I in (rows - 1) % g.m]  # across every seam
        assert inscribed_ball_diameter(W, g) == _ref_inscribed(W, g)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("s,r", [(3, 0.33), (4, 0.33), (3, 0.25)])
def test_inscribed_ball_on_coarse_grids(kind, s, r):
    # m = 9, 12, 12: the margin window of the old scan reached m here, and its
    # fallback gave ratios of 2.25-3.3, wider than the clique sets themselves
    g = build_grid(ModelParams(200.0, r, Norm(kind, 2)), s)
    ratios = {
        inscribed_ball_diameter(clique_translate(g, a), g) / g.r
        for a in ((0, 0), (g.m - 1, 3), (4, g.m - 2), (5, 5))
    }
    assert len(ratios) == 1
    ratio = ratios.pop()
    assert 1.0 - 1.0 / s <= ratio <= (s + 2.0 * math.sqrt(2)) / (g.m * g.r)


def test_inscribed_ball_wrapping_sets_on_tiny_grid(tiny):
    # a width-w set holds no ball wider than w cells; the center sub-grid
    # loses at most 1/8 cell of it
    g = tiny_grid(Norm("linf", 2), m=7, s=2, n=1.0)
    block = [(i % 7, j % 7) for i in range(5, 8) for j in range(3)]
    stripe = [(i, j) for i in range(2) for j in range(7)]
    for W, w in ((block, 3), (stripe, 2)):
        got = inscribed_ball_diameter(W, g)
        assert (w - 1 / 8) / 7 - 1e-12 <= got <= w / 7
    assert inscribed_ball_diameter(block, g) == inscribed_ball_diameter(
        [(i, j) for i in range(3) for j in range(3)], g
    )
    # the clique set of the m=4, s=3 line is every cell: no complement to measure
    with pytest.raises(ValueError, match="cover the torus"):
        inscribed_ball_diameter(tiny.clique_offsets, tiny)


def test_config_csv_round_trip(l2_grid):
    cfg = sample_cell_config(l2_grid, seed=77)
    back = load_config_csv(dump_config_csv(cfg), l2_grid)
    assert np.array_equal(back.counts, cfg.counts)


def _dump_config_csv_per_row(cfg):
    """The per-row writer that `dump_config_csv` must reproduce byte for byte."""
    d = cfg.grid.norm.dim
    rows = []
    for f in np.nonzero(cfg.counts)[0]:
        I = unflat_index(int(f), cfg.grid.m, d)
        rows.append(",".join(str(c) for c in I) + f",{int(cfg.counts[f])}\n")
    return ",".join(f"i{k}" for k in range(d)) + ",count\n" + "".join(rows)


@pytest.mark.parametrize("dim, r", [(1, 0.01), (2, 0.05), (3, 0.2)])
def test_config_csv_matches_per_row_writer_and_round_trips(dim, r):
    grid = build_grid(ModelParams(1000.0, r, Norm("linf", dim)), 3)
    planted = sample_cell_config(grid, seed=78).counts
    planted[[0, grid.num_cells // 3, grid.num_cells - 1]] = [123, 4567, 89]
    for counts in (np.zeros(grid.num_cells, dtype=np.int64), planted):
        cfg = CellConfig(counts, grid)
        text = dump_config_csv(cfg)
        assert text == _dump_config_csv_per_row(cfg)
        crlf, cr = text.replace("\n", "\r\n"), text.replace("\n", "\r")
        # blanks around every field, and a blank-only line after every row
        spaced = text.replace(",", " ,\t").replace("\n", " \n \t \n")
        for variant in (text, crlf, cr, text + "\n\n", "\n" + crlf + "\r\n\r\n", spaced):
            assert np.array_equal(load_config_csv(variant, grid).counts, counts)
    header_only = dump_config_csv(CellConfig(np.zeros(grid.num_cells, dtype=np.int64), grid))
    assert header_only.count("\n") == 1
    assert not load_config_csv(header_only.strip(), grid).counts.any()


def test_config_csv_rejects_rows_off_the_grid(l2_grid):
    # the last has whole rows before its bad token, so a parser that stops
    # there would load a valid-looking prefix
    bad_rows = ("50,0,3\n", "0,3\n", "0,x,3\n", "0,1,3\nx,1,1\n", "0,1,3 # c\n", "0,1,1.5\n",
                "0,1,1e2\n", "0,1,3,\n", ",0,1,3\n", "1_0,2,3\n", "0,1,+\n", "0,1,\xa03\n")
    for bad in ("i0,i1,count\n" + rows for rows in bad_rows):
        with pytest.raises(ValueError):
            load_config_csv(bad, l2_grid)


def test_config_csv_rejects_a_repeated_cell(l2_grid):
    # a later row would otherwise overwrite the earlier one
    with pytest.raises(ValueError, match="more than one row"):
        load_config_csv("i0,i1,count\n0,1,3\n2,2,1\n0,1,5\n", l2_grid)


def test_config_csv_rejects_a_token_count_off_the_rows(l2_grid):
    # six tokens on one line would reshape into two valid-looking rows
    with pytest.raises(ValueError, match="1 rows need 3 integers, got 6"):
        load_config_csv("i0,i1,count\n0,1,3,4,5,6\n", l2_grid)


def test_config_csv_rejects_rows_of_compensating_widths(l2_grid):
    # 2 + 4 tokens, or 4 tokens in three fields beside an empty field, match
    # the two rows' total of 2 * 3
    for rows in ("0,1\n2,3,4,5\n", "0 1,2,3\n,4,5\n"):
        with pytest.raises(ValueError, match="a row does not hold 3 comma-separated fields"):
            load_config_csv("i0,i1,count\n" + rows, l2_grid)


def test_config_csv_rejects_a_count_past_int64(l2_grid):
    with pytest.raises(ValueError, match="int64"):
        load_config_csv(f"i0,i1,count\n0,1,{10**20}\n", l2_grid)
    with pytest.raises(ValueError, match="int64"):
        load_config_csv(f"i0,i1,count\n0,1,{2**63}\n", l2_grid)
    # the largest int64 is a count like any other
    assert load_config_csv(f"i0,i1,count\n0,1,{2**63 - 1}\n", l2_grid)[0, 1] == 2**63 - 1


def test_config_csv_rejects_a_field_numpy_casts_from_a_float(l2_grid, monkeypatch):
    # numpy 1.23 on, until the fallback went, loads 1.5 as 1, 1e2 as 100 and
    # 2**63 as an undefined cast, and only warns; this stands in for it
    def loadtxt_with_float_fallback(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([[0, 1, 1]], dtype=np.int64)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_float_fallback)
    with pytest.raises(ValueError, match="int64"):
        load_config_csv("i0,i1,count\n0,1,1.5\n", l2_grid)


def test_mu_s_dominates_mu_across_settings():
    # discretization only adds pairs, so mu <= mu_s; and cells tile tau_s
    for kind, d in (("l2", 2), ("linf", 2), ("l1", 2), ("linf", 1)):
        for s in (4, 6):
            params = ModelParams(200.0, 0.05, Norm(kind, d))
            g = build_grid(params, s)
            assert params.mu <= g.mu_s
            assert g.num_cells * params.tau <= g.tau_s + 1e-9
