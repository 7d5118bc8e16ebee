import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rggloc import (
    CellConfig,
    ModelParams,
    Norm,
    Q_cross,
    Q_internal,
    V_count,
    build_grid,
    certify_thm2,
    derived_scales,
    event_A,
    event_B,
    event_D,
    event_L,
    exact_poisson_tail,
    h_frac,
    jensen_lower_bound,
    localization_profile,
    planted_cell_sampler,
    poisson_tail_bound,
    rate_Y,
    sample_cell_config,
    sgraded_edge_count,
    tiny_grid,
)
from rggloc.cli import _svg_heatmap
from rggloc.grid import (
    _cell_set,
    clique_translate,
    index_union,
    inscribed_ball_diameter,
    is_maximal_clique_set,
    neighbor_offsets,
    set_diameter,
    unflat_index,
)
from rggloc.stats import (
    _pair_sums,
    log_poisson_pmf,
    log_poisson_sf,
    sum_rate_Y,
    truncated_edge_count,
)

from scipy import stats as sps


def test_derived_scales_headline(l2_scales):
    s = l2_scales
    assert s.q == pytest.approx(math.sqrt(2.0 * 490.5))
    assert s.w == pytest.approx(32 * 0.06)
    assert s.a == pytest.approx(0.1 / 25)
    assert s.p_hat == pytest.approx(math.log(490.5) / math.log(150.0))
    # M = max(D n^a, n^a) = n^a when D < 1
    assert s.M == pytest.approx(150.0**s.a)
    assert 0.0 < s.xi < 1e-20  # epsilon^40 cap dominates at eps=0.2


def test_scale_exponent_orderings(l2_scales):
    s = l2_scales
    assert s.z == max(s.p_hat / 4.0, 0.75 * s.p_hat - 0.5)
    assert s.alpha == min(1.0 - s.p_hat / 2.0 - s.a / 2.0, s.p_hat / 2.0 - s.a / 2.0)
    assert s.beta == s.p_hat / 2.0 - s.a / 4.0
    assert s.gamma == s.p_hat - 2.0 * s.a


def test_rate_Y_basics():
    assert rate_Y(0.0, 2.0) == pytest.approx(2.0)  # 0 log 0 = 0
    assert rate_Y(2.0, 2.0) == pytest.approx(0.0)
    assert rate_Y(5.0, 2.0) > 0.0
    with pytest.raises(ValueError):
        rate_Y(1.0, 0.0)


@given(
    D=st.floats(0.05, 50.0),
    mult=st.floats(1.01, 6.0),
)
@settings(max_examples=150, deadline=None)
def test_chernoff_dominates_exact_upper(D, mult):
    t = D * mult
    assert poisson_tail_bound(D, t, "upper") >= exact_poisson_tail(D, t, "upper")


@given(
    D=st.floats(0.5, 50.0),
    mult=st.floats(0.05, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_chernoff_dominates_exact_lower(D, mult):
    t = D * mult
    assert poisson_tail_bound(D, t, "lower") >= exact_poisson_tail(D, t, "lower")


def test_exact_tail_against_scipy():
    # upper side is the strict tail P(X > t) = sf(floor(t))
    for D in (0.3, 2.0, 17.5):
        for t in (D * 1.5, D * 3.0):
            want = sps.poisson.sf(math.floor(t), D)
            assert exact_poisson_tail(D, t, "upper") == pytest.approx(want, rel=1e-10)
            want_lo = sps.poisson.cdf(math.ceil(t * 0.5) - 1, D)
            assert exact_poisson_tail(D, t * 0.5, "lower") == pytest.approx(
                want_lo, rel=1e-10, abs=1e-300
            )


def test_log_poisson_helpers_against_scipy():
    assert log_poisson_sf(5.0, 12.0) == pytest.approx(sps.poisson.logsf(12, 5.0), rel=1e-9)
    assert log_poisson_sf(1.92, 100.0) == pytest.approx(sps.poisson.logsf(100, 1.92), rel=1e-9)
    assert log_poisson_pmf(3.0, 7) == pytest.approx(sps.poisson.logpmf(7, 3.0), rel=1e-12)


def _random_window(grid, rng, size):
    anchor = tuple(rng.integers(0, grid.m, grid.norm.dim))
    W = sorted(clique_translate(grid, anchor))
    return [tuple(map(int, I)) for I in W[:size]]


def test_partition_identity(l2_grid, l2_scales):
    """|E_s| splits exactly into internal, cross, and complement pair counts."""
    rng = np.random.default_rng(4)
    q2 = l2_scales.q**2 / 2.0
    for k in range(10):
        cfg = sample_cell_config(l2_grid, seed=61, replica=k)
        W = _random_window(l2_grid, rng, size=12)
        comp = [
            unflat_index(f, l2_grid.m, 2)
            for f in range(l2_grid.num_cells)
            if unflat_index(f, l2_grid.m, 2) not in set(W)
        ]
        total = q2 * (
            Q_internal(W, cfg, l2_scales)
            + Q_cross(W, comp, cfg, l2_scales)
            + Q_internal(comp, cfg, l2_scales)
        )
        assert total == pytest.approx(sgraded_edge_count(cfg), abs=1e-6)


def _dense_pair_counts(cfg, mask, mask2):
    """The dense reference for `_pair_sums`: mask the whole lattice and roll it
    once per neighbor offset."""
    grid = cfg.grid
    axes = tuple(range(grid.norm.dim))
    xw = np.where(mask.reshape(grid.shape), cfg.lattice(), 0)
    xw2 = np.where(mask2.reshape(grid.shape), cfg.lattice(), 0)
    cross = sum(
        int((xw * np.roll(xw2, tuple(-c for c in o), axis=axes)).sum())
        for o in neighbor_offsets(grid)
    )
    return int((xw * (xw - 1)).sum()) // 2, cross


def _mask(W, grid):
    """The flat boolean mask of the cell set W."""
    mask = np.zeros(grid.num_cells, dtype=bool)
    mask[_cell_set(W, grid)] = True
    return mask


def _assert_pair_sums_match_dense(cfg, scales, rng):
    grid = cfg.grid
    n = grid.num_cells
    one = np.zeros(n, dtype=bool)
    one[rng.integers(n)] = True
    anchor = tuple(int(c) for c in rng.integers(0, grid.m, grid.norm.dim))
    masks = [np.zeros(n, dtype=bool), one, _mask(clique_translate(grid, anchor), grid)]
    masks += [rng.random(n) < p for p in (0.01, 0.5, 0.999)]
    k = 2.0 / scales.q**2
    for i, W in enumerate(masks + [~W for W in masks]):
        within, cross2 = _dense_pair_counts(cfg, W, W)
        cross = _dense_pair_counts(cfg, W, ~W)[1]
        members = np.flatnonzero(W)
        # the third count is every neighbor product of W, in W or not
        assert _pair_sums(cfg, members, np.flatnonzero(~W)) == (within, cross, cross2 + cross)
        assert _pair_sums(cfg, members) == (within, cross2, cross2 + cross)
        assert Q_internal(W, cfg, scales) == k * (within + cross2 / 2.0)
        assert Q_cross(W, ~W, cfg, scales) == k * cross
        if i < 4:  # the small sets as (k, d) index rows, raveled with no mask
            rows = np.argwhere(W.reshape(grid.shape))
            assert Q_internal(rows, cfg, scales) == k * (within + cross2 / 2.0)


def test_pair_sums_match_dense_rolls(l2_grid, l2_scales):
    rng = np.random.default_rng(8)
    for k in range(2):
        _assert_pair_sums_match_dense(sample_cell_config(l2_grid, seed=65, replica=k), l2_scales, rng)
        ws = planted_cell_sampler(l2_grid, 1.0, seed=66, replica=k)
        _assert_pair_sums_match_dense(ws.config, l2_scales, rng)


def test_pair_sums_of_an_empty_set_skip_the_offsets(l2_grid, l2_scales, monkeypatch):
    # an empty W returns before the neighbour-offset loop, which would gather
    # nothing at |N_I| - 1 = 108 offsets
    cfg = planted_cell_sampler(l2_grid, 1.0, seed=66, replica=0)
    empty = np.zeros(l2_grid.num_cells, dtype=bool)
    monkeypatch.setattr("rggloc.stats._translate", None)
    none = np.flatnonzero(empty)
    assert _pair_sums(cfg.config, none, none) == (0, 0, 0)
    assert _pair_sums(cfg.config, none, np.flatnonzero(~empty)) == (0, 0, 0)
    assert _pair_sums(cfg.config, none) == (0, 0, 0)
    assert Q_internal(np.zeros((0, 2), dtype=np.int64), cfg.config, l2_scales) == 0.0
    assert Q_cross(empty, ~empty, cfg.config, l2_scales) == 0.0
    assert Q_cross([], clique_translate(l2_grid, cfg.anchor), cfg.config, l2_scales) == 0.0


def test_pair_sums_refuse_int64_overflow(l2_grid):
    # one cell's pair count is exact at 2^30 points; at 2^31 the partial-sum
    # bound sum(X_W) (max X_W + ...) reaches 2^62
    counts = np.zeros(l2_grid.num_cells, dtype=np.int64)
    members = np.array([7])
    counts[7] = 2**30
    assert _pair_sums(CellConfig(counts, l2_grid), members) == (2**30 * (2**30 - 1) // 2, 0, 0)
    counts[7] = 2**31
    with pytest.raises(OverflowError):
        _pair_sums(CellConfig(counts, l2_grid), members)


def test_index_sets_keep_their_forms():
    """Q, V and Q_cross read a 1-D integer array as the parent tuple form
    does: at d = 1 its entries are cells in any order, duplicates counted once
    and a negative entry refused; at d = 2 it is read in pairs.  (k, d) index
    rows, unsorted and repeated, give the same values as their tuples."""
    for d, W in ((1, [5, 3, 5, 40]), (2, [5, 3, 7, 0, 5, 3])):
        grid = tiny_grid(Norm("l2", d), m=9, s=2, n=2.0 * 9**d)
        scales = derived_scales(grid, delta_tilde=1.0)
        cfg = sample_cell_config(grid, seed=70, replica=d)
        cfg.counts[:] += 3  # every neighbor product nonzero
        arr = np.array(W[: len(W) // d * d]) % grid.m
        tuples = sorted({tuple(int(c) for c in row) for row in arr.reshape(-1, d)})
        rows = arr.reshape(-1, d)[::-1]
        other = [(8,) * d]
        for form in (arr, rows):
            assert Q_internal(form, cfg, scales) == Q_internal(tuples, cfg, scales)
            assert V_count(form, cfg, scales) == V_count(tuples, cfg, scales)
            assert Q_cross(form, other, cfg, scales) == Q_cross(tuples, other, cfg, scales)
        want = sum(int(cfg.counts[np.ravel_multi_index(t, grid.shape)]) for t in tuples)
        assert V_count(rows, cfg, scales) == want / scales.q
        with pytest.raises(ValueError):
            Q_cross(rows, tuples[-1:], cfg, scales)
        for bad in (np.array([-1] * d), np.array([[grid.m] * d])):
            with pytest.raises(ValueError):
                Q_internal(bad, cfg, scales)
            with pytest.raises(ValueError):
                V_count(bad, cfg, scales)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_pair_sums_match_dense_rolls_on_wrapped_tiny_grids(kind):
    # m = 4..7 < 2s+3, where an offset o can equal -o mod m
    rng = np.random.default_rng(9)
    for d in (1, 2):
        for m in range(4, 8):
            for s in (1, 2, 3):
                grid = tiny_grid(Norm(kind, d), m=m, s=s, n=2.0 * m**d)
                scales = derived_scales(grid, delta_tilde=1.0)
                for k in range(2):
                    cfg = sample_cell_config(grid, seed=67 + k, replica=m * 10 + s)
                    _assert_pair_sums_match_dense(cfg, scales, rng)


@pytest.mark.parametrize(
    "params, s",
    [(ModelParams(150.0, 0.1, Norm("l2", 2)), 5), (ModelParams(2000.0, 0.12, Norm("l1", 3)), 3)],
    ids=["l2-d2", "l1-d3"],
)
def test_localization_profile_matches_dense_complement(params, s):
    """Q(frakP, frakP^c) and Q(frakP^c) equal the dense formulas over frakP^c
    on planted replicas 0, 1, ... until four with a nonempty frakP have been
    checked; a planted draw leaves frakP empty about one time in five, and its
    profile carries the same keys, Q(frakP, frakP^c) = 0 and Q(frakP^c) over
    the whole lattice."""
    grid = build_grid(params, s)
    scales = derived_scales(grid, delta_tilde=1.0)
    k = 2.0 / scales.q**2
    nonempty = 0
    for r in range(40):
        cfg = planted_cell_sampler(grid, 1.0, seed=68, replica=r).config
        prof = localization_profile(cfg, grid, scales)
        inside = _mask(certify_thm2(cfg, grid, scales).frakP, grid)
        within, cross2 = _dense_pair_counts(cfg, ~inside, ~inside)
        assert prof["Q_P_comp"] == k * _dense_pair_counts(cfg, inside, ~inside)[1]
        assert prof["Q_comp"] == k * (within + cross2 / 2.0)
        nonempty += bool(inside.any())
        if nonempty == 4:
            break
    assert nonempty == 4


def test_V_squared_dominates_Q(l2_grid, l2_scales):
    rng = np.random.default_rng(5)
    for k in range(20):
        cfg = sample_cell_config(l2_grid, seed=62, replica=k)
        W = _random_window(l2_grid, rng, size=int(rng.integers(2, 32)))
        assert V_count(W, cfg, l2_scales) ** 2 >= Q_internal(W, cfg, l2_scales) - 1e-12


def test_jensen_inequality_random_windows(l2_grid, l2_scales):
    rng = np.random.default_rng(6)
    for k in range(50):
        cfg = sample_cell_config(l2_grid, seed=63, replica=k)
        W = _random_window(l2_grid, rng, size=int(rng.integers(2, 32)))
        lhs = sum_rate_Y(W, cfg) / l2_scales.q
        assert lhs >= jensen_lower_bound(W, cfg, l2_scales) - 1e-9


def test_jensen_tight_at_uniform(l2_grid, l2_scales):
    """Equal counts on W make the Jensen step an identity.

    The lower bound discards the nonnegative sum of the D offsets of Y_I,
    which at uniformity is exactly h(W) w / q; the residual after adding it
    back is floating-point only.
    """
    counts = np.zeros(l2_grid.num_cells, dtype=np.int64)
    W = sorted(clique_translate(l2_grid, (7, 7)))
    from rggloc.grid import flat_index

    for I in W:
        counts[flat_index(I, l2_grid.m)] = 5
    cfg = CellConfig(counts, l2_grid)
    lhs = sum_rate_Y(W, cfg) / l2_scales.q
    rhs = jensen_lower_bound(W, cfg, l2_scales)
    slack = h_frac(W, l2_grid) * l2_scales.w / l2_scales.q
    assert lhs - rhs == pytest.approx(slack, abs=1e-12)
    assert lhs >= rhs
    # the same set as a flat mask, not as m^d coordinates of 0 and 1
    assert jensen_lower_bound(_mask(W, l2_grid), cfg, l2_scales) == rhs


def test_h_frac(l2_grid):
    # h is normalized by the clique size, not the cell count
    assert h_frac([(0, 0)], l2_grid) == pytest.approx(1.0 / 32.0)
    assert h_frac([(0, 0), (0, 0)], l2_grid) == pytest.approx(1.0 / 32.0)


def test_cell_set_rejects_cells_outside_the_grid(l2_grid):
    # m = 50: (1, 0) is flat cell 50, and (0, 50) must not alias it
    mask = np.zeros(l2_grid.num_cells, dtype=bool)
    mask[50] = True
    for form in ([(1, 0), (1, 0)], np.array([[1, 0], [1, 0]]), np.array([1, 0]), mask):
        got = _cell_set(form, l2_grid)
        assert got.dtype == np.int64 and got.tolist() == [50]
    assert _cell_set([], l2_grid).tolist() == []
    for cell in ((0, 50), (-1, 0)):
        for form in ([cell], np.array([cell]), np.array(cell)):
            with pytest.raises(ValueError):
                _cell_set(form, l2_grid)
    with pytest.raises(ValueError):  # a mask of another grid
        _cell_set(mask[:-1], l2_grid)


def test_cell_set_readers_agree_on_every_form(l2_grid, l2_scales, tmp_path):
    """Every reader of a cell set gives one value for the tuple, row and mask
    forms of a set across the seams, and refuses a cell at coordinate m or -1
    in the tuple and row forms instead of wrapping it.  The d = 2 grid draws
    the heatmap, the d = 1 grid its top-cell strip."""
    line = build_grid(ModelParams(200.0, 0.05, Norm("l1", 1)), 4)
    for grid, scales in ((l2_grid, l2_scales), (line, derived_scales(line, delta_tilde=1.0))):
        cfg = sample_cell_config(grid, seed=71)
        cfg.counts[:] += 2  # every cell and neighbor product nonzero
        d, m = grid.norm.dim, grid.m
        W = sorted(clique_translate(grid, (m - 1,) * d))
        far = [(m // 2,) * d]
        svg = tmp_path / "heatmap.svg"

        def heatmap(W):
            _svg_heatmap(cfg.counts, grid, W, "t", svg)
            return svg.read_text()

        readers = {
            "set_diameter": lambda W: set_diameter(W, grid),
            "is_maximal_clique_set": lambda W: is_maximal_clique_set(W, grid),
            "inscribed_ball_diameter": lambda W: inscribed_ball_diameter(W, grid),
            "index_union": lambda W: index_union(W, grid).members,
            "Q_internal": lambda W: Q_internal(W, cfg, scales),
            "Q_cross": lambda W: Q_cross(W, far, cfg, scales),
            "Q_cross W'": lambda W: Q_cross(far, W, cfg, scales),
            "V_count": lambda W: V_count(W, cfg, scales),
            "h_frac": lambda W: h_frac(W, grid),
            "sum_rate_Y": lambda W: sum_rate_Y(W, cfg),
            "jensen_lower_bound": lambda W: jensen_lower_bound(W, cfg, scales),
            "heatmap": heatmap,
        }
        for name, read in readers.items():
            want = read(W)
            assert read(np.array(W)) == want, name
            assert read(_mask(W, grid)) == want, name
            for c in (m, -1):
                bad = W[1:] + [(c,) + (0,) * (d - 1)]
                for form in (bad, np.array(bad)):
                    with pytest.raises(ValueError):
                        read(form)


def test_events_on_planted_config(l2_grid, l2_scales):
    # a clique set at count ceil(q/tau_s)+1 triggers every conditioning event
    counts = np.zeros(l2_grid.num_cells, dtype=np.int64)
    from rggloc.grid import flat_index

    level = math.ceil(l2_scales.q / l2_grid.tau_s) + 5
    for I in clique_translate(l2_grid, (25, 25)):
        counts[flat_index(I, l2_grid.m)] = level
    cfg = CellConfig(counts, l2_grid)
    assert event_L(cfg, l2_scales)
    assert event_A(cfg, l2_scales)
    assert event_B(cfg, l2_scales)
    assert not event_D(cfg, l2_scales)  # truncation removes the planted mass
    assert truncated_edge_count(cfg, l2_scales) == 0


def test_events_quiet_on_nominal(l2_grid, l2_scales):
    hits = sum(
        event_L(sample_cell_config(l2_grid, seed=64, replica=k), l2_scales)
        for k in range(20)
    )
    assert hits == 0  # P(|E_s| >= 2 mu_s) is astronomically small


def test_derived_scales_rejects_bad_inputs(l2_grid):
    with pytest.raises(ValueError):
        derived_scales(l2_grid, delta_tilde=-1.0)
