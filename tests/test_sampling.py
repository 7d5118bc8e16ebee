import math

import numpy as np
import pytest
from scipy import stats as sps

from rggloc import (
    CellConfig,
    ModelParams,
    Norm,
    TailEstimate,
    build_grid,
    exact_tail_tiny,
    importance_estimate_tail,
    params_for_p_hat,
    planted_cell_sampler,
    planted_continuum_sampler,
    rejection_conditional,
    rejection_estimate_tail,
    sample_cell_config,
    sgraded_edge_count,
)
from rggloc import rng
from rggloc.grid import (
    _draw_cells,
    _sgraded_edge_counts,
    flat_index,
    neighbor_offsets,
    tiny_grid,
    unflat_index,
)
from rggloc.sampling import _estimate_from_log_u, _mixture_log_weight, _planted_mean, _replicas


def _edge_pairs(grid):
    """Unordered pairs of distinct adjacent flat cells, from every (I, I+o)."""
    m = grid.m
    f = np.arange(grid.num_cells)
    cells = np.stack(np.unravel_index(f, grid.shape), axis=-1)
    pairs = []
    for o in neighbor_offsets(grid):
        fj = np.ravel_multi_index(((cells + np.array(o)) % m).T, grid.shape)
        pairs.append(np.stack([np.minimum(f, fj), np.maximum(f, fj)], axis=1)[f != fj])
    arr = np.unique(np.concatenate(pairs).reshape(-1, 2), axis=0)
    return arr[:, 0], arr[:, 1]


def _pair_edge_counts(X, pairs):
    """|E_s| of each row of X (flat counts) from the pair list."""
    i1, i2 = pairs
    return (X * (X - 1)).sum(axis=1) // 2 + (X[:, i1] * X[:, i2]).sum(axis=1)


def _clique_flat(grid, anchor):
    m = grid.m
    cells = [tuple((a + o) % m for a, o in zip(anchor, off)) for off in grid.clique_offsets]
    return np.array([flat_index(J, m) for J in cells])


def _reference_draw(grid, Dp, g, R, plant_all=False):
    """R replicas rebuilt from the raw generator in the draw order: R coins, R
    anchors, N ~ Pois(R m^d D) flat indices replica * m^d + cell, then
    K ~ Pois(P tau_s (D' - D)) indices uniform over the P planted replicas'
    clique cells, each point added to its cell one at a time."""
    M, D = grid.num_cells, grid.D
    planted = (g.random(R) < 0.5) | plant_all
    anchors = [unflat_index(int(a), grid.m, grid.norm.dim) for a in g.integers(M, size=R)]
    clf = np.array([_clique_flat(grid, a) for a in anchors]).reshape(R, grid.tau_s)
    X = np.zeros(R * M, dtype=np.int64)
    np.add.at(X, g.integers(R * M, size=g.poisson(R * M * D)), 1)
    cells = np.array([r * M + f for r in range(R) if planted[r] for f in clf[r]], dtype=np.int64)
    np.add.at(X, cells[g.integers(len(cells), size=g.poisson(len(cells) * (Dp - D)))], 1)
    return X.reshape(R, M), planted, anchors, clf


def _cells(g, grid, R, Dp=None):
    """`_draw_cells` of R replicas into a fresh int64 buffer."""
    out = np.empty((R, grid.num_cells), dtype=np.int64)
    _draw_cells(g, grid, out, Dp)
    return out


def _per_replica_reference(grid, t, replicas, seed):
    """One derived stream per replica, each drawn as a batch of one."""
    D, Dp, tau = grid.D, _planted_mean(grid, t), grid.tau_s
    threshold = (1.0 + t) * grid.mu_s
    pairs = _edge_pairs(grid)
    logu = np.full(replicas, -np.inf)
    for k in range(replicas):
        X, _, _, clf = _reference_draw(grid, Dp, rng.generator(seed, k), 1)
        lw = float(_mixture_log_weight(int(X[0, clf[0]].sum()), D, Dp, tau))
        if _pair_edge_counts(X, pairs)[0] >= threshold:
            logu[k] = lw
    return _estimate_from_log_u(logu, replicas, t, threshold, "importance")


def _batched_reference(grid, t, replicas, seed):
    """Blocks of 65536 replicas, block c drawn from stream (seed, c)."""
    D, Dp, tau = grid.D, _planted_mean(grid, t), grid.tau_s
    threshold = (1.0 + t) * grid.mu_s
    pairs = _edge_pairs(grid)
    logu = np.full(replicas, -np.inf)
    for c, lo in enumerate(range(0, replicas, 65536)):
        R = min(65536, replicas - lo)
        X, _, _, clf = _reference_draw(grid, Dp, rng.generator(seed, c), R)
        lw = _mixture_log_weight(X[np.arange(R)[:, None], clf].sum(axis=1), D, Dp, tau)
        logu[lo : lo + R] = np.where(_pair_edge_counts(X, pairs) >= threshold, lw, -np.inf)
    return _estimate_from_log_u(logu, replicas, t, threshold, "importance")


def test_exact_tail_tiny_against_closed_form(tiny):
    # every cell pair adjacent => |E_s| = C(N,2) with N ~ Poisson(4);
    # threshold 16 edges means N >= 7
    est = exact_tail_tiny(tiny, threshold=16.0)
    want = sps.poisson.sf(6, 4.0)
    assert math.exp(est.log_prob) == pytest.approx(want, rel=1e-8)
    assert est.method == "exact"
    assert est.truncation_error <= 1e-9


def test_exact_tail_tiny_refuses_big_grids(l2_grid):
    with pytest.raises(ValueError):
        exact_tail_tiny(l2_grid, threshold=100.0)


def test_planted_sampler_weight_bounded(tiny):
    # mixture weights are bounded by 2 (defensive-mixture property)
    for k in range(200):
        ws = planted_cell_sampler(tiny, t=1.0, seed=41, replica=k)
        assert ws.log_weight <= math.log(2.0) + 1e-12
        assert ws.component in ("nominal", "planted")


def test_planted_sampler_determinism(tiny):
    a = planted_cell_sampler(tiny, t=1.0, seed=42, replica=7)
    b = planted_cell_sampler(tiny, t=1.0, seed=42, replica=7)
    assert np.array_equal(a.config.counts, b.config.counts)
    assert a.log_weight == b.log_weight
    assert a.anchor == b.anchor


def test_planted_sampler_draws_the_per_replica_planted_stream(tiny, l2_grid):
    # the sampler is replica k of the per-replica estimator path with its coin
    # drawn and then ignored: coin, anchor, base points, clique-set points
    readme = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    coins = []
    for grid in (tiny, l2_grid, readme):
        Dp = _planted_mean(grid, 1.0)
        for k in range(8):
            X, _, anchors, clf = _reference_draw(grid, Dp, rng.generator(42, k), 1, plant_all=True)
            ws = planted_cell_sampler(grid, t=1.0, seed=42, replica=k)
            assert ws.anchor == anchors[0] and ws.component == "planted"
            assert np.array_equal(ws.config.counts, X[0])
            lw = _mixture_log_weight(int(X[0, clf[0]].sum()), grid.D, Dp, grid.tau_s)
            assert ws.log_weight == float(lw)
            Y, planted, _, _ = _reference_draw(grid, Dp, rng.generator(42, k), 1)
            coins.append(bool(planted[0]))
            if planted[0]:
                assert np.array_equal(Y, X)
    assert 0 < sum(coins) < len(coins)


def test_planted_sampler_falls_back_to_the_nominal_draw(tiny):
    # a tilt too small to raise D' above D gives sample_cell_config's counts
    assert _planted_mean(tiny, 1e-6) <= tiny.D
    with pytest.warns(UserWarning):
        ws = planted_cell_sampler(tiny, t=1e-6, seed=42, replica=3)
    assert (ws.component, ws.log_weight, ws.anchor) == ("nominal", 0.0, ())
    assert np.array_equal(ws.config.counts, sample_cell_config(tiny, 42, 3).counts)


def _assert_poisson(x, lam):
    """At least 10^6 counts whose mean and variance lie within 5 standard
    errors of lam and whose histogram passes a chi-square fit (p > 1e-3),
    with the counts above the (1 - 50/n) quantile merged into one bin."""
    x = np.asarray(x).ravel()
    n = x.size
    assert n >= 10**6
    assert abs(x.mean() - lam) < 5.0 * math.sqrt(lam / n)
    assert abs(x.var() - lam) < 5.0 * math.sqrt((lam + 2.0 * lam**2) / n)
    K = int(sps.poisson.ppf(1.0 - 50.0 / n, lam))
    observed = np.bincount(np.minimum(x, K), minlength=K + 1)
    expected = n * np.append(sps.poisson.pmf(np.arange(K), lam), sps.poisson.sf(K - 1, lam))
    assert sps.chisquare(observed, expected).pvalue > 1e-3


def _tiny_batches(tiny, seed, chunks=10):
    """The estimator's draws on the tiny grid, 65536 replicas a stream, split
    by the coin each replica drew first: (nominal rows, planted rows)."""
    Dp = _planted_mean(tiny, 1.0)
    out = [], []
    for c in range(chunks):
        X = _cells(rng.generator(seed, c), tiny, 65536, Dp)
        coins = rng.generator(seed, c).random(65536) < 0.5
        out[0].append(X[~coins])
        out[1].append(X[coins])
    return np.concatenate(out[0]), np.concatenate(out[1])


def test_batched_cells_are_poisson_d_and_planted_cells_poisson_dprime(tiny):
    # on the tiny grid the clique set is every cell, so a planted replica is
    # Poisson(D') throughout and a nominal one Poisson(D)
    assert tiny.tau_s == tiny.num_cells
    nominal, planted = _tiny_batches(tiny, seed=61)
    _assert_poisson(nominal, tiny.D)
    _assert_poisson(planted, _planted_mean(tiny, 1.0))


def test_per_replica_cells_are_poisson_d_off_the_planted_set():
    big = build_grid(params_for_p_hat(1e5, 1.0, Norm("linf", 1)), 5)
    assert big.num_cells == 499_999
    _assert_poisson([sample_cell_config(big, 62, k).counts for k in range(3)], big.D)
    off = []
    for k in range(3):
        ws = planted_cell_sampler(big, t=1.0, seed=63, replica=k)
        mask = np.ones(big.num_cells, dtype=bool)
        mask[_clique_flat(big, ws.anchor)] = False
        off.append(ws.config.counts[mask])
    _assert_poisson(np.concatenate(off), big.D)


def test_batched_replicas_are_uncorrelated(tiny):
    # rows of one (R, m^d) batch share a single Poisson total and count;
    # cell counts of replicas r and r + lag are still uncorrelated
    X = _cells(rng.generator(64, 0), tiny, 65536, _planted_mean(tiny, 1.0))
    for lag in (1, 2, 4096, 32768):
        a, b = X[:-lag].ravel(), X[lag:].ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(a.size)
        assert abs(np.corrcoef(X[:-lag].sum(axis=1), X[lag:].sum(axis=1))[0, 1]) < 5.0 / math.sqrt(len(X) - lag)


def test_planted_sampler_rejects_bad_t(tiny):
    with pytest.raises(ValueError):
        planted_cell_sampler(tiny, t=0.0, seed=1)


def test_importance_matches_exact_on_tiny(tiny):
    est = importance_estimate_tail(tiny, t=1.0, replicas=20_000, seed=43)
    exact = exact_tail_tiny(tiny, threshold=(1.0 + 1.0) * tiny.mu_s)
    assert est.threshold == pytest.approx(exact.threshold)
    diff = abs(math.exp(est.log_prob) - math.exp(exact.log_prob))
    assert diff < 3.0 * est.std_err
    assert not est.unreliable
    # ESS <= hits by Cauchy-Schwarz, and a reliable estimate has ESS >= 10
    assert 10.0 <= est.ess <= est.n_hits <= est.n_replicas


def test_importance_matches_rejection_on_tiny(tiny):
    # near the bulk, both estimators are feasible and must agree
    est_is = importance_estimate_tail(tiny, t=1.0, replicas=30_000, seed=44)
    est_rej = rejection_estimate_tail(tiny, t=1.0, replicas=30_000, seed=45)
    se = math.hypot(est_is.std_err, est_rej.std_err)
    assert abs(math.exp(est_is.log_prob) - math.exp(est_rej.log_prob)) < 3.5 * se


def test_importance_replica_floor(tiny):
    with pytest.raises(ValueError):
        importance_estimate_tail(tiny, t=1.0, replicas=50, seed=1)


def test_importance_chunks_reproduce_per_replica_and_batched_streams(tiny):
    # above 512 cells replica k is row k - lo of a chunk of floor(2^19 / m^d)
    # rows with its own stream (seed, k), as the per-replica path drew it; on
    # the tiny grid chunk 0 is the single batched stream, so both estimates
    # are equal, not only statistically close
    readme = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    big = build_grid(params_for_p_hat(1e4, 1.0, Norm("linf", 1)), 5)
    assert readme.num_cells == 5000 and big.num_cells == 50000
    for grid, replicas in ((readme, 100), (readme, 250), (big, 100)):  # chunks 100; 104/104/42; 10 x 10
        est = importance_estimate_tail(grid, t=1.0, replicas=replicas, seed=11)
        assert est.log_prob > -math.inf
        assert est == _per_replica_reference(grid, 1.0, replicas, 11)
    est = importance_estimate_tail(tiny, t=1.0, replicas=10_000, seed=46)
    assert est.log_prob > -math.inf
    assert est == _batched_reference(tiny, 1.0, 10_000, 46)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_sgraded_edge_count_matches_pair_set(kind):
    # wrapped tiny grids, where an offset o can equal -o mod m
    for d in (1, 2):
        for m in range(4, 8):
            for s in (1, 2, 3):
                grid = tiny_grid(Norm(kind, d), m=m, s=s, n=2.0 * m**d)
                X = rng.generator(53, m * 10 + s).poisson(grid.D, size=(6, grid.num_cells))
                want = _pair_edge_counts(X, _edge_pairs(grid)).tolist()
                assert [sgraded_edge_count(CellConfig(x, grid)) for x in X] == want
                assert _sgraded_edge_counts(X.reshape(6, *grid.shape), grid).tolist() == want
                # the replica loop's form: float64 rows drawn each from its own
                # stream, with their totals taken from the draw
                Y = np.empty((6, grid.num_cells))
                gens = [rng.generator(54, m * 10 + s + 100 * j) for j in range(6)]
                _, _, total = _draw_cells(gens, grid, Y, 2.0 * grid.D)
                assert total.dtype == np.int64 and total.tolist() == Y.sum(axis=1).tolist()
                want = _pair_edge_counts(Y.astype(np.int64), _edge_pairs(grid)).tolist()
                y = Y.reshape(6, *grid.shape)
                assert _sgraded_edge_counts(y, grid, total).tolist() == want
                assert _sgraded_edge_counts(y, grid).tolist() == want


def test_rejection_conditional_accepts_only_above_threshold(tiny):
    threshold = 1.5 * tiny.mu_s
    accepted, rate = rejection_conditional(tiny, threshold, budget=2000, seed=47)
    assert 0.0 < rate < 1.0
    for cfg in accepted:
        assert sgraded_edge_count(cfg) >= threshold


def test_rejection_estimate_counts_the_conditional_acceptances(tiny):
    # the estimate is the accepted list's size over the budget, built as the
    # estimator did when it kept the accepted configs
    for t, replicas, seed in ((1.0, 2000, 45), (0.5, 2000, 47), (1.0, 500, 48), (30.0, 500, 48)):
        threshold = (1.0 + t) * tiny.mu_s
        accepted, rate = rejection_conditional(tiny, threshold, budget=replicas, seed=seed)
        est = rejection_estimate_tail(tiny, t=t, replicas=replicas, seed=seed)
        assert est.n_hits == len(accepted) == round(rate * replicas)
        if rate == 0.0:
            assert est.log_prob == -math.inf and est.unreliable
            continue
        se = math.sqrt(rate * (1.0 - rate) / replicas)
        assert est == TailEstimate(
            t=t, log_prob=math.log(rate), std_err=se, rel_std_err=se / rate,
            n_replicas=replicas, method="rejection", threshold=threshold,
            unreliable=replicas * rate < 10, ess=float(len(accepted)), n_hits=len(accepted),
        )


def test_rejection_on_tiny_takes_the_rows_of_the_batched_streams(tiny):
    # on grids of at most 512 cells the nominal replicas are the rows of
    # 65536-replica chunks, chunk c drawn from stream (seed, c); configs
    # accepted from the first 1000 rows of chunk 0 must survive chunk 1
    # being drawn into the same rows of the loop's buffer
    budget, seed = 65536 + 1000, 47
    X = np.concatenate([
        _cells(rng.generator(seed, 0), tiny, 65536),
        _cells(rng.generator(seed, 1), tiny, 1000),
    ])
    hits = np.flatnonzero(_pair_edge_counts(X, _edge_pairs(tiny)) >= 1.5 * tiny.mu_s)
    want = X[hits]
    accepted, rate = rejection_conditional(tiny, 1.5 * tiny.mu_s, budget, seed)
    assert hits[0] < 1000 and hits[-1] >= 65536 and len(want) < budget
    assert np.array_equal(np.array([c.counts for c in accepted]), want)
    assert rate == len(want) / budget
    assert rejection_estimate_tail(tiny, t=0.5, replicas=budget, seed=seed).n_hits == len(want)


def test_rejection_above_512_cells_draws_replica_k_from_stream_k():
    # the per-replica loop the chunked one replaced, kept here as the
    # reference; accepted configs must outlive the loop's reused buffer
    readme = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    assert readme.num_cells == 5000
    t, budget, seed = 0.02, 300, 5
    threshold = (1.0 + t) * readme.mu_s
    draws = [sample_cell_config(readme, seed, k) for k in range(budget)]
    want = [c.counts for c in draws if sgraded_edge_count(c) >= threshold]
    accepted, rate = rejection_conditional(readme, threshold, budget, seed)
    assert 0 < len(want) < budget
    assert np.array_equal(np.array([c.counts for c in accepted]), np.array(want))
    assert rate == len(want) / budget
    p = len(want) / budget
    se = math.sqrt(p * (1.0 - p) / budget)
    assert rejection_estimate_tail(readme, t=t, replicas=budget, seed=seed) == TailEstimate(
        t=t, log_prob=math.log(p), std_err=se, rel_std_err=se / p,
        n_replicas=budget, method="rejection", threshold=threshold,
        unreliable=budget * p < 10, ess=float(len(want)), n_hits=len(want),
    )


def test_rejection_needs_a_replica(tiny):
    with pytest.raises(ValueError):
        rejection_conditional(tiny, tiny.mu_s, budget=0, seed=1)
    with pytest.raises(ValueError):
        rejection_estimate_tail(tiny, t=1.0, replicas=0, seed=1)


def test_replica_chunks_are_redrawn_into_one_buffer():
    # above 512 cells a chunk is floor(2^19 / m^d) rows, the last one partial;
    # every chunk is a view of the same work buffer, and its row j is the
    # fresh draw of stream (seed, lo + j) alone, with its weight and edge count
    readme = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    big = build_grid(params_for_p_hat(1e4, 1.0, Norm("linf", 1)), 5)
    for grid, replicas, Dp, sizes in (
        (readme, 250, _planted_mean(readme, 1.0), [104, 104, 42]),
        (big, 25, None, [10, 10, 5]),
    ):
        seed, lo, first, got = 17, 0, None, []
        for X, lw, edges in _replicas(grid, seed, replicas, Dp):
            first = X if first is None else first
            assert X.shape == (len(X), grid.num_cells) and np.shares_memory(X, first)
            assert edges.dtype == np.int64 and len(lw) == len(edges) == len(X)
            for j in range(len(X)):
                out = np.empty((1, grid.num_cells))
                _, clique, total = _draw_cells(rng.generator(seed, lo + j), grid, out, Dp)
                assert np.array_equal(X[j], out[0]) and total.tolist() == [out.sum()]
                weight = 0.0 if Dp is None else _mixture_log_weight(out[0, clique[0]].sum(), grid.D, Dp, grid.tau_s)
                assert lw[j] == weight
                assert edges[j] == sgraded_edge_count(CellConfig(out[0], grid))
            lo += len(X)
            got.append(len(X))
        assert got == sizes


def test_replica_chunks_are_float32_and_exact(l2_grid):
    # the work buffer is float32; on the README grids and an L2 d=2 grid
    # every row's sum X^2 stays below 2^24, so no chunk is redrawn in float64
    readme = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    big = build_grid(params_for_p_hat(1e4, 1.0, Norm("linf", 1)), 5)
    for grid, replicas in ((readme, 250), (big, 25), (l2_grid, 300)):
        for Dp in (None, _planted_mean(grid, 1.0)):
            for X, _, edges in _replicas(grid, 19, replicas, Dp):
                assert X.dtype == np.float32
                counts = X.astype(np.int64)
                assert np.array_equal(counts, X)
                assert np.array_equal(edges, _sgraded_edge_counts(counts.reshape(len(X), *grid.shape), grid))


def test_dense_replicas_are_redrawn_in_float64():
    # every row's sum X^2 is at least 2^24, so every float32 chunk fails its
    # certificate and is drawn again from the same streams into float64; the
    # estimates still equal the references, batched and per replica
    tiny = tiny_grid(Norm("linf", 1), m=4, s=3, n=4e4)
    per_row = build_grid(ModelParams(1.2e5, 5 / 600, Norm("linf", 1)), 5)
    assert per_row.num_cells == 600 and per_row.num_cells * per_row.D**2 >= 2**24
    for grid, reference in ((tiny, _batched_reference), (per_row, _per_replica_reference)):
        Dp = _planted_mean(grid, 1.0)
        chunks = list(_replicas(grid, 23, 100, Dp))
        assert [X.dtype for X, _, _ in chunks] == [np.float64]
        X, _, edges = chunks[0]
        assert (np.einsum("ij,ij->i", X, X) >= 2**24).all()
        assert np.array_equal(edges, _sgraded_edge_counts(X.astype(np.int64).reshape(len(X), *grid.shape), grid))
        est = importance_estimate_tail(grid, t=1.0, replicas=100, seed=23)
        assert est.log_prob > -math.inf
        assert est == reference(grid, 1.0, 100, 23)


def test_unreliable_flag_on_hopeless_tail(tiny):
    # plain Monte Carlo at a deep tail finds nothing and must say so
    est = rejection_estimate_tail(tiny, t=30.0, replicas=500, seed=48)
    assert est.unreliable
    assert est.n_hits == 0 and est.ess == 0.0
    # unit weights: the ESS of plain Monte Carlo is its hit count
    est = rejection_estimate_tail(tiny, t=1.0, replicas=500, seed=48)
    assert est.ess == est.n_hits == round(500 * math.exp(est.log_prob))


def test_planted_continuum_sampler_mass():
    params = params_for_p_hat(2000.0, 1.0, Norm("l2", 2))
    ps = planted_continuum_sampler(params, delta=1.0, seed=49)
    target = math.sqrt(2.0 * params.mu)
    # superposition: nominal Poisson(n) plus ceil(target + n^z) planted points
    assert len(ps) > params.n + target - 4.0 * math.sqrt(params.n)
    from rggloc.geometry import Ball, probe_contains

    ball = Ball((0.5, 0.5), params.r / 2.0, params.norm)
    inside = int(probe_contains(ball, ps.points).sum())
    assert inside >= target  # the planted points all landed in the ball
