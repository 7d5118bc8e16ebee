import math

import numpy as np
import pytest
from scipy import stats as sps

from rggloc import (
    CellConfig,
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
    sgraded_edge_count,
)
from rggloc import rng
from rggloc.grid import (
    _sgraded_edge_counts,
    clique_translate,
    flat_index,
    neighbor_offsets,
    tiny_grid,
    unflat_index,
)
from rggloc.sampling import _estimate_from_log_u, _mixture_log_weight, _planted_mean


def _edge_pairs(grid):
    """Unordered pairs of distinct adjacent flat cells, from a set of (I, I+o)."""
    m, d = grid.m, grid.norm.dim
    pairs = set()
    for f in range(grid.num_cells):
        I = unflat_index(f, m, d)
        for o in neighbor_offsets(grid):
            fj = flat_index(tuple((c + oc) % m for c, oc in zip(I, o)), m)
            if fj != f:
                pairs.add((min(f, fj), max(f, fj)))
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def _pair_edge_counts(X, pairs):
    """|E_s| of each row of X (flat counts) from the pair list."""
    i1, i2 = pairs
    return (X * (X - 1)).sum(axis=1) // 2 + (X[:, i1] * X[:, i2]).sum(axis=1)


def _clique_flat(grid, anchor):
    m = grid.m
    cells = [tuple((a + o) % m for a, o in zip(anchor, off)) for off in grid.clique_offsets]
    return np.array([flat_index(J, m) for J in cells])


def _per_replica_reference(grid, t, replicas, seed):
    """One derived stream per replica, scalar draws, tilted counts only when planted."""
    D, Dp, tau = grid.D, _planted_mean(grid, t), grid.tau_s
    threshold = (1.0 + t) * grid.mu_s
    pairs = _edge_pairs(grid)
    logu = np.full(replicas, -np.inf)
    for k in range(replicas):
        g = rng.generator(seed, k)
        counts = g.poisson(D, size=grid.num_cells).astype(np.int64)
        planted = bool(g.random() < 0.5)
        anchor = unflat_index(int(g.integers(grid.num_cells)), grid.m, grid.norm.dim)
        clf = _clique_flat(grid, anchor)
        if planted:
            counts[clf] = g.poisson(Dp, size=len(clf))
        lw = float(_mixture_log_weight(int(counts[clf].sum()), D, Dp, tau))
        if _pair_edge_counts(counts[None, :], pairs)[0] >= threshold:
            logu[k] = lw
    return _estimate_from_log_u(logu, replicas, t, threshold, "importance")


def _batched_reference(grid, t, replicas, seed):
    """One stream for all replicas, drawn in blocks of 65536."""
    D, Dp, tau = grid.D, _planted_mean(grid, t), grid.tau_s
    threshold = (1.0 + t) * grid.mu_s
    pairs = _edge_pairs(grid)
    g = rng.generator(seed)
    logu = np.full(replicas, -np.inf)
    for lo in range(0, replicas, 65536):
        R = min(65536, replicas - lo)
        X = g.poisson(D, size=(R, grid.num_cells)).astype(np.int64)
        planted = g.random(R) < 0.5
        anchors = g.integers(grid.num_cells, size=R)
        clf = np.array(
            [_clique_flat(grid, unflat_index(int(a), grid.m, grid.norm.dim)) for a in anchors]
        )
        tilted = g.poisson(Dp, size=(R, tau)).astype(np.int64)
        rows = np.arange(R)[:, None]
        X[rows, clf] = np.where(planted[:, None], tilted, X[rows, clf])
        lw = _mixture_log_weight(X[rows, clf].sum(axis=1), D, Dp, tau)
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


def test_planted_sampler_draws_tilted_counts_in_sorted_cell_order(tiny, l2_grid):
    # reference: the anchor, the nominal counts, then Poisson(D') over the
    # translated clique set in sorted index order, all from one replica stream
    for grid in (tiny, l2_grid):
        Dp = _planted_mean(grid, 1.0)
        for k in range(5):
            g = rng.generator(42, k)
            anchor = unflat_index(int(g.integers(grid.num_cells)), grid.m, grid.norm.dim)
            counts = g.poisson(grid.D, size=grid.num_cells).astype(np.int64)
            idx = [flat_index(I, grid.m) for I in sorted(clique_translate(grid, anchor))]
            counts[idx] = g.poisson(Dp, size=len(idx))
            ws = planted_cell_sampler(grid, t=1.0, seed=42, replica=k)
            assert ws.anchor == anchor
            assert np.array_equal(ws.config.counts, counts)
            lw = _mixture_log_weight(int(counts[idx].sum()), grid.D, Dp, grid.tau_s)
            assert ws.log_weight == float(lw)


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
    # above 512 cells each replica is a chunk of one with its own stream, as the
    # per-replica path drew it; on the tiny grid chunk 0 is the single batched
    # stream, so both estimates are equal, not only statistically close
    readme = build_grid(params_for_p_hat(1e3, 1.0, Norm("linf", 1)), 5)
    assert readme.num_cells == 5000
    est = importance_estimate_tail(readme, t=1.0, replicas=100, seed=11)
    assert est.log_prob > -math.inf
    assert est == _per_replica_reference(readme, 1.0, 100, 11)
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
