import math
import tracemalloc

import numpy as np
import pytest

from rggloc import (
    Ball,
    ModelParams,
    Norm,
    count_in_probe,
    edge_count,
    edge_count_bruteforce,
    expected_edges,
    params_for_p_hat,
    sample_ppp,
)
from rggloc.geometry import torus_distance
from rggloc.points import PointSet


def test_mu_formula(l2_params):
    # mu = n^2 nu (r/2)^d / 2 at the headline parameter point
    assert l2_params.mu == pytest.approx(353.429, abs=5e-4)
    assert expected_edges(l2_params) == l2_params.mu
    assert l2_params.tau == pytest.approx(math.pi * 0.0025)


def test_p_hat_solves_inverse():
    for p in (0.5, 1.0, 1.35):
        params = params_for_p_hat(1e5, p, Norm("linf", 1))
        assert params.p_hat == pytest.approx(p, abs=1e-12)


def test_rcond_window_warns_not_raises():
    with pytest.warns(UserWarning):
        ModelParams(1e6, 1e-7, Norm("l2", 2))  # r below n^{(delta*-2)/d}
    with pytest.raises(ValueError):
        ModelParams(100.0, 0.6, Norm("l2", 2))


def test_ppp_count_distribution():
    sizes = [len(sample_ppp(200.0, Norm("l2", 2), seed=1, replica=k)) for k in range(300)]
    mean = np.mean(sizes)
    assert abs(mean - 200.0) < 4 * math.sqrt(200.0 / 300)
    assert np.var(sizes) == pytest.approx(200.0, rel=0.25)


def test_ppp_determinism_and_stream_independence():
    a = sample_ppp(100.0, Norm("l2", 2), seed=5, replica=3)
    b = sample_ppp(100.0, Norm("l2", 2), seed=5, replica=3)
    c = sample_ppp(100.0, Norm("l2", 2), seed=5, replica=4)
    assert np.array_equal(a.points, b.points)
    assert len(a) != len(c) or not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_edge_count_matches_bruteforce(kind, dim):
    norm = Norm(kind, dim)
    for k in range(12):
        ps = sample_ppp(300.0, norm, seed=11, replica=k)
        r = [0.05, 0.11, 0.2, 0.45][k % 4]
        assert edge_count(ps, r, norm) == edge_count_bruteforce(ps, r, norm)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_edge_count_ties_at_radius(kind):
    # every lattice point k/q: many pairs sit at distance r or within rounding
    # of it.  Without the kd-tree's inflated candidate radius the L2 d=3 count
    # on the 1/12 lattice comes out short; just below r the inflated radius
    # still reaches the ties, so only the exact re-check keeps them out
    for q, r in ((16, 1 / 8), (12, 1 / 4)):
        below = r * (1.0 - 5e-13)
        for dim in (1, 2, 3):
            norm = Norm(kind, dim)
            axes = np.meshgrid(*[np.arange(q) / q] * dim, indexing="ij")
            ps = PointSet(np.stack(axes, axis=-1).reshape(-1, dim), intensity=q**dim, seed=0)
            for radius in (r, below):
                assert edge_count(ps, radius, norm) == edge_count_bruteforce(ps, radius, norm)
            assert edge_count(ps, r, norm) > edge_count(ps, below, norm)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_edge_count_coordinates_on_the_seam(kind):
    # x % 1.0 is 1.0 for x = -1e-17, a coordinate the periodic tree rejects
    pts = np.array(
        [[1.0, 0.5], [-1e-17, 0.5], [0.999999999999, 0.5], [0.5, 1.0], [0.5, 0.02], [0.3, -1e-17]]
    )
    ps = PointSet(pts, intensity=6.0, seed=0)
    norm = Norm(kind, 2)
    assert edge_count(ps, 0.05, norm) == edge_count_bruteforce(ps, 0.05, norm) == 4


def test_edge_count_memory_does_not_scale_with_radius():
    # a dense grid of side 1/r would hold 500^4 buckets here
    pts = np.array([[0.1] * 4, [0.1005] * 4, [0.5] * 4, [0.9] * 4, [0.3, 0.6, 0.2, 0.8]])
    ps = PointSet(pts, intensity=5.0, seed=0)
    norm = Norm("l2", 4)
    assert edge_count(ps, 0.002, norm) == edge_count_bruteforce(ps, 0.002, norm) == 1


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_close_pairs_matches_double_loop(kind):
    for dim in (1, 2, 3, 4):
        norm = Norm(kind, dim)
        ps = sample_ppp(40.0, norm, seed=3, replica=dim)
        a = ps.points
        radius = 0.3
        within = {
            (i, j)
            for i in range(len(a))
            for j in range(i + 1, len(a))
            if torus_distance(a[i], a[j], norm) <= radius
        }
        assert within
        assert edge_count(ps, radius, norm) == len(within)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_edge_count_matches_bruteforce_at_every_size_and_radius(kind, dim):
    # r = 0.3 gives 3 cells per axis and r >= 0.45 gives 2, where an offset
    # and its negative reach the same cell; the 4N cell cap binds at N = 40
    # in d >= 2 and leaves one cell at N <= 2 in d = 4
    norm = Norm(kind, dim)
    for size in (0, 1, 2, 40, 300):
        ps = PointSet(np.random.default_rng([size, dim]).random((size, dim)), intensity=size, seed=0)
        for r in (0.05, 0.11, 0.2, 0.3, 0.45, 0.49):
            assert edge_count(ps, r, norm) == edge_count_bruteforce(ps, r, norm), (size, r)


def test_edge_count_memory_is_blocked_on_dense_cells():
    # at r = 0.49 every pair of 2000 points in d = 4 is a candidate (2 cells
    # per axis); p_hat = 1.5 would need r = 0.509, past the r < 1/2 limit
    norm = Norm("l1", 4)
    ps = PointSet(np.random.default_rng(4).random((2000, 4)), intensity=2000.0, seed=0)
    tracemalloc.start()
    try:
        edges = edge_count(ps, 0.49, norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert edges == edge_count_bruteforce(ps, 0.49, norm)


def test_edge_count_boundary_pair_is_closed():
    ps = PointSet(np.array([[0.1, 0.5], [0.2, 0.5]]), intensity=2.0, seed=0)
    assert edge_count(ps, 0.1, Norm("l2", 2)) == 1  # distance exactly r counts
    assert edge_count(ps, 0.0999, Norm("l2", 2)) == 0


def test_edge_count_wraparound_pair():
    ps = PointSet(np.array([[0.01, 0.5], [0.99, 0.5]]), intensity=2.0, seed=0)
    assert edge_count(ps, 0.05, Norm("l2", 2)) == 1


def test_count_in_probe():
    ps = sample_ppp(500.0, Norm("l2", 2), seed=2)
    ball = Ball((0.5, 0.5), 0.2, Norm("l2", 2))
    from rggloc import probe_contains

    assert count_in_probe(ps, ball) == int(probe_contains(ball, ps.points).sum())
