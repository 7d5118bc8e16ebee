import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rggloc import geometry
from rggloc import (
    Ball,
    BallBoxIntersection,
    Box,
    Norm,
    ball_volume_tau,
    probe_contains,
    probe_measure,
    torus_distance,
)


def test_unit_ball_volumes():
    assert Norm("linf", 3).nu == 8.0
    assert Norm("l1", 2).nu == 2.0
    assert Norm("l1", 3).nu == pytest.approx(4.0 / 3.0)
    assert Norm("l2", 2).nu == pytest.approx(math.pi)
    assert Norm("l2", 3).nu == pytest.approx(4.0 * math.pi / 3.0)
    assert Norm("l2", 1).nu == pytest.approx(2.0)


def test_norm_validation():
    with pytest.raises(ValueError):
        Norm("l3", 2)
    with pytest.raises(ValueError):
        Norm("l2", 0)
    with pytest.raises(ValueError):
        Norm("l2", 5)


def test_tau_example():
    # nu (r/2)^d for a diameter-r ball
    assert ball_volume_tau(0.1, Norm("l2", 2)) == pytest.approx(math.pi * 0.0025)
    with pytest.raises(ValueError):
        ball_volume_tau(1.0, Norm("l2", 2))


def test_wraparound_distance():
    n2 = Norm("l2", 2)
    assert torus_distance([0.05, 0.5], [0.95, 0.5], n2) == pytest.approx(0.1)
    assert torus_distance([0.0, 0.0], [0.5, 0.5], n2) == pytest.approx(math.sqrt(0.5))
    # vectorized form agrees with scalar form
    pts = np.array([[0.05, 0.5], [0.0, 0.0]])
    d = torus_distance(pts, np.array([0.95, 0.5]), n2)
    assert d.shape == (2,)
    assert d[0] == pytest.approx(0.1)


@given(
    x=st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
    y=st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
    z=st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_torus_distance_is_a_metric(x, y, z):
    norm = Norm("l2", 2)
    dxy = torus_distance(x, y, norm)
    assert dxy == torus_distance(y, x, norm)
    assert dxy <= torus_distance(x, z, norm) + torus_distance(z, y, norm) + 1e-12
    assert torus_distance(x, x, norm) == 0.0


@given(
    kind=st.sampled_from(["l1", "l2", "linf"]),
    shift=st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
    x=st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
    y=st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_translation_invariance(kind, shift, x, y):
    norm = Norm(kind, 2)
    xs = (np.array(x) + shift) % 1.0
    ys = (np.array(y) + shift) % 1.0
    assert torus_distance(xs, ys, norm) == pytest.approx(
        torus_distance(x, y, norm), abs=1e-9
    )


def test_probe_validation():
    with pytest.raises(ValueError):
        Ball((0.5, 0.5), 0.3, Norm("l2", 2))  # radius too large for the torus
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (0.6, 0.1))
    with pytest.raises(ValueError):
        Ball((0.5,), 0.1, Norm("l2", 2))


def test_ball_membership_closed():
    b = Ball((0.5, 0.5), 0.1, Norm("linf", 2))
    assert probe_contains(b, [0.6, 0.5])  # boundary point counts
    assert probe_contains(b, [0.5, 0.5])
    assert not probe_contains(b, [0.601, 0.5])


def test_box_wraps_across_origin():
    box = Box((0.9, 0.9), (0.2, 0.2))
    assert probe_contains(box, [0.05, 0.05])
    assert probe_contains(box, [0.95, 0.02])
    assert not probe_contains(box, [0.5, 0.5])
    assert probe_measure(box) == pytest.approx(0.04)


def test_ball_measures_closed_form():
    assert probe_measure(Ball((0.5, 0.5), 0.1, Norm("l2", 2))) == pytest.approx(
        math.pi * 0.01
    )
    assert probe_measure(Ball((0.5, 0.5), 0.1, Norm("linf", 2))) == pytest.approx(0.04)
    assert probe_measure(Ball((0.5, 0.5, 0.5), 0.1, Norm("l1", 3))) == pytest.approx(
        (4.0 / 3.0) * 1e-3
    )


def test_intersection_containment_fast_paths():
    norm = Norm("l2", 2)
    ball = Ball((0.5, 0.5), 0.2, norm)
    small_box = Box((0.45, 0.45), (0.1, 0.1))
    s = BallBoxIntersection(ball, small_box)
    assert probe_measure(s) == pytest.approx(0.01)  # box inside ball
    big_box = Box((0.25, 0.25), (0.49, 0.49))
    s = BallBoxIntersection(ball, big_box)
    assert probe_measure(s) == pytest.approx(math.pi * 0.04)  # ball inside box


def test_intersection_quadrature_half_ball():
    # box covering exactly the right half of the ball
    norm = Norm("l2", 2)
    ball = Ball((0.5, 0.5), 0.2, norm)
    box = Box((0.5, 0.3), (0.25, 0.4))
    got = probe_measure(BallBoxIntersection(ball, box))
    assert got == pytest.approx(0.5 * math.pi * 0.04, rel=1e-12)


def test_intersection_measure_monte_carlo_oracle():
    rng = np.random.default_rng(0)
    ball = Ball((0.3, 0.7), 0.15, Norm("l1", 2))
    box = Box((0.25, 0.6), (0.12, 0.18))
    s = BallBoxIntersection(ball, box)
    pts = rng.random((400_000, 2))
    mc = probe_contains(s, pts).mean()
    se = math.sqrt(mc * (1 - mc) / 400_000)
    assert abs(probe_measure(s) - mc) < 4 * se + 1e-4


KINDS = ("l1", "l2", "linf")


def _relative_probe(center, radius, norm, rel, sides):
    """The ball at `center` ∩ the box whose corner sits at offset `rel` from it."""
    corner = tuple((np.asarray(center) + rel) % 1.0)
    return BallBoxIntersection(Ball(tuple(center), radius, norm), Box(corner, tuple(sides)))


def _tau(S):
    return probe_measure(S.ball)


def _assert_matches_monte_carlo(S, rng, count=10**6):
    """Within 4 standard errors of the hit rate of points uniform in the box."""
    d = len(S.box.sides)
    pts = (np.asarray(S.box.corner) + rng.random((count, d)) * S.box.sides) % 1.0
    hit = probe_contains(S.ball, pts).mean()
    box = math.prod(S.box.sides)
    assert 0.0 < hit < 1.0
    assert abs(probe_measure(S) - box * hit) < 4.0 * box * math.sqrt(hit * (1.0 - hit) / count)


def _cutting_box(rng, dim, radius):
    """Offset and sides of a box that crosses the ball's boundary on the first
    axis, between -1.25 R and at most -R/4, and spans the centre on the rest."""
    rel = np.concatenate([[-1.25], rng.uniform(-0.9, -0.3, dim - 1)]) * radius
    sides = np.concatenate([rng.uniform(0.5, 1.0, 1), rng.uniform(0.9, 1.4, dim - 1)]) * radius
    return rel, sides


@pytest.mark.parametrize(
    "kind, dim, want, tol",
    [
        # by hand: [-0.16, 0.64]^2 R loses the triangle beyond y1 + y2 = R, legs 0.28 R
        ("l1", 2, (0.8**2 - 0.28**2 / 2) / 2, 1e-14),
        ("l1", 3, 0.271184, 1e-14),
        ("l1", 4, 0.26067344, 1e-14),
        ("l2", 3, 0.1219418143, 1e-10),  # references to ten digits
        ("l2", 4, 0.0814500028, 1e-10),
    ],
)
def test_ball_box_measure_matches_the_clause_a_references(kind, dim, want, tol):
    # certify_thm1's clause-(a) probe: the box [c - 0.16R, c + 0.64R]^d
    R = 0.05
    S = _relative_probe(np.full(dim, 0.5), R, Norm(kind, dim), np.full(dim, -0.16 * R), np.full(dim, 0.8 * R))
    assert probe_measure(S) / _tau(S) == pytest.approx(want, abs=tol)


@pytest.mark.parametrize("kind", KINDS)
def test_ball_box_measure_matches_monte_carlo(kind):
    rng = np.random.default_rng({"l1": 1, "l2": 2, "linf": 3}[kind])
    radius = 0.1
    for dim in (1, 2, 3, 4):
        S = _relative_probe(rng.random(dim), radius, Norm(kind, dim), *_cutting_box(rng, dim, radius))
        assert probe_measure(S) < _tau(S)  # neither contains the other
        _assert_matches_monte_carlo(S, rng)


@pytest.mark.parametrize("kind", KINDS)
def test_ball_box_measure_is_invariant_under_reflections_permutations_and_the_seam(kind):
    rng = np.random.default_rng(7)
    radius = 0.1
    for dim in (2, 3, 4):
        norm = Norm(kind, dim)
        tau = norm.nu * radius**dim
        rel, sides = _cutting_box(rng, dim, radius)
        center = rng.random(dim)
        want = probe_measure(_relative_probe(center, radius, norm, rel, sides))
        assert 0.0 < want < min(tau, math.prod(sides))
        for perm in itertools.permutations(range(dim)):
            got = probe_measure(_relative_probe(center, radius, norm, rel[list(perm)], sides[list(perm)]))
            assert got == pytest.approx(want, abs=1e-12 * tau)
        for flip in itertools.product((False, True), repeat=dim):
            mirrored = np.where(flip, -rel - sides, rel)  # the box reflected about the centre
            got = probe_measure(_relative_probe(center, radius, norm, mirrored, sides))
            assert got == pytest.approx(want, abs=1e-12 * tau)
        for c in (0.999, 0.0, 1e-3):  # the probe straddles the seam
            got = probe_measure(_relative_probe(np.full(dim, c), radius, norm, rel, sides))
            assert got == pytest.approx(want, abs=1e-12 * tau)


def test_ball_box_measure_follows_a_box_past_the_antipode():
    # on the first axis the box runs from 0.4 past the antipode to 0.85 = -0.15
    # from the centre, so only its wrapped end [-0.2, -0.15] meets the ball
    box = Box((0.9, 0.35, 0.45), (0.45, 0.3, 0.1))
    center = (0.5, 0.5, 0.5)
    l1 = probe_measure(BallBoxIntersection(Ball(center, 0.2, Norm("l1", 3)), box))
    assert l1 == pytest.approx(2.0 * 0.05**3 / 3.0, rel=1e-12)
    linf = probe_measure(BallBoxIntersection(Ball(center, 0.2, Norm("linf", 3)), box))
    assert linf == pytest.approx(0.05 * 0.3 * 0.1, rel=1e-12)
    l2 = BallBoxIntersection(Ball(center, 0.2, Norm("l2", 3)), box)
    _assert_matches_monte_carlo(l2, np.random.default_rng(19))


@pytest.mark.parametrize("kind", KINDS)
def test_ball_box_formula_meets_the_containment_shortcuts_at_their_boundary(kind):
    radius = 0.1
    for dim in (1, 2, 3, 4):
        norm = Norm(kind, dim)
        tau = norm.nu * radius**dim
        center = np.full(dim, 0.3)
        inscribed = radius * {"linf": 1.0, "l2": 1.0 / math.sqrt(dim), "l1": 1.0 / dim}[kind]
        # a centred cube: inside the ball below the inscribed half-side, around
        # it above the radius
        for half, inside in ((inscribed, 1.0 - 1e-13), (radius, 1.0 + 1e-13)):
            probes = [
                _relative_probe(center, radius, norm, np.full(dim, -half * k), np.full(dim, 2.0 * half * k))
                for k in (inside, 2.0 - inside)
            ]
            shortcut = probe_measure(probes[0])
            assert shortcut == min(probe_measure(probes[0].box), tau)
            for S in probes:
                assert geometry._ball_box_measure(S) == pytest.approx(shortcut, abs=1e-12 * tau)
