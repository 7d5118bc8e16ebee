"""Torus geometry: norms, wrapped distances, ball volumes, and convex probes.

Everything lives on the unit torus [0,1)^d with per-coordinate wraparound.
Probes are the parametric convex family {ball, box, ball-box intersection};
all probe extents are required to stay below 1/2 so the wraparound never
makes containment ambiguous.  Containment is closed (boundary points count
as inside); the convention is observationally irrelevant under a Poisson
process but must be fixed for determinism.  Probe measures are exact: a
ball-box intersection's is a signed sum of ball-corner volumes, which takes
Gauss-Legendre quadrature only at L2 with d >= 3.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

_KINDS = ("l1", "l2", "linf")
MAX_DIM = 4
_GAUSS_NODES = 32  # Gauss-Legendre nodes per integrated axis of an L2 ball-box corner


@dataclass(frozen=True)
class Norm:
    """A norm choice (L1/L2/Linf) together with the ambient dimension."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {_KINDS}")
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")

    @property
    def nu(self) -> float:
        """Volume of the unit ball of this norm."""
        d = self.dim
        if self.kind == "linf":
            return 2.0**d
        if self.kind == "l1":
            return 2.0**d / math.factorial(d)
        # L2: pi^{d/2} / Gamma(d/2 + 1)
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1)

    def length(self, v: np.ndarray) -> np.ndarray:
        """Norm of vector(s) v; the last axis is the coordinate axis."""
        v = np.abs(np.asarray(v, dtype=float))
        if self.kind == "l1":
            return v.sum(axis=-1)
        if self.kind == "linf":
            return v.max(axis=-1)
        return np.sqrt((v * v).sum(axis=-1))


def wrapped_delta(x, y) -> np.ndarray:
    """Per-coordinate wrapped offset min(|dx|, 1-|dx|); broadcasts."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.minimum(d, 1.0 - d)


def torus_distance(x, y, norm: Norm):
    """Translation-invariant distance on T^d under the given norm."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != norm.dim or y.shape[-1] != norm.dim:
        raise ValueError("point dimension does not match norm.dim")
    return norm.length(wrapped_delta(x, y))


def ball_volume_tau(r: float, norm: Norm) -> float:
    """Volume of a ball of *diameter* r: nu * (r/2)^d."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must be in (0,1), got {r}")
    return norm.nu * (r / 2.0) ** norm.dim


@dataclass(frozen=True)
class Ball:
    """Closed ball given by center and radius (diameter = 2*radius < 1/2)."""

    center: tuple
    radius: float
    norm: Norm

    def __post_init__(self):
        if not (0.0 < self.radius < 0.25):
            raise ValueError("ball radius must be in (0, 1/4) to avoid wraparound ambiguity")
        if len(self.center) != self.norm.dim:
            raise ValueError("center dimension mismatch")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box anchored at `corner` extending by `sides` (wrapping allowed)."""

    corner: tuple
    sides: tuple

    def __post_init__(self):
        if len(self.corner) != len(self.sides):
            raise ValueError("corner/sides dimension mismatch")
        if any(not (0.0 < s < 0.5) for s in self.sides):
            raise ValueError("box sides must be in (0, 1/2)")


@dataclass(frozen=True)
class BallBoxIntersection:
    ball: Ball
    box: Box

    def __post_init__(self):
        if len(self.box.corner) != self.ball.norm.dim:
            raise ValueError("ball/box dimension mismatch")


Probe = Ball | Box | BallBoxIntersection


def _box_contains(box: Box, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    c = np.asarray(box.corner)
    s = np.asarray(box.sides)
    w = np.mod(x - c, 1.0)
    return (w <= s).all(axis=-1)


def probe_contains(S: Probe, x):
    """Closed-set membership test; x may be one point or an (N, d) array."""
    if isinstance(S, Ball):
        return torus_distance(x, np.asarray(S.center), S.norm) <= S.radius
    if isinstance(S, Box):
        return _box_contains(S, x)
    return probe_contains(S.ball, x) & _box_contains(S.box, x)


def _ball_box_measure(S: BallBoxIntersection) -> float:
    """Measure of ball ∩ box, exact to rounding but at L2 with d >= 3.  Per axis
    the box meets [-R, R] about the centre in at most one arc (2R + side < 1),
    which split at the centre and reflected is a signed sum of cuts 1[|y| >= c];
    over the axes, a signed sum of F(c) = vol{y >= c, ||y|| <= R}, corners merged."""
    ball, box, R = S.ball, S.box, S.ball.radius
    axes = []
    for c, x, s in zip(ball.center, box.corner, box.sides):
        lo = (x - c + 0.5) % 1.0 - 0.5
        if lo > R:  # the box can reach the ball only past the antipode
            lo -= 1.0
        a, b = max(lo, -R), min(lo + s, R)
        if a >= b:
            return 0.0
        cuts = Counter()
        for p, q in ((a, b), (-b, -a)):  # the arc's parts on either side of the centre
            if q > 0.0:
                cuts[max(p, 0.0)] += 1
                cuts[q] -= 1
        axes.append({cut: w for cut, w in cuts.items() if w and cut < R})
    corners = np.array(list(itertools.product(*axes)))
    signs = np.prod(list(itertools.product(*(axis.values() for axis in axes))), axis=-1)
    inside = ball.norm.length(corners) < R  # a corner outside the ball adds 0
    a, d = corners[inside], ball.norm.dim
    if ball.norm.kind == "linf" or d == 1:  # at d = 1 every norm is |y|
        F = np.prod(R - a, axis=-1)
    elif ball.norm.kind == "l1":
        F = (R - a.sum(axis=-1)) ** d / math.factorial(d)
    else:
        F = _l2_corner(a, R)
    return float(signs[inside] @ F)


def _l2_corner(a: np.ndarray, R) -> np.ndarray:
    """F(a) at L2, d >= 2, for rows a >= 0 and R broadcasting against them: y_1
    runs from a_1 to t = sqrt(R^2 - ||a_2..||^2).  At d = 2 its slices have a
    closed antiderivative; above, each is F_{d-1} at radius sqrt(R^2 - y_1^2),
    summed by Gauss-Legendre in u, y_1 = t - (t - a_1) u^2, smooth at y_1 = t."""
    R2 = np.asarray(R, dtype=float) ** 2
    head, rest = a[..., 0], a[..., 1:]
    t = np.sqrt(np.maximum(R2 - (rest * rest).sum(axis=-1), 0.0))
    h = np.maximum(t - head, 0.0)
    if a.shape[-1] == 2:
        def antiderivative(y):
            root = np.sqrt(np.maximum(R2 - y * y, 0.0))
            return 0.5 * (y * root + R2 * np.arctan2(y, root)) - rest[..., 0] * y
        return antiderivative(t) - antiderivative(t - h)
    # Golub-Welsch: the nodes are the eigenvalues of Legendre's Jacobi matrix
    k = np.arange(1.0, _GAUSS_NODES)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    u, w = (x + 1.0) / 2.0, v[0] ** 2  # nodes and weights on [0, 1]
    y = t[..., None] - h[..., None] * u * u
    rho = np.sqrt(np.maximum(R2[..., None] - y * y, 0.0))
    slices = _l2_corner(np.broadcast_to(rest[..., None, :], y.shape + rest.shape[-1:]), rho)
    return (slices * (2.0 * u * w)).sum(axis=-1) * h  # dy = 2 (t - a_1) u du


def probe_measure(S: Probe) -> float:
    """Lebesgue measure: closed form for balls, boxes and ball-box
    intersections (Gauss-Legendre on the outer axes at L2 with d >= 3)."""
    if isinstance(S, Ball):
        return S.norm.nu * S.radius**S.norm.dim
    if isinstance(S, Box):
        return float(np.prod(S.sides))
    # containment answers first: the corner sum agrees with it only to a few
    # ulps, and a box inside the ball or around it keeps its exact volume
    ball, box = S.ball, S.box
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=len(box.sides))))
    if bool(probe_contains(ball, (np.asarray(box.corner) + bits * np.asarray(box.sides)) % 1.0).all()):
        return probe_measure(box)
    if _box_contains_ball(box, ball):
        return probe_measure(ball)
    return _ball_box_measure(S)


def _box_contains_ball(box: Box, ball: Ball) -> bool:
    """True if the ball lies inside the box (per-axis wrapped interval check)."""
    c = np.asarray(ball.center)
    w = np.mod(c - np.asarray(box.corner), 1.0)
    s = np.asarray(box.sides)
    return bool(((w >= ball.radius) & (w <= s - ball.radius)).all())
