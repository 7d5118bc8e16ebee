"""Torus geometry: norms, wrapped distances, ball volumes, and convex probes.

Everything lives on the unit torus [0,1)^d with per-coordinate wraparound.
Probes are the parametric convex family {ball, box, ball-box intersection};
all probe extents are required to stay below 1/2 so the wraparound never
makes containment ambiguous.  Containment is closed (boundary points count
as inside); the convention is observationally irrelevant under a Poisson
process but must be fixed for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_KINDS = ("l1", "l2", "linf")
MAX_DIM = 4
# most grid centres one ball-box quadrature round may build: 2048^2 at d = 2
_MESH_CAP = 1 << 22
# dyadic step the ball-box corner offset is snapped to: far above the
# rounding left in it, far below the quadrature's finest mesh step
_REL_SNAP = 2.0**-40


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


def _ball_box_measure(S: BallBoxIntersection, rel_tol: float = 1e-4) -> float:
    """Deterministic bracket quadrature for measure(ball ∩ box).

    The measure depends only on the norm, the radius, the box's sides and
    the wrapped offset (corner - center + 1/2) mod 1 - 1/2 of its corner
    from the ball's center, so the quadrature runs in center-relative
    coordinates and is cached on those.  A probe built as center - h mod 1
    gets that offset back only to within a few ulps, which vary with the
    center, so the offset is snapped to multiples of _REL_SNAP: probes of
    one shape placed at different centers then share one quadrature.
    """
    ball, box = S.ball, S.box
    rel = (np.asarray(box.corner) - np.asarray(ball.center) + 0.5) % 1.0 - 0.5
    rel = np.round(rel / _REL_SNAP) * _REL_SNAP
    return _ball_box_bracket(ball.norm, ball.radius, tuple(rel.tolist()), tuple(box.sides), rel_tol)


@lru_cache(maxsize=64)
def _ball_box_bracket(norm: Norm, radius: float, rel: tuple, sides: tuple, rel_tol: float) -> float:
    """Measure of the ball of `radius` at the origin ∩ the box with corner
    `rel` and `sides`.  Dyadically refines a grid over the box; cells
    entirely inside the intersection give a lower bound, cells merely
    touching give an upper bound.  Refinement stops once the bracket width
    is <= rel_tol * tau where tau is the ball volume, or before a mesh of
    more than _MESH_CAP centres would be built; the last bracket's midpoint
    is returned.
    """
    d = norm.dim
    tau = norm.nu * radius**d
    sides = np.asarray(sides)
    # grid resolution doubles each round; start coarse
    for k in range(3, 12):
        npc = 1 << k  # cells per axis
        if npc**d > _MESH_CAP:
            break
        step = sides / npc
        axes = [rel[i] + (np.arange(npc) + 0.5) * step[i] for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=-1)
        dist = norm.length(wrapped_delta(centers, 0.0))
        half = norm.length(step / 2.0)  # farthest corner offset of a grid cell
        cell_vol = float(np.prod(step))
        lower = float((dist <= radius - half).sum()) * cell_vol
        upper = float((dist <= radius + half).sum()) * cell_vol
        if upper - lower <= rel_tol * tau:
            break
    return 0.5 * (lower + upper)


def probe_measure(S: Probe) -> float:
    """Lebesgue measure: closed form for balls and boxes, quadrature otherwise."""
    if isinstance(S, Ball):
        return S.norm.nu * S.radius**S.norm.dim
    if isinstance(S, Box):
        return float(np.prod(S.sides))
    # containment fast paths are exact; otherwise bracket quadrature
    ball, box = S.ball, S.box
    corners = _box_corner_array(box)
    if bool(probe_contains(ball, corners).all()):
        return probe_measure(box)
    if _box_contains_ball(box, ball):
        return probe_measure(ball)
    return _ball_box_measure(S)


def _box_corner_array(box: Box) -> np.ndarray:
    d = len(box.corner)
    corners = []
    for mask in range(1 << d):
        corners.append(
            [(box.corner[i] + (box.sides[i] if (mask >> i) & 1 else 0.0)) % 1.0 for i in range(d)]
        )
    return np.asarray(corners)


def _box_contains_ball(box: Box, ball: Ball) -> bool:
    """True if the ball lies inside the box (per-axis wrapped interval check)."""
    c = np.asarray(ball.center)
    w = np.mod(c - np.asarray(box.corner), 1.0)
    s = np.asarray(box.sides)
    return bool(((w >= ball.radius) & (w <= s - ball.radius)).all())
