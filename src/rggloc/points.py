"""Poisson point process sampling and continuum edge counting.

The random geometric graph puts an edge between every unordered pair of
points at torus distance <= r.  `edge_count` finds them with a fixed-radius
near-neighbor search on a periodic kd-tree and re-checks every candidate pair
with `torus_distance`; `edge_count_bruteforce` is the definitional O(N^2)
oracle and the two must agree exactly.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .geometry import Norm, Probe, ball_volume_tau, probe_contains, torus_distance


@dataclass(frozen=True)
class PointSet:
    """One PPP realization; immutable, reproducible from (intensity, seed)."""

    points: np.ndarray  # (N, d) float64 in [0,1)
    intensity: float
    seed: int

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ModelParams:
    """Continuum model parameters (n, r, norm) with regime diagnostics.

    delta_star parametrizes the admissible radius window
    n^{(delta*-2)/d} <= r <= n^{-delta*/d}; violations are warnings, not
    errors, because desk-scale experiments routinely sit at the edge.
    """

    n: float
    r: float
    norm: Norm
    delta_star: float = 0.1

    def __post_init__(self):
        if self.n <= 0 or not (0.0 < self.r < 0.5):
            raise ValueError("need n > 0 and 0 < r < 1/2")
        d = self.norm.dim
        lo = self.n ** ((self.delta_star - 2.0) / d)
        hi = self.n ** (-self.delta_star / d)
        if not (lo <= self.r <= hi):
            warnings.warn(
                f"r={self.r:.4g} outside the admissible window [{lo:.4g}, {hi:.4g}] "
                f"for delta_star={self.delta_star}",
                stacklevel=2,
            )
        p = self.p_hat
        if not (self.delta_star - 0.1 <= p <= 2.0 - self.delta_star + 0.1):
            warnings.warn(
                f"p_hat={p:.4g} outside [{self.delta_star}, {2 - self.delta_star}] (tol 0.1)",
                stacklevel=2,
            )

    @property
    def mu(self) -> float:
        """Expected edge count n^2 * nu * r^d / 2."""
        return expected_edges(self)

    @property
    def tau(self) -> float:
        """Volume of a ball of diameter r."""
        return ball_volume_tau(self.r, self.norm)

    @property
    def p_hat(self) -> float:
        """Finite-n plug-in for the edge-count exponent: log(mu)/log(n)."""
        return math.log(self.mu) / math.log(self.n)


def expected_edges(params: ModelParams) -> float:
    n = params.n
    return 0.5 * n * n * params.norm.nu * params.r**params.norm.dim


def params_for_p_hat(
    n: float, p_target: float, norm: Norm, delta_star: float = 0.1
) -> ModelParams:
    """Choose r so that p_hat = log(mu)/log(n) hits p_target.

    Solves mu = n^p for r: r = (2 n^{p-2} / nu)^{1/d}.
    """
    d = norm.dim
    r = (2.0 * n ** (p_target - 2.0) / norm.nu) ** (1.0 / d)
    return ModelParams(n=n, r=r, norm=norm, delta_star=delta_star)


def sample_ppp(n: float, norm: Norm, seed: int, replica: int = 0) -> PointSet:
    """Poisson(n) many i.i.d. uniform points on [0,1)^d, deterministic per seed."""
    if n < 0:
        raise ValueError("intensity must be nonnegative")
    g = rng.generator(seed, replica)
    count = int(g.poisson(n))
    pts = g.random((count, norm.dim))
    return PointSet(points=pts, intensity=float(n), seed=seed)


def edge_count_bruteforce(ps: PointSet, r: float, norm: Norm) -> int:
    """Definitional pairwise scan; reference semantics for edge_count."""
    pts = ps.points
    n = len(pts)
    if n < 2:
        return 0
    total = 0
    # row-at-a-time keeps memory at O(N) while staying vectorized
    for i in range(n - 1):
        d = torus_distance(pts[i + 1 :], pts[i], norm)
        total += int((d <= r).sum())
    return total


_MINKOWSKI_P = {"l1": 1, "l2": 2, "linf": np.inf}


def _periodic_tree(x: np.ndarray):
    """A periodic cKDTree of the points wrapped into [0, 1)^d."""
    # imported here so that lattice-only runs never load scipy.spatial
    from scipy.spatial import cKDTree

    # cKDTree(boxsize=1) rejects a coordinate of 1.0, which `% 1.0` returns
    # for tiny negative inputs such as -1e-17
    w = x % 1.0
    w[w == 1.0] = 0.0
    return cKDTree(w, boxsize=1.0)


def close_pairs(a: np.ndarray, radius: float, norm: Norm) -> np.ndarray:
    """The unordered index pairs i < j with torus_distance(a[i], a[j], norm) <= radius.

    The periodic kd-tree proposes candidates at a radius inflated by 1e-12
    (relative), and each candidate is re-checked with `torus_distance` on the
    caller's own coordinates, so the result is exactly the definitional scan
    for coordinates in [0, 1].  Returns an (M, 2) int64 array in no fixed order.
    """
    reach = radius * (1.0 + 1e-12)
    pairs = _periodic_tree(a).query_pairs(reach, p=_MINKOWSKI_P[norm.kind], output_type="ndarray")
    keep = torus_distance(a[pairs[:, 0]], a[pairs[:, 1]], norm) <= radius
    return pairs[keep]


def edge_count(ps: PointSet, r: float, norm: Norm) -> int:
    """|E| via periodic kd-tree candidates; bit-identical to the brute force."""
    if not (0.0 < r < 0.5):
        raise ValueError("need 0 < r < 1/2")
    return len(close_pairs(ps.points, r, norm))


def count_in_probe(ps: PointSet, S: Probe) -> int:
    if len(ps) == 0:
        return 0
    return int(np.asarray(probe_contains(S, ps.points)).sum())


def dump_csv(ps: PointSet) -> str:
    """CSV with header `dim,n,seed` then one row per point, 17 significant digits."""
    buf = io.StringIO()
    buf.write(f"{ps.dim},{ps.intensity!r},{ps.seed}\n")
    for row in ps.points:
        buf.write(",".join(f"{c:.17g}" for c in row) + "\n")
    return buf.getvalue()


def load_csv(text: str) -> PointSet:
    lines = [ln for ln in text.strip().splitlines() if ln]
    dim_s, n_s, seed_s = lines[0].split(",")
    dim = int(dim_s)
    pts = np.array(
        [[float(c) for c in ln.split(",")] for ln in lines[1:]], dtype=float
    ).reshape(-1, dim)
    return PointSet(points=pts, intensity=float(n_s), seed=int(seed_s))
