"""Reference values and checks computed apart from rggloc.

Everything here is written from the model's definitions (wrapped torus
distance, the integer cell metric, Poisson laws from scipy) and never calls
the package, so a check compares the program with an independent answer.
Each `check_*` function returns a list of failure messages; an empty list
means the check holds.  `selftest()` feeds every check a wrong value (an
edge count off by one, tau_s - 1, a flipped verdict, ...) and reports any
check that fails to reject it.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import poisson


def subseed(seed: int, tag: int) -> int:
    """A 32-bit program seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed % 2**32, tag]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# continuum geometry


def unit_ball_volume(kind: str, d: int) -> float:
    if kind == "linf":
        return 2.0**d
    if kind == "l1":
        return 2.0**d / math.factorial(d)
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def norm_length(v: np.ndarray, kind: str) -> np.ndarray:
    if kind == "l1":
        return v.sum(axis=-1)
    if kind == "linf":
        return v.max(axis=-1)
    return np.sqrt((v * v).sum(axis=-1))


def _wrapped_distance(a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    delta = np.abs(a - b)
    return norm_length(np.minimum(delta, 1.0 - delta), kind)


def pair_count(points: np.ndarray, r: float, kind: str, chunk: int = 64) -> int:
    """Unordered pairs at torus distance <= r, by the O(N^2) scan."""
    n = len(points)
    total = 0
    for lo in range(0, n - 1, chunk):
        block = points[lo : lo + chunk]
        dist = _wrapped_distance(block[:, None, :], points[None, lo + 1 :, :], kind)
        # row i of the block pairs with points j > lo + i only
        later = np.arange(lo + 1, n)[None, :] > np.arange(lo, lo + len(block))[:, None]
        total += int(((dist <= r) & later).sum())
    return total


def count_in_ball(points: np.ndarray, center, radius: float, kind: str) -> int:
    return int((_wrapped_distance(points, np.asarray(center), kind) <= radius).sum())


def edge_moments(n: float, r: float, kind: str, d: int):
    """Mean and variance of |E| for a Poisson(n) process on the torus (r < 1/2).

    By the Mecke formula E|E| = n^2 p / 2 and Var|E| = n^2 p / 2 + n^3 p^2,
    where p = nu r^d is the volume of a ball of radius r; the second term
    counts pairs of edges that share a vertex.
    """
    p = unit_ball_volume(kind, d) * r**d
    return 0.5 * n * n * p, 0.5 * n * n * p + n**3 * p * p


def planted_count(n: float, p_target: float, kind: str, d: int, delta: float) -> int:
    """Points that the planted continuum sampler puts in its ball."""
    r = (2.0 * n ** (p_target - 2.0) / unit_ball_volume(kind, d)) ** (1.0 / d)
    mu = edge_moments(n, r, kind, d)[0]
    p_hat = math.log(mu) / math.log(n)
    z = max(p_hat / 4.0, 3.0 * p_hat / 4.0 - 0.5)
    return math.ceil(math.sqrt(2.0 * delta * mu) + n**z)


# ---------------------------------------------------------------------------
# the s-graded lattice


def cell_metric(delta: np.ndarray, kind: str) -> np.ndarray:
    """d(I, J) from per-axis cell offsets |delta| (wrapped by the caller).

    d(I, J) is the least integer z such that interior points of the two cells
    come closer than z cell widths.  Their distances fill the open interval
    above g = ||max(|delta| - 1, 0)|| (in cell widths), so z = floor(g) + 1,
    and 0 for the same cell.  Computed in integers, so it is exact.
    """
    g = np.maximum(np.abs(np.asarray(delta, dtype=np.int64)) - 1, 0)
    if kind == "l1":
        z = g.sum(axis=-1)
    elif kind == "linf":
        z = g.max(axis=-1)
    else:
        sq = (g * g).sum(axis=-1)
        z = np.floor(np.sqrt(sq)).astype(np.int64)  # integer square root, corrected
        z = z + ((z + 1) ** 2 <= sq) - (z * z > sq)
    same = (np.asarray(delta) == 0).all(axis=-1)
    return np.where(same, 0, np.asarray(z) + 1)


def wrapped_offsets(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    diff = np.abs(np.asarray(a) - np.asarray(b)) % m
    return np.minimum(diff, m - diff)


def set_diameter(cells, m: int, kind: str) -> int:
    cells = np.asarray(sorted(cells), dtype=np.int64)
    if len(cells) < 2:
        return 0
    return int(cell_metric(wrapped_offsets(cells[:, None, :], cells[None, :, :], m), kind).max())


@functools.lru_cache(maxsize=None)
def neighbour_offsets(kind: str, d: int, s: int) -> tuple:
    """Nonzero offsets o with d(I, I + o) <= s on a grid with m >= 2s + 3."""
    axis = np.arange(-(s + 1), s + 2)
    offs = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    keep = (cell_metric(offs, kind) <= s) & (np.abs(offs).sum(axis=1) > 0)
    return tuple(map(tuple, offs[keep].tolist()))


def sgraded_count(points: np.ndarray, m: int, kind: str, s: int) -> int:
    """|E_s| of the coarsened points: C(X_I, 2) plus products over adjacent cells."""
    d = points.shape[1]
    cells = np.minimum((points * m).astype(np.int64), m - 1)
    x = np.zeros((m,) * d, dtype=np.int64)
    np.add.at(x, tuple(cells.T), 1)
    twice_cross = sum(
        int((x * np.roll(x, [-c for c in o], axis=tuple(range(d)))).sum())
        for o in neighbour_offsets(kind, d, s)
    )
    return int((x * (x - 1)).sum()) // 2 + twice_cross // 2


def lattice_scales(n: float, p_target: float, kind: str, d: int, s: int, tau_s: int,
                   delta_tilde: float = 1.0, eps_tilde: float = 0.2) -> dict:
    """The thresholds of the localization argument, from their definitions."""
    r = (2.0 * n ** (p_target - 2.0) / unit_ball_volume(kind, d)) ** (1.0 / d)
    m = math.floor(s / r)
    nbhd = len(neighbour_offsets(kind, d, s)) + 1
    mu_s = nbhd * n * n / (2.0 * m**d)
    p_hat = math.log(mu_s) / math.log(n)
    return {
        "n": n, "r": r, "m": m, "d": d, "s": s, "kind": kind, "tau_s": tau_s,
        "cells": m**d, "D": n / m**d, "mu_s": mu_s,
        "q": math.sqrt(2.0 * delta_tilde * mu_s),
        "n_z": n ** max(p_hat / 4.0, 3.0 * p_hat / 4.0 - 0.5),
        "xi": min(eps_tilde**40, (2.0 * tau_s) ** -10, 0.25 * (2.0 * tau_s) ** -4),
        "eps": eps_tilde,
    }


def planted_cells(anchor, clique_offsets, sc: dict) -> np.ndarray:
    """Flat indices of the clique set translated to `anchor`."""
    m = sc["m"]
    cells = (np.asarray(anchor)[None, :] + np.asarray(clique_offsets)) % m
    return np.ravel_multi_index(cells.T, (m,) * sc["d"])


def localized_on(counts: np.ndarray, planted: np.ndarray, sc: dict) -> bool:
    """Theorem-2 clauses on a known planted set: every planted cell in the
    eps-band around q / tau_s, every other cell at most eps q / tau_s, and the
    planted mass above the frakT threshold 1 - 2 xi / log n."""
    ratio = sc["tau_s"] / sc["q"]
    inside = counts[planted]
    outside = np.delete(counts, planted)
    return bool(
        (np.abs(inside * ratio - 1.0) < sc["eps"]).all()
        and (outside * ratio <= sc["eps"]).all()
        and inside.sum() / sc["q"] > 1.0 - 2.0 * sc["xi"] / math.log(sc["n"])
    )


def clauses_from_P(counts: np.ndarray, frakP, sc: dict) -> bool:
    """Theorem-2 verdict recomputed from an extracted set, own diameter."""
    if not frakP:
        return False
    ratio = sc["tau_s"] / sc["q"]
    idx = np.ravel_multi_index(np.asarray(sorted(frakP)).T, (sc["m"],) * sc["d"])
    outside = np.delete(counts, idx)
    return bool(
        len(frakP) >= sc["tau_s"]
        and set_diameter(frakP, sc["m"], sc["kind"]) <= sc["s"]
        and np.abs(counts[idx] * ratio - 1.0).max() < sc["eps"]
        and (outside.max() * ratio if outside.size else 0.0) <= sc["eps"]
    )


def planted_pass_probability(sc: dict) -> float:
    """P(a planted draw passes `localized_on`) under the sampler's cell law:
    planted cells i.i.d. Poisson(D') with D' = (q + n^z) / tau_s, the others
    Poisson(D); the band-restricted pmf is convolved tau_s times."""
    tau, q, eps = sc["tau_s"], sc["q"], sc["eps"]
    ratio = tau / q
    k = np.arange(int((1.0 + eps) / ratio) + 2)
    band = np.where(np.abs(k * ratio - 1.0) < eps, poisson.pmf(k, (q + sc["n_z"]) / tau), 0.0)
    mass = functools.reduce(np.convolve, [band] * tau)
    p_inside = mass[np.arange(len(mass)) / q > 1.0 - 2.0 * sc["xi"] / math.log(sc["n"])].sum()
    k_out = int(k[k * ratio <= eps].max())
    return float(p_inside * poisson.cdf(k_out, sc["D"]) ** (sc["cells"] - tau))


def parse_config_csv(text: str, m: int, d: int) -> np.ndarray:
    """Counts vector from an `i0,...,count` CSV of the nonzero cells."""
    lines = text.splitlines()
    if lines[0].split(",") != [f"i{k}" for k in range(d)] + ["count"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = np.array([ln.split(",") for ln in lines[1:] if ln], dtype=np.int64).reshape(-1, d + 1)
    counts = np.zeros(m**d, dtype=np.int64)
    counts[np.ravel_multi_index(rows[:, :d].T, (m,) * d)] = rows[:, d]
    return counts


# ---------------------------------------------------------------------------
# tails


def log_poisson_sf(lam: float, x: float) -> float:
    """log P(Poisson(lam) > x), summed in log space so far tails do not underflow."""
    k = np.arange(math.floor(x) + 1, math.floor(x) + 2000 + int(20 * math.sqrt(lam)))
    return float(logsumexp(poisson.logpmf(k, lam)))


def sandwich_bracket(sc: dict, t: float, eps: float):
    """Normalized (lower, upper) bracket on log P(|E| >= (1 + t) mu).

    Upper: m^{d tau_s} clique sets, each holding Poisson(tau_s D) points that
    must exceed sqrt(2 t mu)(1 - eps).  Lower: exactly ceil(sqrt(2 t mu) + n^z)
    points in one ball of diameter r.  Normalized by sqrt(mu) log n.
    """
    n, d, kind = sc["n"], sc["d"], sc["kind"]
    mu = edge_moments(n, sc["r"], kind, d)[0]
    target = math.sqrt(2.0 * t * mu)
    upper = (d * sc["tau_s"] * math.log(sc["m"]) - math.log1p(-eps)
             + log_poisson_sf(sc["tau_s"] * sc["D"], target * (1.0 - eps)))
    ball = unit_ball_volume(kind, d) * (sc["r"] / 2.0) ** d
    lower = math.log1p(-eps) + float(poisson.logpmf(math.ceil(target + sc["n_z"]), n * ball))
    denom = math.sqrt(mu) * math.log(n)
    return lower / denom, upper / denom


def tiny_exact(m: int, s: int, kind: str, n: float, t: float) -> float:
    """P(|E_s| >= (1 + t) mu_s) on a wrapped d=1 grid whose cells are all adjacent.

    With every pair adjacent, |E_s| = C(N, 2) with N ~ Poisson(n) the total
    count, and mu_s = n^2 / 2.
    """
    offsets = np.arange(m)[:, None]
    if not (cell_metric(np.minimum(offsets, m - offsets), kind) <= s).all():
        raise ValueError("not every cell pair is adjacent")
    threshold = (1.0 + t) * n * n / 2.0
    n0 = next(k for k in range(10_000) if k * (k - 1) / 2 >= threshold)
    return float(poisson.sf(n0 - 1, n))


# ---------------------------------------------------------------------------
# checks


def check_equal(label: str, got, want) -> list:
    return [] if got == want else [f"{label}: got {got}, reference {want}"]


def check_band(label: str, value: float, lo: float, hi: float) -> list:
    return [] if lo <= value <= hi else [f"{label}: {value:.6g} outside [{lo:.6g}, {hi:.6g}]"]


def check_mean_edges(label: str, counts, n: float, r: float, kind: str, d: int, k: float = 4.0) -> list:
    mean, var = edge_moments(n, r, kind, d)
    se = math.sqrt(var / len(counts))
    return check_band(f"{label} mean |E|", float(np.mean(counts)), mean - k * se, mean + k * se)


def check_rate(label: str, passes: int, total: int, p: float, k: float = 4.0) -> list:
    se = math.sqrt(p * (1.0 - p) / total)
    return check_band(f"{label} pass rate", passes / total, p - k * se, p + k * se)


# At n = 1e5 the delta-method `err` of `normalized_log_tail` (about 2e-4) is
# far below the estimate's scatter over seeds (about 0.021 across 110 seeds,
# the lowest 0.0023 above the bracket's lower side), so the lower side there
# allows this fixed margin instead of 3 err.
N1E5_LOWER_MARGIN = 0.02


def check_normalized_estimate(n: float, value: float, err: float, lo: float, hi: float) -> list:
    """A finite normalized tail estimate inside the sandwich bracket: within
    3 err of each side, except the lower side at n >= 1e5 (margin above)."""
    margin = 3.0 * err if n < 1e5 else N1E5_LOWER_MARGIN
    if not math.isfinite(value):
        return [f"n={n:g} normalized estimate: {value} is not finite"]
    return check_band(f"n={n:g} normalized estimate", value, lo - margin, hi + 3.0 * err)


def check_poisson_total(label: str, total: int, mean: float, k: float = 4.0) -> list:
    """A Poisson(mean) total within k standard deviations of its mean."""
    sd = math.sqrt(mean)
    return check_band(label, total, mean - k * sd, mean + k * sd)


def check_witness(kind: str, d: int, s: int, size: int, exact: bool, members) -> list:
    out = []
    pts = np.asarray(sorted(members), dtype=np.int64).reshape(-1, d)
    if len(pts) != size:
        out.append(f"tau_s {kind}-d{d}-s{s}: witness has {len(pts)} cells, size says {size}")
    diam = int(cell_metric(np.abs(pts[:, None, :] - pts[None, :, :]), kind).max()) if len(pts) else 0
    if diam > s:
        out.append(f"tau_s {kind}-d{d}-s{s}: witness diameter {diam} > s")
    if kind == "linf":
        out += check_equal(f"tau_s {kind}-d{d}-s{s} vs (s+1)^d", size, (s + 1) ** d)
    if d == 1:
        out += check_equal(f"tau_s {kind}-d{d}-s{s} vs s+1", size, s + 1)
    if exact is not True:
        out.append(f"tau_s {kind}-d{d}-s{s}: not proved optimal")
    return out


def check_enumerated(sets, anchor, tau: int, m: int, kind: str, s: int) -> list:
    out = [] if sets else ["enumerate: no set returned"]
    if len(set(sets)) != len(sets):
        out.append("enumerate: repeated set")
    for W in sets:
        if len(W) != tau:
            out.append(f"enumerate: set of size {len(W)} != tau_s {tau}")
        if tuple(anchor) not in W:
            out.append("enumerate: anchor missing")
        if set_diameter(W, m, kind) > s:
            out.append("enumerate: diameter > s")
    return out


def check_inscribed(value: float, r: float, m: int, s: int, d: int) -> list:
    return check_band(f"inscribed s={s} ratio", value / r, 1.0 - 1.0 / s, (s + 2.0 * math.sqrt(d)) / (m * r))


def check_hulls(inner, outer, m: int, d: int, ball_measure: float) -> list:
    out = [] if set(inner) <= set(outer) else ["hulls: inner hull not inside outer hull"]
    lam_in, lam_out = len(inner) / m**d, len(outer) / m**d
    if not lam_in <= ball_measure <= lam_out:
        out.append(f"hulls: not lambda(inner)={lam_in:.6g} <= {ball_measure:.6g} <= lambda(outer)={lam_out:.6g}")
    return out


def selftest() -> list:
    """Show that every check rejects a wrong value; returns the checks that do not."""
    bad = []

    def rejects(name, failures):
        if not failures:
            bad.append(f"selftest: {name} accepted a wrong value")

    def accepts(name, failures):
        if failures:
            bad.append(f"selftest: {name} rejected a right value: {failures}")

    g = np.random.default_rng(0)
    pts = g.random((80, 2))
    naive = sum(
        1 for i in range(80) for j in range(i + 1, 80)
        if math.hypot(*[min(abs(a - b), 1 - abs(a - b)) for a, b in zip(pts[i], pts[j])]) <= 0.2
    )
    e = pair_count(pts, 0.2, "l2")
    accepts("pair_count vs double loop", check_equal("pairs", e, naive))
    rejects("edge count off by one", check_equal("edges", e + 1, pair_count(pts, 0.2, "l2")))

    mean, var = edge_moments(2000.0, 0.03, "l2", 2)
    accepts("mean |E| at mu", check_mean_edges("x", [mean] * 8, 2000.0, 0.03, "l2", 2))
    rejects("mean |E| with r taken as a diameter",
            check_mean_edges("x", [mean / 4] * 8, 2000.0, 0.03, "l2", 2))

    k = planted_count(2000.0, 1.0, "l2", 2, 1.0)
    rejects("planted clique short of C(k,2)", check_band("planted", k * (k - 1) // 2 - 1, k * (k - 1) // 2, math.inf))
    rejects("count_A off by one",
            check_equal("count_A", count_in_ball(pts, (0.5, 0.5), 0.2, "l2") + 1, count_in_ball(pts, (0.5, 0.5), 0.2, "l2")))

    # |E_s| against a double loop over the points' cells
    m = 12
    cells = np.minimum((pts * m).astype(np.int64), m - 1)
    slow = sum(
        1 for i in range(80) for j in range(i + 1, 80)
        if cell_metric(wrapped_offsets(cells[i], cells[j], m), "l2") <= 3
    )
    accepts("sgraded_count vs double loop", check_equal("E_s", sgraded_count(pts, m, "l2", 3), slow))
    rejects("|E| above |E_s|", check_band("E<=E_s", slow + 1, -math.inf, slow))

    counts = np.array([0, 3, 0, 0, 7, 1], dtype=np.int64)
    text = "i0,count\n1,3\n4,7\n5,1\n"
    accepts("CSV parser", check_equal("csv", parse_config_csv(text, 6, 1).tolist(), counts.tolist()))
    rejects("CSV count changed", check_equal("csv", parse_config_csv(text.replace("4,7", "4,6"), 6, 1).tolist(), counts.tolist()))

    sc = {"n": 1e5, "m": 50, "d": 1, "s": 5, "kind": "linf", "tau_s": 6, "q": 60.0,
          "xi": 1e-28, "eps": 0.2, "cells": 50, "D": 0.2, "n_z": 0.0}
    cfg = np.zeros(50, dtype=np.int64)
    planted = np.arange(10, 16)
    cfg[planted] = 11
    verdict = localized_on(cfg, planted, sc)
    accepts("planted set localized", check_equal("planted", verdict, True))
    rejects("flipped planted verdict", check_equal("thm2_pass", not verdict, localized_on(cfg, planted, sc)))
    frakP = {(int(i),) for i in planted}
    accepts("clauses from frakP", check_equal("P", clauses_from_P(cfg, frakP, sc), True))
    rejects("flipped nominal verdict", check_equal("thm2_pass", False, clauses_from_P(cfg, frakP, sc)))
    spread = frakP - {(15,)} | {(40,)}
    cfg2 = cfg.copy()
    cfg2[15], cfg2[40] = 0, 11
    rejects("split set passes", check_equal("P", True, clauses_from_P(cfg2, spread, sc)))

    accepts("pass rate at p", check_rate("x", 74, 200, 0.3706))
    rejects("pass rate assumed 0.90", check_rate("x", 180, 200, 0.3706))
    rejects("pass rate 0", check_rate("x", 0, 200, 0.3706))
    # 200 draws of 6 planted cells at D' = 81.36, against D' = 78.17 (no n^z slack)
    accepts("planted mass at D'", check_poisson_total("x", round(1200 * 81.36), 1200 * 81.36))
    rejects("planted mass without the slack", check_poisson_total("x", round(1200 * 78.17), 1200 * 81.36))
    rejects("nominal pass rate", check_band("nominal", 1 / 6, 0.0, 0.01))

    lo, hi = sandwich_bracket(lattice_scales(1e5, 1.0, "linf", 1, 5, 6), 1.0, 0.25)
    accepts("n=1e5 estimate near the lower side", check_normalized_estimate(1e5, lo + 0.002, 2e-4, lo, hi))
    rejects("n=1e5 estimate -inf", check_normalized_estimate(1e5, -math.inf, 2e-4, lo, hi))
    rejects("n=1e5 estimate far below the bracket", check_normalized_estimate(1e5, lo - 0.03, 2e-4, lo, hi))
    rejects("n=1e4 estimate above the bracket", check_normalized_estimate(1e4, hi + 0.01, 1e-3, lo, hi))

    accepts("tiny exact = P(N >= 7)", check_band("tiny", tiny_exact(4, 3, "linf", 4.0, 1.0), 0.11066, 0.11068))
    rejects("tiny exact with P(N >= 6)", check_band("tiny", float(poisson.sf(5, 4.0)), 0.1106, 0.1108))

    rejects("tau_s - 1", check_witness("linf", 2, 3, 15, True, [(i, j) for i in range(4) for j in range(4)][:15]))
    rejects("witness with a far cell", check_witness("l2", 2, 3, 3, True, [(0, 0), (1, 0), (9, 9)]))
    rejects("unproved tau_s", check_witness("l2", 1, 3, 4, False, [(0,), (1,), (2,), (3,)]))
    rejects("set without its anchor", check_enumerated([frozenset({(1, 1), (1, 2)})], (0, 0), 2, 20, "l2", 3))
    rejects("inscribed radius for diameter", check_inscribed(0.5 * 0.1, 0.1, 80, 8, 2))
    rejects("inscribed ratio 1.2x at s=32", check_inscribed(1.2 * 0.1, 0.1, 320, 32, 2))
    rejects("swapped hulls", check_hulls({(0, 0), (0, 1)}, {(0, 0)}, 10, 2, 0.015))
    return bad
