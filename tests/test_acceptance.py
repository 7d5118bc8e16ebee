"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test emits a single `criterion NN [PASS|FAIL]` line (echoed in the
terminal summary).  Localization is a with-high-probability statement as
n -> infinity, so every criterion asserts a finite-grid property that the
documented method actually promises:

* criterion 06: at uniform counts the Jensen step is an identity, and the
  documented bound sits exactly h(W) w / q below (1/q) sum_W Y_I, because it
  drops the nonnegative sum_W D / q.  Equality with the bound itself is not
  a property of the method;
* criterion 08: the planted sampler is the importance proposal, not a law of
  localized configurations; on each draw the certifier must agree with a
  direct check on the known planted set, and the pass rate must match the
  probability computed from the Poisson(D') cell law.  A fixed 90% pass
  rate is not a property of that law (it gives 0.37 here);
* criterion 13: the inscribed-ball/r ratio depends on which maximum clique
  set the solver returns and is not monotone in s; it must lie in a band
  around 1 that shrinks like 1/s.
"""

import functools
import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from rggloc import (
    CellConfig,
    ModelParams,
    Norm,
    Q_cross,
    Q_internal,
    V_count,
    build_grid,
    cell_metric,
    cell_metric_numeric_oracle,
    certify_thm1,
    certify_thm2,
    coarsen,
    derived_scales,
    edge_count,
    edge_count_bruteforce,
    exact_poisson_tail,
    exact_tail_tiny,
    importance_estimate_tail,
    index_union,
    inner_hull,
    inscribed_ball_diameter,
    jensen_lower_bound,
    max_clique_info,
    normalized_log_tail,
    outer_hull,
    params_for_p_hat,
    planted_cell_sampler,
    planted_continuum_sampler,
    poisson_tail_bound,
    sample_cell_config,
    sample_ppp,
    sandwich_bounds,
    sgraded_edge_count,
)
from rggloc.geometry import Ball
from rggloc.grid import clique_translate, flat_index, unflat_index
from rggloc.stats import sum_rate_Y

warnings.filterwarnings("ignore", category=UserWarning)

L2 = Norm("l2", 2)
HEADLINE = ModelParams(150.0, 0.1, L2)


def _record(report, num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    report.append(line)
    print(line)
    assert ok, line


def test_criterion_01_edge_count_mean(acceptance_report):
    t0 = time.perf_counter()
    seeds = 2000
    total = 0
    for k in range(seeds):
        ps = sample_ppp(150.0, L2, seed=1, replica=k)
        total += edge_count(ps, 0.1, L2)
    elapsed = time.perf_counter() - t0
    mean = total / seeds
    rel = abs(mean - HEADLINE.mu) / HEADLINE.mu
    ok = rel < 0.02 and elapsed < 30.0
    _record(
        acceptance_report, 1, "edge-count mean",
        ok, f"mean={mean:.2f} mu={HEADLINE.mu:.3f} rel={rel:.4f} time={elapsed:.1f}s",
    )


def test_criterion_02_oracle_equivalence(acceptance_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    mism_edges = 0
    for k in range(100):
        norm = Norm(["l1", "l2", "linf"][k % 3], [1, 2, 3][k % 2 + 1])
        n = float(rng.choice([200, 500, 1000, 2000]))
        r = float(rng.uniform(0.02, 0.2))
        ps = sample_ppp(n, norm, seed=100 + k)
        if edge_count(ps, r, norm) != edge_count_bruteforce(ps, r, norm):
            mism_edges += 1
    mism_metric = 0
    for kind in ("l1", "l2", "linf"):
        grids = [
            build_grid(ModelParams(100.0, 5.0 / 30.0, Norm(kind, 1)), s=5),
            build_grid(ModelParams(100.0, 4.0 / 20.0, Norm(kind, 2)), s=4),
            build_grid(ModelParams(100.0, 3.0 / 13.0, Norm(kind, 3)), s=3),
        ]
        for j in range(500):
            g = grids[j % 3]
            I = tuple(rng.integers(0, g.m, g.norm.dim))
            J = tuple(rng.integers(0, g.m, g.norm.dim))
            if cell_metric(I, J, g) != cell_metric_numeric_oracle(I, J, g):
                mism_metric += 1
    elapsed = time.perf_counter() - t0
    ok = mism_edges == 0 and mism_metric == 0 and elapsed < 60.0
    _record(
        acceptance_report, 2, "oracle equivalence",
        ok, f"edge mismatches={mism_edges}/100 metric mismatches={mism_metric}/1500 "
        f"time={elapsed:.1f}s",
    )


def test_criterion_03_discretization_inequalities(acceptance_report):
    grid = build_grid(HEADLINE, s=5)
    subset_bad = 0
    for k in range(100):
        ps = sample_ppp(150.0, L2, seed=3, replica=k)
        if edge_count(ps, 0.1, L2) > sgraded_edge_count(coarsen(ps, grid)):
            subset_bad += 1
    settings = [
        (kind, d, s, 200.0, 0.05)
        for kind in ("l1", "l2", "linf")
        for (d, s) in ((1, 4), (1, 6), (2, 4), (2, 6), (3, 3), (3, 4))
    ] + [("l2", 2, 8, 150.0, 0.1), ("linf", 2, 8, 500.0, 0.04)]
    assert len(settings) == 20
    dom_bad = 0
    for kind, d, s, n, r in settings:
        params = ModelParams(n, r, Norm(kind, d))
        g = build_grid(params, s)
        if params.mu > g.mu_s or g.num_cells * params.tau > g.tau_s:
            dom_bad += 1
    ratios = []
    for s in (4, 6, 8, 10, 12):
        g = build_grid(HEADLINE, s)
        ratios.append(g.mu_s / HEADLINE.mu - 1.0)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = subset_bad == 0 and dom_bad == 0 and decreasing
    _record(
        acceptance_report, 3, "discretization inequalities",
        ok, f"subset violations={subset_bad} domination violations={dom_bad} "
        f"excess ratios={['%.3f' % v for v in ratios]}",
    )


def test_criterion_04_clique_closed_form_linf(acceptance_report):
    t0 = time.perf_counter()
    bad = []
    for d in (1, 2, 3):
        for s in (3, 4, 5):
            info = max_clique_info(Norm("linf", d), s)
            if info.size != (s + 1) ** d or not info.exact:
                bad.append((d, s, info.size))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _record(
        acceptance_report, 4, "linf clique closed form",
        ok, f"failures={bad} time={elapsed:.1f}s",
    )


def test_criterion_05_chernoff_domination(acceptance_report):
    bad = 0
    tested = 0
    for D in (0.06, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        for mult in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0):
            tested += 1
            if poisson_tail_bound(D, D * mult, "upper") < exact_poisson_tail(
                D, D * mult, "upper"
            ):
                bad += 1
        for mult in (0.05, 0.2, 0.5, 0.8, 1.0):
            tested += 1
            if poisson_tail_bound(D, D * mult, "lower") < exact_poisson_tail(
                D, D * mult, "lower"
            ):
                bad += 1
    _record(
        acceptance_report, 5, "Chernoff domination",
        bad == 0, f"violations={bad}/{tested}",
    )


def test_criterion_06_jensen_functional(acceptance_report):
    grid = build_grid(HEADLINE, s=5)
    scales = derived_scales(grid, delta_tilde=1.0)
    rng = np.random.default_rng(6)
    worst = math.inf
    for k in range(1000):
        cfg = sample_cell_config(grid, seed=6, replica=k)
        size = int(rng.integers(1, 50))
        W = {
            unflat_index(int(f), grid.m, 2)
            for f in rng.choice(grid.num_cells, size=size, replace=False)
        }
        slack = sum_rate_Y(W, cfg) / scales.q - jensen_lower_bound(W, cfg, scales)
        worst = min(worst, slack)
    inequality_ok = worst >= -1e-9
    # equality clause: uniform counts on a clique window make the Jensen step
    # an identity.  The documented bound then drops only sum_W D / q =
    # h(W) w / q (6.130e-2 here), so the gap must equal that term, not 0.
    counts = np.zeros(grid.num_cells, dtype=np.int64)
    W = clique_translate(grid, (7, 7))
    for I in W:
        counts[flat_index(I, grid.m)] = 5
    cfg = CellConfig(counts, grid)
    gap = sum_rate_Y(W, cfg) / scales.q - jensen_lower_bound(W, cfg, scales)
    dropped = len(W) / grid.tau_s * scales.w / scales.q
    equality_ok = abs(gap - dropped) <= 1e-12
    ok = inequality_ok and equality_ok
    _record(
        acceptance_report, 6, "Jensen functional",
        ok, f"worst inequality slack={worst:.3e} uniform gap={gap:.3e} "
        f"h*w/q={dropped:.3e} residual={abs(gap - dropped):.1e}",
    )


def test_criterion_07_partition_identity(acceptance_report):
    grid = build_grid(HEADLINE, s=5)
    scales = derived_scales(grid, delta_tilde=1.0)
    rng = np.random.default_rng(7)
    q2 = scales.q**2 / 2.0
    all_cells = [unflat_index(f, grid.m, 2) for f in range(grid.num_cells)]
    bad_split = 0
    bad_vq = 0
    for k in range(50):
        cfg = sample_cell_config(grid, seed=7, replica=k)
        size = int(rng.integers(1, 60))
        W = {all_cells[int(f)] for f in rng.choice(grid.num_cells, size=size, replace=False)}
        comp = [I for I in all_cells if I not in W]
        parts = (
            Q_internal(W, cfg, scales)
            + Q_cross(W, comp, cfg, scales)
            + Q_internal(comp, cfg, scales)
        )
        # each Q piece is an integer (or half-integer pair count) over q^2/2
        if round(q2 * parts) != sgraded_edge_count(cfg):
            bad_split += 1
        if V_count(W, cfg, scales) ** 2 < Q_internal(W, cfg, scales) - 1e-12:
            bad_vq += 1
    ok = bad_split == 0 and bad_vq == 0
    _record(
        acceptance_report, 7, "partition identity",
        ok, f"identity violations={bad_split}/50 V^2>=Q violations={bad_vq}/50",
    )


@pytest.fixture(scope="module")
def loc_model():
    params = params_for_p_hat(1e5, 1.0, Norm("linf", 1))
    grid = build_grid(params, s=5)
    scales = derived_scales(grid, delta_tilde=1.0, eps_tilde=0.2)
    return params, grid, scales


def _localized_on(counts, planted, grid, scales, eps_tilde):
    """Theorem-2 clauses read directly off the known planted clique set.

    Every planted cell lies in the eps-band around q / tau_s, every other cell
    is at most eps q / tau_s, and the planted mass exceeds the frakT threshold.
    """
    ratio = grid.tau_s / scales.q
    inside = counts[planted]
    outside = np.delete(counts, planted)
    mass_threshold = 1.0 - 2.0 * scales.xi / math.log(scales.n)
    return bool(
        (np.abs(inside * ratio - 1.0) < eps_tilde).all()
        and (outside * ratio <= eps_tilde).all()
        and inside.sum() / scales.q > mass_threshold
    )


def _planted_localization_probability(grid, scales, eps_tilde):
    """P(planted draw passes the direct check) under the sampler's cell law.

    At t = delta_tilde the planted cells are i.i.d. Poisson(D') with
    D' = (q + n^z) / tau_s, the others i.i.d. Poisson(D); the band-restricted
    pmf is convolved tau_s times to get the planted mass.
    """
    ratio = grid.tau_s / scales.q
    d_planted = (scales.q + scales.n_z) / grid.tau_s
    k = np.arange(int((1.0 + eps_tilde) / ratio) + 2)
    band = np.where(np.abs(k * ratio - 1.0) < eps_tilde, poisson.pmf(k, d_planted), 0.0)
    mass = functools.reduce(np.convolve, [band] * grid.tau_s)
    mass_threshold = 1.0 - 2.0 * scales.xi / math.log(scales.n)
    p_inside = mass[np.arange(len(mass)) / scales.q > mass_threshold].sum()
    k_out = int(k[k * ratio <= eps_tilde].max())
    p_outside = poisson.cdf(k_out, grid.D) ** (grid.num_cells - grid.tau_s)
    return float(p_inside * p_outside)


def test_criterion_08_localization_planted(acceptance_report, loc_model):
    t0 = time.perf_counter()
    params, grid, scales = loc_model
    planted_pass = 0
    disagree = 0
    for k in range(500):
        ws = planted_cell_sampler(grid, t=1.0, seed=8, replica=k)
        verdict = certify_thm2(ws.config, grid, scales, eps_tilde=0.2).thm2_pass
        planted = [flat_index(I, grid.m) for I in clique_translate(grid, ws.anchor)]
        if verdict != _localized_on(ws.config.counts, planted, grid, scales, 0.2):
            disagree += 1
        planted_pass += verdict
    null_pass = 0
    for k in range(500):
        cfg = sample_cell_config(grid, seed=88, replica=k)
        if certify_thm2(cfg, grid, scales, eps_tilde=0.2).thm2_pass:
            null_pass += 1
    elapsed = time.perf_counter() - t0
    planted_rate = planted_pass / 500.0
    null_rate = null_pass / 500.0
    # The planted sampler is the importance proposal (criteria 10 and 11 pin
    # its law), so its pass rate is whatever that law gives, not a fixed 90%:
    # with D' = 81.36 against a band centre of 78.17, all six cells land in
    # the band with planted mass > q with probability 0.3706.  The criterion
    # checks that the certifier sees exactly the planted localization on every
    # draw and that the pass rate matches the analytic value within 3 binomial
    # standard errors.
    p_exact = _planted_localization_probability(grid, scales, 0.2)
    rate_tol = 3.0 * math.sqrt(p_exact * (1.0 - p_exact) / 500.0)
    ok = (
        disagree == 0
        and abs(planted_rate - p_exact) <= rate_tol
        and null_rate <= 0.01
        and elapsed < 300.0
    )
    _record(
        acceptance_report, 8, "localization on planted inputs",
        ok, f"certifier vs planted-set check disagreements={disagree}/500 "
        f"planted={planted_rate:.3f} (need {p_exact:.4f} +- {rate_tol:.3f}) "
        f"null={null_rate:.3f} (need <=0.01) time={elapsed:.0f}s",
    )


def test_criterion_09_continuum_positive_case(acceptance_report):
    params = params_for_p_hat(2000.0, 1.0, L2)
    passes = 0
    worst_b = 0.0
    worst_b_rep = None
    for k in range(200):
        ps = planted_continuum_sampler(params, delta=1.0, seed=9, replica=k)
        rep = certify_thm1(ps, params, delta=1.0, eps=0.25)
        if rep.clause_a_pass_SA:
            passes += 1
        if rep.clause_b_worst > worst_b:
            worst_b = rep.clause_b_worst
            worst_b_rep = k
    rate = passes / 200.0
    ok = rate >= 0.90
    _record(
        acceptance_report, 9, "continuum localization positive case",
        ok, f"clause-a(S=A) pass rate={rate:.3f} worst clause-b offender: "
        f"replica {worst_b_rep} at {worst_b:.3f}",
    )


def test_criterion_10_importance_sampling_correctness(acceptance_report, tiny):
    t0 = time.perf_counter()
    exact = exact_tail_tiny(tiny, threshold=2.0 * tiny.mu_s)
    p_exact = math.exp(exact.log_prob)
    agree = 0
    for k in range(100):
        est = importance_estimate_tail(tiny, t=1.0, replicas=10_000, seed=1000 + k)
        if abs(math.exp(est.log_prob) - p_exact) < 3.0 * est.std_err:
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree >= 99 and elapsed < 120.0
    _record(
        acceptance_report, 10, "importance sampling vs exact",
        ok, f"within 3 std_err in {agree}/100 runs (exact p={p_exact:.5f}) "
        f"time={elapsed:.0f}s",
    )


def test_criterion_11_ldp_trend(acceptance_report):
    target = -math.sqrt(2.0) / 2.0
    mids = []
    bracketed = True
    for n in (1e3, 1e4, 1e5):
        params = params_for_p_hat(n, 1.0, Norm("linf", 1))
        grid = build_grid(params, s=5)
        est = importance_estimate_tail(grid, t=1.0, replicas=400, seed=11)
        sb = sandwich_bounds(params, grid, t=1.0, eps=0.25)
        lo, hi = sb.normalized(params.mu, n)
        val, err = normalized_log_tail(est, params.mu, n)
        if not (lo - 3 * err <= val <= hi + 3 * err):
            bracketed = False
        mids.append(0.5 * (lo + hi))
    dists = [abs(m - target) for m in mids]
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    ok = bracketed and monotone
    _record(
        acceptance_report, 11, "LDP bracketing and trend",
        ok, f"midpoints={['%.4f' % m for m in mids]} -> target {target:.5f} "
        f"bracketed={bracketed} monotone={monotone}",
    )


def test_criterion_12_hull_fattening(acceptance_report):
    centers = [(0.31, 0.47), (0.503, 0.503), (0.947, 0.061)]
    worst = 0.0
    ok = True
    for s in (16, 32, 64):
        grid = build_grid(HEADLINE, s)
        bound = 32.0 * HEADLINE.tau / s
        for c in centers:
            ball = Ball(c, 0.05, L2)  # diameter r = 0.1
            gap = (
                index_union(outer_hull(ball, grid), grid).measure
                - index_union(inner_hull(ball, grid), grid).measure
            )
            worst = max(worst, gap / bound)
            if gap > bound:
                ok = False
    _record(
        acceptance_report, 12, "hull fattening",
        ok, f"worst gap/bound={worst:.3f} over s in (16, 32, 64) x 3 balls",
    )


def test_criterion_13_inscribed_ball_trend(acceptance_report):
    # The ratio depends on which maximum clique set the solver returns and is
    # not monotone in s (0.9865, 1.0242, 1.0039 here; refine=32 gives the
    # same dip), so the trend checked is convergence to 1 in a band ~ 1/s.
    # Ceiling: a pair of cells at metric <= s has ||delta + 1|| < s + 2 sqrt(d)
    # cell widths, so no ball inside the union is wider than (s + 2 sqrt(d))/m,
    # which is 1 + 2 sqrt(d)/s in units of r because m r = s on these grids.
    # Floor: 1 - c/s with c = 1, one cell width (r/s) of staircase loss along
    # the diameter.  The docs give no proven lower bound; c is an allowance,
    # about nine times the largest observed shortfall (0.108/s at s=8).
    c = 1.0
    d = HEADLINE.norm.dim
    ratios = []
    in_band = True
    for s in (8, 16, 32):
        grid = build_grid(HEADLINE, s)
        members = clique_translate(grid, (0, 0))
        ratio = inscribed_ball_diameter(members, grid) / grid.r
        ceiling = (s + 2.0 * math.sqrt(d)) / (grid.m * grid.r)
        in_band = in_band and 1.0 - c / s <= ratio <= ceiling
        ratios.append(ratio)
    exceeds = ratios[-1] > 0.8
    ok = in_band and exceeds
    _record(
        acceptance_report, 13, "inscribed-ball trend",
        ok, f"ratios={['%.4f' % v for v in ratios]} in [1 - {c:g}/s, "
        f"1 + 2sqrt(d)/s]: {in_band} s=32 > 0.8: {exceeds}",
    )


def test_criterion_14_cli_reproducibility(acceptance_report, tmp_path):
    from rggloc.cli import main as cli_main

    cfg = {
        "model": {"n": 150, "r": 0.1, "d": 2, "norm": "l2"},
        "grid": {"s": 5},
        "seed": 14,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    identical = (outs[0] / "verify_report.json").read_bytes() == (
        outs[1] / "verify_report.json"
    ).read_bytes()
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    m0.pop("timestamp")
    m1.pop("timestamp")
    ok = identical and m0 == m1
    _record(
        acceptance_report, 14, "verify reproducibility",
        ok, f"result files byte-identical={identical} manifests (sans timestamp) "
        f"equal={m0 == m1}",
    )


def test_supplementary_inscribed_ball_convergence():
    """The ratio stays in 1 +- 1.5/s and above 0.8.

    The deviation from 1 shrinks like 1/s but is not monotone in s, so the
    meaningful check is the band, not monotonicity.
    """
    for s in (8, 16, 32):
        grid = build_grid(HEADLINE, s)
        ratio = inscribed_ball_diameter(grid.clique_offsets, grid) / grid.r
        assert ratio > 0.8
        assert abs(ratio - 1.0) <= 1.5 / s + 0.05
