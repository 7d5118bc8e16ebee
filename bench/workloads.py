"""The four workloads: their inputs, one round of operations, and the checks.

A round is a fixed list of operations.  Each operation's `call` is the timed
section (the calls into rggloc); its `check` compares the outputs with the
reference values of `reference.py` and runs untimed on the first round only;
later rounds must reproduce the first round's `digest`.  `units` is the work
an operation adds to `ops_per_ref_s`.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from rggloc import extract as X
from rggloc import grid as G
from rggloc import ldp as L
from rggloc import points as P
from rggloc import sampling as S
from rggloc import stats as St
from rggloc.geometry import Ball, Norm

BENCH_DIR = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], object]
    units: int = 0
    extras: Callable[[object], dict] | None = None


def clear_caches():
    """Empty every functools cache in the package, as in a fresh interpreter."""
    for name, mod in list(sys.modules.items()):
        if name == "rggloc" or name.startswith("rggloc."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.tracer = None  # set by the runner while a round is traced
        self.child_peak_kb = 0

    def setup(self):
        """Build the grids and scales the rounds use (timed as set-up)."""

    def ops(self) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks over the whole first round; returns failure messages."""
        return []


# ---------------------------------------------------------------------------


class Continuum(Workload):
    """Edge counting in `points`: PPP replicas at two shapes plus planted samples."""

    name = "continuum"
    N = 2000.0
    SHAPES = {"l2-d2": (2, 0.03), "l2-d3": (3, 0.05)}
    REPLICAS = 8
    PLANTED = 8
    S_GRADE = 5

    def setup(self):
        self.c09 = P.params_for_p_hat(self.N, 1.0, Norm("l2", 2))
        self.c09_grid = G.build_grid(self.c09, self.S_GRADE)

    def ops(self):
        self.edges = {label: [] for label in self.SHAPES}
        out = []
        for tag, (label, (d, r)) in enumerate(self.SHAPES.items()):
            norm = Norm("l2", d)
            seed = ref.subseed(self.seed, tag)
            for k in range(self.REPLICAS):
                out.append(Op(
                    f"replica.{label}", partial(self._replica, norm, r, seed, k),
                    partial(self._check_replica, label, r), lambda o: (len(o[0]), o[1]), units=1,
                ))
        seed = ref.subseed(self.seed, 10)
        for k in range(self.PLANTED):
            out.append(Op(
                "planted", partial(self._planted, seed, k), self._check_planted,
                lambda o: (len(o[0]), o[1], o[2].count_A, o[2].center), units=1,
            ))
        return out

    def _replica(self, norm, r, seed, k):
        ps = P.sample_ppp(self.N, norm, seed, replica=k)
        return ps.points, P.edge_count(ps, r, norm)

    def _planted(self, seed, k):
        ps = S.planted_continuum_sampler(self.c09, 1.0, seed, replica=k)
        edges = P.edge_count(ps, self.c09.r, self.c09.norm)
        return ps.points, edges, X.certify_thm1(ps, self.c09, 1.0, 0.25, s=self.S_GRADE)

    def _check_replica(self, label, r, out):
        points, edges = out
        self.edges[label].append(edges)
        return ref.check_equal(f"edge_count {label}", edges, ref.pair_count(points, r, "l2"))

    def _check_planted(self, out):
        points, edges, rep = out
        r = self.c09.r
        k = ref.planted_count(self.N, 1.0, "l2", 2, 1.0)
        m = math.floor(self.S_GRADE / r)
        return (
            ref.check_equal("edge_count planted", edges, ref.pair_count(points, r, "l2"))
            + ref.check_band("planted |E| >= C(k,2)", edges, k * (k - 1) // 2, math.inf)
            + ref.check_equal("count_A", rep.count_A, ref.count_in_ball(points, rep.center, r / 2, "l2"))
            + ref.check_band("|E| <= |E_s|", edges, -math.inf, ref.sgraded_count(points, m, "l2", self.S_GRADE))
        )

    def finish(self):
        out = []
        for label, (d, r) in self.SHAPES.items():
            out += ref.check_mean_edges(label, self.edges[label], self.N, r, "l2", d)
        return out


# ---------------------------------------------------------------------------


class Localize(Workload):
    """The lattice certifier on planted and nominal configs, and the CLI."""

    name = "localize"
    PLANTED = 12
    NOMINAL = 4
    PLANTED_L2 = 3
    CLI_REPLICAS = 2
    # Untimed planted draws judged in `finish()`, so the pass-rate check can
    # fail on either side (200 draws put 4 standard errors at +-0.14), and
    # their planted cell total pins D' to about 1.3% (4 standard deviations).
    RATE_DRAWS = 200
    EPS = 0.2

    def setup(self):
        self.p1 = P.params_for_p_hat(1e5, 1.0, Norm("linf", 1))
        self.g1 = G.build_grid(self.p1, 5)
        self.s1 = St.derived_scales(self.g1, 1.0, eps_tilde=self.EPS)
        self.p2 = P.params_for_p_hat(1e4, 1.0, Norm("l2", 2))
        self.g2 = G.build_grid(self.p2, 5)
        self.s2 = St.derived_scales(self.g2, 1.0, eps_tilde=self.EPS)

    def ops(self):
        self.ref1 = ref.lattice_scales(1e5, 1.0, "linf", 1, 5, self.g1.tau_s)
        self.ref2 = ref.lattice_scales(1e4, 1.0, "l2", 2, 5, self.g2.tau_s)
        self.nominal_verdicts = []
        self.cli_seed = ref.subseed(self.seed, 13)
        self.scratch.mkdir(parents=True, exist_ok=True)
        config = {
            "model": {"n": 1e5, "p_target": 1.0, "d": 1, "norm": "linf"},
            "grid": {"s": 5},
            "conditioning": {"delta_tilde": 1.0, "eps": 0.25, "eps_tilde": self.EPS},
            "sampler": {"method": "planted", "replicas": self.CLI_REPLICAS, "t": 1.0},
            "seed": self.cli_seed,
            "output_dir": "condition",
        }
        (self.scratch / "config.json").write_text(json.dumps(config))

        digest = lambda o: (o[1].thm2_pass, o[1].cardP, o[1].diamP, len(o[1].frakI))
        out = []
        seed = ref.subseed(self.seed, 11)
        for k in range(self.PLANTED):
            out.append(Op("planted.linf", partial(self._planted, self.g1, self.s1, seed, k),
                          partial(self._check_planted, self.g1, self.ref1), digest, units=1))
        seed = ref.subseed(self.seed, 12)
        for k in range(self.NOMINAL):
            out.append(Op("nominal.linf", partial(self._nominal, seed, k), self._check_nominal, digest, units=1))
        seed = ref.subseed(self.seed, 14)
        for k in range(self.PLANTED_L2):
            out.append(Op("planted.l2", partial(self._planted, self.g2, self.s2, seed, k),
                          partial(self._check_planted, self.g2, self.ref2), digest, units=1))
        out.append(Op("cli.condition", partial(self._cli, "condition", []), self._check_condition,
                      self._digest_dir, extras=self._cli_extras))
        out.append(Op("cli.extract", partial(self._cli, "extract", ["--input", "condition", "--out", "extract"]),
                      self._check_extract, self._digest_dir, extras=self._cli_extras))
        return out

    def _planted(self, grid, scales, seed, k):
        ws = S.planted_cell_sampler(grid, 1.0, seed, replica=k)
        return ws, X.certify_thm2(ws.config, grid, scales, self.EPS)

    def _nominal(self, seed, k):
        cfg = G.sample_cell_config(self.g1, seed, replica=k)
        return cfg, X.certify_thm2(cfg, self.g1, self.s1, self.EPS)

    def _check_planted(self, grid, sc, out):
        ws, rep = out
        direct = ref.localized_on(ws.config.counts, ref.planted_cells(ws.anchor, grid.clique_offsets, sc), sc)
        return ref.check_equal(f"thm2_pass vs planted set ({sc['kind']})", rep.thm2_pass, direct)

    def _check_nominal(self, out):
        cfg, rep = out
        self.nominal_verdicts.append(rep.thm2_pass)
        return ref.check_equal("thm2_pass vs clauses from frakP", rep.thm2_pass,
                               ref.clauses_from_P(cfg.counts, rep.frakP, self.ref1))

    def _cli(self, sub, extra):
        report = self.scratch / f"{sub}.report.json"
        report.unlink(missing_ok=True)
        trace = "1" if self.tracer else "0"
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report), trace,
               sub, "--config", "config.json", *extra]
        with self.tracer.span(f"cli.{sub}", "cli") if self.tracer else nullcontext():
            proc = subprocess.run(cmd, cwd=self.scratch, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"rggloc {sub} exited {proc.returncode}: {proc.stderr[-400:]}")
            result = json.loads(report.read_text())
            if self.tracer:
                self.tracer.adopt(result["spans"], f"cli.{sub}")
        self.child_peak_kb = max(self.child_peak_kb, result["maxrss_kb"])
        return sub, result

    def _cli_extras(self, out):
        sub, result = out
        extras = {f"cli.{sub}.peak_rss_mb": result["maxrss_kb"] / 1024.0}
        if sub == "extract":
            written = sum(f.stat().st_size for d in ("condition", "extract")
                          for f in (self.scratch / d).iterdir())
            extras["cli.bytes_written"] = written / 1e6
        return extras

    def _digest_dir(self, out):
        """Hash of the subcommand's result files (the manifest carries a timestamp)."""
        h = hashlib.sha256()
        folder = self.scratch / ("condition" if out[0] == "condition" else "extract")
        for f in sorted(folder.iterdir()):
            if f.name != "manifest.json":
                h.update(f.name.encode() + f.read_bytes())
        return h.hexdigest()

    def _cli_replica(self, k):
        return S.planted_cell_sampler(self.g1, 1.0, self.cli_seed, replica=k)

    def _check_condition(self, out):
        sc = self.ref1
        files = sorted((self.scratch / "condition").glob("planted_*.csv"))
        fails = ref.check_equal("condition CSV files", len(files), self.CLI_REPLICAS)
        for k, f in enumerate(files):
            counts = ref.parse_config_csv(f.read_text(), sc["m"], sc["d"])
            if not np.array_equal(counts, self._cli_replica(k).config.counts):
                fails.append(f"condition: {f.name} differs from replica {k}")
        return fails

    def _check_extract(self, out):
        sc = self.ref1
        reports = json.loads((self.scratch / "extract" / "thm2_reports.json").read_text())
        fails = ref.check_equal("extract reports", len(reports), self.CLI_REPLICAS)
        for k, rep in enumerate(reports):
            ws = self._cli_replica(k)
            direct = ref.localized_on(ws.config.counts, ref.planted_cells(ws.anchor, self.g1.clique_offsets, sc), sc)
            fails += ref.check_equal(f"extract replica {k} thm2_pass vs planted set", rep["thm2_pass"], direct)
        return fails

    def finish(self):
        """The nominal rate, and the law of the planted sampler over RATE_DRAWS
        fresh planted configs: the share localized on their planted set, judged
        by the reference clauses alone (no `certify_thm2` call), and the total
        count of their planted cells, Poisson(draws * tau_s * D')."""
        sc = self.ref1
        nominal = sum(self.nominal_verdicts) / max(1, len(self.nominal_verdicts))
        seed = ref.subseed(self.seed, 15)
        passes = mass = 0
        for k in range(self.RATE_DRAWS):
            ws = S.planted_cell_sampler(self.g1, 1.0, seed, replica=k)
            planted = ref.planted_cells(ws.anchor, self.g1.clique_offsets, sc)
            passes += ref.localized_on(ws.config.counts, planted, sc)
            mass += int(ws.config.counts[planted].sum())
        return (
            ref.check_band("nominal pass rate", nominal, 0.0, 0.01)
            + ref.check_rate("planted (linf)", passes, self.RATE_DRAWS, ref.planted_pass_probability(sc))
            + ref.check_poisson_total("planted cell mass", mass, self.RATE_DRAWS * (sc["q"] + sc["n_z"]))
        )


# ---------------------------------------------------------------------------


class Tail(Workload):
    """The importance-sampling tail estimator and the sandwich bracket."""

    name = "tail"
    SWEEP = (1e3, 1e4, 1e5)
    REPLICAS = 100
    TINY_REPLICAS = 200_000
    T = 1.0
    EPS = 0.25

    def setup(self):
        self.models = []
        for n in self.SWEEP:
            params = P.params_for_p_hat(n, 1.0, Norm("linf", 1))
            self.models.append((n, params, G.build_grid(params, 5)))
        self.tiny = G.tiny_grid(Norm("linf", 1), m=4, s=3, n=4.0)

    def ops(self):
        out = []
        for tag, (n, params, grid) in enumerate(self.models):
            sc = ref.lattice_scales(n, 1.0, "linf", 1, 5, tau_s=5 + 1)  # (s+1)^d for Linf
            out.append(Op(
                f"is.n1e{round(math.log10(n))}", partial(self._sweep, params, grid, ref.subseed(self.seed, tag)),
                partial(self._check_sweep, n, sc), lambda o: (o[0].log_prob, o[0].rel_std_err, o[3], o[4]),
                units=self.REPLICAS,
            ))
        self.p_tiny = ref.tiny_exact(4, 3, "linf", 4.0, self.T)
        out.append(Op("is.tiny", partial(self._tiny, ref.subseed(self.seed, 9)), self._check_tiny,
                      lambda o: (o[0].log_prob, o[0].std_err), extras=self._tiny_extras))
        return out

    def _sweep(self, params, grid, seed):
        est = S.importance_estimate_tail(grid, self.T, self.REPLICAS, seed)
        bracket = L.sandwich_bounds(params, grid, self.T, self.EPS)
        val, err = L.normalized_log_tail(est, params.mu, params.n)
        lo, hi = bracket.normalized(params.mu, params.n)
        return est, val, err, lo, hi

    def _check_sweep(self, n, sc, out):
        est, val, err, lo, hi = out
        lo_ref, hi_ref = ref.sandwich_bracket(sc, self.T, self.EPS)
        fails = (ref.check_band(f"n={n:g} bracket lower vs reference", lo, lo_ref - 1e-9, lo_ref + 1e-9)
                 + ref.check_band(f"n={n:g} bracket upper vs reference", hi, hi_ref - 1e-9, hi_ref + 1e-9))
        return fails + ref.check_normalized_estimate(n, val, err, lo_ref, hi_ref)

    def _tiny(self, seed):
        cpu = time.process_time()
        est = S.importance_estimate_tail(self.tiny, self.T, self.TINY_REPLICAS, seed)
        return est, time.process_time() - cpu

    def _check_tiny(self, out):
        est = out[0]
        p = math.exp(est.log_prob)
        return ref.check_band("tiny-grid estimate vs exact P(N >= 7)", self.p_tiny,
                              p - 4 * est.std_err, p + 4 * est.std_err)

    def _tiny_extras(self, out):
        est, cpu = out
        return {
            "sampling.importance_estimate_tail.tiny.rel_std_err": est.rel_std_err,
            "sampling.importance_estimate_tail.tiny.precision_per_cpu_s": 1.0 / (est.rel_std_err**2 * cpu),
        }


# ---------------------------------------------------------------------------


class Clique(Workload):
    """tau_s searches, clique-set enumeration, inscribed balls and hulls."""

    name = "clique"
    TAU_KEYS = (("l2", 2, 16), ("l1", 2, 10), ("l2", 3, 2), ("linf", 3, 4), ("l2", 1, 6))
    HEADLINE = (150.0, 0.1)
    ENUM_CAP = 1
    INSCRIBED = (8, 16)
    HULLS = (8, 16)

    def setup(self):
        # Grids whose tau_s key is searched in the rounds are built there, so
        # set-up does not repeat a search that a round times.
        n, r = self.HEADLINE
        self.params = P.ModelParams(n, r, Norm("l2", 2))
        searched = {s for kind, d, s in self.TAU_KEYS if (kind, d) == ("l2", 2)}
        self.grids = {s: G.build_grid(self.params, s) for s in {5, *self.INSCRIBED, *self.HULLS} - searched}

    def ops(self):
        g = np.random.default_rng(ref.subseed(self.seed, 20))
        m = lambda s: math.floor(s / self.HEADLINE[1])
        out = []
        for kind, d, s in self.TAU_KEYS:
            out.append(Op(f"tau_s.{kind}-d{d}-s{s}", partial(self._tau, kind, d, s),
                          partial(self._check_tau, kind, d, s), lambda o: (o.size, o.exact, o.members), units=1))
        anchor = tuple(int(c) for c in g.integers(m(5), size=2))
        out.append(Op("enumerate", partial(self._enumerate, anchor),
                      partial(self._check_enumerate, anchor), lambda o: sorted(map(sorted, o)), units=1))
        for s in self.INSCRIBED:
            anchor = tuple(int(c) for c in g.integers(m(s), size=2))
            out.append(Op(f"inscribed.s{s}", partial(self._inscribed, s, anchor),
                          partial(self._check_inscribed, s), lambda o: o, units=1))
        for s in self.HULLS:
            ball = Ball(tuple(float(c) for c in g.random(2)), 0.05, Norm("l2", 2))
            out.append(Op(f"hulls.s{s}", partial(self._hulls, s, ball),
                          partial(self._check_hulls, s, ball), lambda o: (sorted(o[0]), sorted(o[1])), units=1))
        return out

    def _tau(self, kind, d, s):
        clear_caches()  # every search starts from empty caches, as in a fresh interpreter
        info = G.max_clique_info(Norm(kind, d), s)
        if (kind, d) == ("l2", 2):
            self.grids[s] = G.build_grid(self.params, s)  # reuses the search; later ops use the grid
        return info

    def _enumerate(self, anchor):
        return G.enumerate_max_clique_sets(self.grids[5], anchor, cap=self.ENUM_CAP)

    def _inscribed(self, s, anchor):
        grid = self.grids[s]
        return G.inscribed_ball_diameter(G.clique_translate(grid, anchor), grid)

    def _hulls(self, s, ball):
        return G.inner_hull(ball, self.grids[s]), G.outer_hull(ball, self.grids[s])

    def _check_tau(self, kind, d, s, info):
        return ref.check_witness(kind, d, s, info.size, info.exact, info.members)

    def _check_enumerate(self, anchor, sets):
        m = math.floor(5 / self.HEADLINE[1])
        return ref.check_enumerated(sets, anchor, self.grids[5].tau_s, m, "l2", 5)

    def _check_inscribed(self, s, value):
        r = self.HEADLINE[1]
        return ref.check_inscribed(value, r, math.floor(s / r), s, 2)

    def _check_hulls(self, s, ball, out):
        inner, outer = out
        return ref.check_hulls(inner, outer, math.floor(s / self.HEADLINE[1]), 2,
                               ref.unit_ball_volume("l2", 2) * ball.radius**2)


WORKLOADS = {w.name: w for w in (Continuum, Localize, Tail, Clique)}
