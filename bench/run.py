"""rggloc benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload {continuum,localize,tail,clique} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ./src; nothing is installed or built.  A run
sets up the workload (a fresh-interpreter import, five times, plus its grids
and scales, three times with the package caches emptied; medians reported),
then repeats whole rounds of the workload's fixed operations while another
round is expected to end within S seconds.  Every timed section is measured
against a fixed yardstick kernel and reported at the reference host speed
(see `yardstick.py`).  Outputs of the first round are checked against
`reference.py`; later rounds must reproduce them.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs half its time
untraced and half with spans around every call into the package layers, and
reports the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

import os
import sys

# Single-threaded: pin the BLAS pools before numpy is first imported (child
# processes inherit this), and keep RGGLOC_THREADS at its default of 1.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RGGLOC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import yardstick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_REPS = 3
IMPORT_REPS = 5
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

# How each per-layer metric of BENCHMARK.json is computed from the spans:
# (how, span name(s), operation or None for all).  "self" sums self time,
# "count" sums work counts, "calls" counts spans, "pNN" is a percentile of
# span durations in ms, "dur" sums inclusive durations, "extra" is a value an
# operation reports, "layer" is a module's self time, "trace" the accounting
# of the traced rounds.  Sums are per round of the traced phase plus one set-up.
_IS = "sampling.importance_estimate_tail"
LAYER_HOW = {
    "points.sample_ppp.s": ("self", "points.sample_ppp", None),
    "points.edge_count.s": ("self", "points.edge_count", None),
    "points.edge_count.l2-d2.p50_ms": ("p50", "points.edge_count", "replica.l2-d2"),
    "points.edge_count.l2-d3.p50_ms": ("p50", "points.edge_count", "replica.l2-d3"),
    "points.edges": ("count", "points.edge_count", None),
    "sampling.planted_continuum_sampler.s": ("self", "sampling.planted_continuum_sampler", None),
    "extract.certify_thm1.s": ("self", "extract.certify_thm1", None),
    "sampling.planted_cell_sampler.s": ("self", "sampling.planted_cell_sampler", None),
    "grid.sample_cell_config.s": ("self", "grid.sample_cell_config", None),
    "extract.frakI.s": ("self", "extract.extract_bulk_exceedance", None),
    "extract.frakT.s": ("self", "extract.extract_T", None),
    "extract.frakP.s": ("self", "extract.extract_P", None),
    "extract.diameter.s": ("self", "extract.set_diameter_capped", None),
    "stats.Q_internal.s": ("self", "stats.Q_internal", None),
    "extract.certify_thm2.s": ("self", "extract.certify_thm2", None),
    "extract.certify_thm2.p50_ms": ("p50", "extract.certify_thm2", None),
    "extract.certify_thm2.p90_ms": ("p90", "extract.certify_thm2", None),
    "extract.localization_profile.s": ("self", "extract.localization_profile", None),
    "extract.frakI.cells": ("count", "extract.extract_bulk_exceedance", None),
    "extract.frakP.cells": ("count", "extract.extract_P", None),
    "extract.diameter.pairs": ("count", "extract.set_diameter_capped", None),
    "grid.dump_config_csv.s": ("self", "grid.dump_config_csv", None),
    "grid.load_config_csv.s": ("self", "grid.load_config_csv", None),
    "cli.condition.s": ("dur", "cli.condition", None),
    "cli.extract.s": ("dur", "cli.extract", None),
    "cli.bytes_written": ("extra", "cli.bytes_written", None),
    "cli.condition.peak_rss_mb": ("extra", "cli.condition.peak_rss_mb", None),
    "cli.extract.peak_rss_mb": ("extra", "cli.extract.peak_rss_mb", None),
    f"{_IS}.n1e3.s": ("self", _IS, "is.n1e3"),
    f"{_IS}.n1e4.s": ("self", _IS, "is.n1e4"),
    f"{_IS}.n1e5.s": ("self", _IS, "is.n1e5"),
    "grid.sgraded_edge_count.s": ("self", "grid.sgraded_edge_count", None),
    "grid.sgraded_edge_count.calls": ("calls", "grid.sgraded_edge_count", None),
    f"{_IS}.tiny.s": ("self", _IS, "is.tiny"),
    f"{_IS}.tiny.rel_std_err": ("extra", f"{_IS}.tiny.rel_std_err", None),
    f"{_IS}.tiny.precision_per_cpu_s": ("extra", f"{_IS}.tiny.precision_per_cpu_s", None),
    "ldp.sandwich_bounds.s": ("self", "ldp.sandwich_bounds", None),
    "grid.build_grid.s": ("self", "grid.build_grid", None),
    "grid.tau_s.l2-d2-s16.s": ("self", "grid.max_clique_info", "tau_s.l2-d2-s16"),
    "grid.tau_s.l1-d2-s10.s": ("self", "grid.max_clique_info", "tau_s.l1-d2-s10"),
    "grid.tau_s.l2-d3-s2.s": ("self", "grid.max_clique_info", "tau_s.l2-d3-s2"),
    "grid.tau_s.linf-d3-s4.s": ("self", "grid.max_clique_info", "tau_s.linf-d3-s4"),
    "grid.tau_s.l2-d1-s6.s": ("self", "grid.max_clique_info", "tau_s.l2-d1-s6"),
    "grid.enumerate_max_clique_sets.s": ("self", "grid.enumerate_max_clique_sets", None),
    "grid.enumerate_max_clique_sets.sets": ("count", "grid.enumerate_max_clique_sets", None),
    "grid.inscribed_ball_diameter.s8.s": ("self", "grid.inscribed_ball_diameter", "inscribed.s8"),
    "grid.inscribed_ball_diameter.s16.s": ("self", "grid.inscribed_ball_diameter", "inscribed.s16"),
    "grid.hulls.s": ("self", ("grid.inner_hull", "grid.outer_hull"), None),
    **{f"layer.{name}.self_s": ("layer", name, None)
       for name in ("points", "grid", "sampling", "extract", "stats", "ldp", "cli")},
    **{f"trace.{what}": ("trace", what, None)
       for what in ("untraced_wall_s", "traced_wall_s", "overhead_s", "spans_s", "remainder_s", "spans",
                    "yardstick_ms")},
}


class Runner:
    """Runs rounds of a workload's operations, counting and checking them."""

    def __init__(self, workload, ops):
        self.wl = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.digests = [None] * len(ops)
        self.checked = False
        self.extras = {}

    def round(self, tracer=None) -> list:
        """One round; returns each operation's `yardstick.Section`, None where
        it failed."""
        times = []
        first = not self.checked
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if tracer:
                tracer.op = op.name
            try:
                out, section = yardstick.measure(op.call, sample=tracer is None)
                failures = op.check(out) if first else []
                digest = op.digest(out)
                if first:
                    self.digests[i] = digest
                elif digest != self.digests[i]:
                    failures = [f"{op.name}: output differs from the first round"]
                if op.extras:
                    for key, value in op.extras(out).items():
                        self.extras.setdefault(key, []).append(value)
            except Exception:
                failures = [f"{op.name}: raised\n{traceback.format_exc()}"]
            if failures:
                self.failed += 1
                print("\n".join(failures), file=sys.stderr)
            times.append(None if failures else section)
        self.checked = True
        return times

    def rounds(self, budget_s, tracer=None) -> list:
        """Whole rounds while another one is expected to end within `budget_s`
        (at least one), so a run's length stays near its budget."""
        start = time.perf_counter()
        out = []
        while True:
            out.append(self.round(tracer))
            print(f"{self.wl.name} round {len(out)}{' traced' if tracer else ''}: "
                  f"wall {_wall(out[-1]):.4f} s", file=sys.stderr)
            elapsed = time.perf_counter() - start
            if elapsed * (len(out) + 1) / len(out) > budget_s:
                return out

    def summary(self, rounds) -> tuple:
        """(wall_ref_s, ops_per_ref_s) from each operation's median time at the
        reference speed over the rounds, so a slow moment in one round moves
        one sample of one operation."""
        med = []
        for i in range(len(self.ops)):
            times = [r[i].reference_seconds() for r in rounds if r[i] is not None]
            med.append(statistics.median(times) if times else 0.0)
        unit_time = sum(t for t, op in zip(med, self.ops) if op.units)
        units = sum(op.units for op in self.ops)
        return sum(med), (units / unit_time if unit_time else 0.0)


def _wall(sections) -> float:
    return sum(s.seconds for s in sections if s)


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, setup_reps, traced_rounds, untraced, traced, extras):
    recs = tracer.records

    def per_round(select, value):
        setup = sum(value(r) for r in recs if r[3] == "setup" and select(r))
        rounds = sum(value(r) for r in recs if r[3] == "round" and select(r))
        return setup / setup_reps + rounds / traced_rounds

    def match(names, op):
        names = (names,) if isinstance(names, str) else names
        return lambda r: r[0] in names and (op is None or r[2] == op)

    # means, so that spans + remainder = traced wall, as the per-round sums add up
    spans_s = sum(r[4] for r in recs if r[3] == "round" and r[7]) / traced_rounds
    wall_u = statistics.fmean(_wall(r) for r in untraced)
    wall_t = statistics.fmean(_wall(r) for r in traced)
    # the overhead compares the phases at the reference speed, as the host's
    # speed may differ between them by more than the tracing costs
    ref = lambda rounds: statistics.fmean(sum(s.reference_seconds() for s in r if s) for r in rounds)
    trace = {
        "untraced_wall_s": wall_u, "traced_wall_s": wall_t, "overhead_s": ref(traced) - ref(untraced),
        "spans_s": spans_s, "remainder_s": wall_t - spans_s,
        "spans": sum(1 for r in recs if r[3] == "round") / traced_rounds,
        "yardstick_ms": statistics.median(yardstick.PASSES) * 1e3,
    }
    values = {
        "self": lambda r: r[5], "dur": lambda r: r[4], "count": lambda r: r[6], "calls": lambda r: 1,
    }
    metrics = {}
    for metric in MANIFEST["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        how, what, op = LAYER_HOW[name]
        if how in values:
            value = per_round(match(what, op), values[how])
        elif how.startswith("p"):
            durs = [r[4] * 1e3 for r in recs if r[3] == "round" and match(what, op)(r)]
            value = _percentile(durs, int(how[1:]))
        elif how == "extra":
            value = statistics.median(extras[what]) if what in extras else 0.0
        elif how == "layer":
            value = per_round(lambda r: r[1] == what, values["self"])
        else:
            value = trace[what]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# What `import rggloc` costs a fresh interpreter, as every CLI invocation pays it.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rggloc; print(time.perf_counter() - t)")


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run(args):
    import reference
    import tracing
    import workloads

    warnings.filterwarnings("ignore", category=UserWarning)
    problems = reference.selftest()
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    tracer = tracing.Tracer() if args.trace else None

    imports = [yardstick.measure(import_seconds) for _ in range(IMPORT_REPS)]
    setups = []
    for _ in range(SETUP_REPS):
        workloads.clear_caches()
        if tracer:
            tracer.phase, tracer.op = "setup", "setup"
            tracer.install()
        setups.append(yardstick.measure(wl.setup, sample=tracer is None)[1])
        if tracer:
            tracer.uninstall()

    runner = Runner(wl, wl.ops())
    if tracer:
        untraced = runner.rounds(args.seconds / 2)
        tracer.phase = "round"
        tracer.install()
        wl.tracer = tracer
        try:
            traced = runner.rounds(args.seconds / 2, tracer)
        finally:
            wl.tracer = None
            tracer.uninstall()
    else:
        untraced = runner.rounds(args.seconds)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, wl.child_peak_kb)
    problems += wl.finish()
    for p in problems:
        print(p, file=sys.stderr)

    if tracer:
        metrics = layer_metrics(tracer, SETUP_REPS, len(traced), untraced, traced, runner.extras)
    else:
        wall, rate = runner.summary(untraced)
        values = {
            "setup_s": (statistics.median(seconds * s.factor() for seconds, s in imports)
                        + statistics.median(s.reference_seconds() for s in setups)),
            "wall_ref_s": wall,
            "ops_per_ref_s": rate,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in MANIFEST["end_to_end"]}
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in MANIFEST["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rggloc" / "__init__.py").is_file():
        print(f"error: {SRC / 'rggloc'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rggloc

    if Path(rggloc.__file__).resolve().parent != (SRC / "rggloc").resolve():
        print(f"error: imported rggloc from {rggloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    finally:
        shutil.rmtree(SCRATCH / f"{args.workload}-{os.getpid()}", ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    for name, m in result["metrics"].items():
        print(f"{name:<60} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
