"""Experiment driver: JSON-configured subcommands with manifests and plots.

Usage:
    rggloc <grid-info|simulate|condition|extract|tail|verify> --config <path>
           [--seed N] [--out DIR] [--input DIR]

All commands read one flat JSON config (schema `runconfig.v1`) and write
their results as CSV/JSON plus self-contained SVG plots.  `main` builds the
model, makes the output directory, runs the subcommand, and after it returns
writes `manifest.json` listing every file the subcommand wrote with a sha256
checksum.  With a fixed config and seed, all outputs except the manifest
timestamp are byte-identical across runs.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 budget exhausted,
4 overflow (a count too large to sum exactly).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .extract import _top_cells, certify_thm2, localization_profile
from .geometry import Norm
from .grid import (
    CellConfig,
    _cell_set,
    _in_sorted,
    _index_rows,
    build_grid,
    coarsen,
    dump_config_csv,
    load_config_csv,
    sample_cell_config,
    sgraded_edge_count,
)
from .ldp import normalized_log_tail, rate_function, sandwich_bounds
from .points import ModelParams, edge_count, edge_count_bruteforce, params_for_p_hat, sample_ppp
from .sampling import _replicas, importance_estimate_tail, planted_cell_sampler
from .stats import derived_scales, exact_poisson_tail, poisson_tail_bound


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    params: ModelParams
    s: int
    delta_tilde: float
    eps: float
    eps_tilde: float
    method: str
    replicas: int
    budget: int
    t: float
    seed: int
    output_dir: Path
    n_sweep: list
    raw: dict


def _threads() -> int:
    try:
        return max(1, min(64, int(os.environ.get("RGGLOC_THREADS", "1"))))
    except ValueError:
        return 1


def _section(raw: dict, key: str) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} is not a JSON object")
    return section


def _real(value) -> float:
    """A finite JSON number; a bool, a string, NaN (which compares false), an
    infinity or an integer past float range is a TypeError."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise TypeError(value)
    return float(value)


def _integer(value) -> int:
    """A JSON number with no fractional part (5, 5.0 or 1e3); 1.9, a bool or
    a string is a TypeError, not 1 or its parse."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _field(section: dict, path: str, cast, default=None):
    """The value at the last key of the dotted `path`, or `default`, through
    `cast`; a value of a JSON type `cast` cannot take (null, a list for a
    number, ...) is a ConfigError, not a TypeError."""
    value = section.get(path.rpartition(".")[2], default)
    try:
        return cast(value)
    except TypeError as e:
        raise ConfigError(f"{path} has the wrong JSON type: {json.dumps(value)}") from e


def load_config(path: str, seed=None, out=None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"config not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not raw:
        raise ConfigError("empty config")
    if not isinstance(raw, dict):
        raise ConfigError("config is not a JSON object")
    model = _section(raw, "model")
    for key in ("n", "d", "norm"):
        if key not in model:
            raise ConfigError(f"model.{key} is required")
    norm = Norm(model["norm"], _field(model, "model.d", _integer))
    n = _field(model, "model.n", _real)
    delta_star = _field(model, "model.delta_star", _real, 0.1)
    has_r = "r" in model
    has_p = "p_target" in model
    if has_r == has_p:
        raise ConfigError("exactly one of model.r / model.p_target is required")
    if has_r:
        params = ModelParams(n, _field(model, "model.r", _real), norm, delta_star)
    else:
        params = params_for_p_hat(n, _field(model, "model.p_target", _real), norm, delta_star)
    cond = _section(raw, "conditioning")
    sampler = _section(raw, "sampler")
    return RunConfig(
        params=params,
        s=_field(_section(raw, "grid"), "grid.s", _integer, 5),
        delta_tilde=_field(cond, "conditioning.delta_tilde", _real, 1.0),
        eps=_field(cond, "conditioning.eps", _real, 0.25),
        eps_tilde=_field(cond, "conditioning.eps_tilde", _real, 0.2),
        method=str(sampler.get("method", "planted")),
        replicas=_field(sampler, "sampler.replicas", _integer, 200),
        budget=_field(sampler, "sampler.budget", _integer, 10000),
        t=_field(sampler, "sampler.t", _real, 1.0),
        seed=int(seed) if seed is not None else _field(raw, "seed", _integer, 0),
        output_dir=Path(out) if out is not None else _field(raw, "output_dir", Path, "rggloc-out"),
        n_sweep=_field(model, "model.n_sweep", lambda vs: [_real(v) for v in vs], []),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# output helpers


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(cfg: RunConfig, derived: dict, files: list):
    out = cfg.output_dir
    manifest = {
        "schema": "manifest.v1",
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg.seed,
        "config": cfg.raw,
        "derived": derived,
        "files": {f.name: _sha256(f) for f in files},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _model(cfg: RunConfig) -> tuple:
    """The run's lattice model and its derived scales: (grid, scales)."""
    grid = build_grid(cfg.params, cfg.s)
    return grid, derived_scales(grid, cfg.delta_tilde, cfg.params.delta_star, cfg.eps_tilde)


def _derived_quantities(p: ModelParams, grid, scales) -> dict:
    return {
        "mu": p.mu,
        "tau": p.tau,
        "p_hat_continuum": p.p_hat,
        "m": grid.m,
        "D": grid.D,
        "nbhd_size": grid.nbhd_size,
        "tau_s": grid.tau_s,
        "mu_s": grid.mu_s,
        "p_hat": scales.p_hat,
        "q": scales.q,
        "w": scales.w,
        "M": scales.M,
        "n_a": scales.n_a,
        "n_z": scales.n_z,
        "n_alpha": scales.n_alpha,
        "n_beta": scales.n_beta,
        "n_gamma": scales.n_gamma,
        "xi": scales.xi,
    }


def _write_svg(path: Path, w: int, h: int, parts: list):
    """Write a w x h SVG document on a white ground with `parts` as its body,
    one element string a line."""
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n'
    )
    path.write_text("\n".join([header, *parts, "</svg>\n"]))


def _svg_histogram(values, title: str, path: Path, bins: int = 30):
    values = np.asarray(values, dtype=float)
    W, H, pad = 640, 400, 45
    parts = []
    if len(values):
        hist, edges = np.histogram(values, bins=bins)
        top = max(1, hist.max())
        bw = (W - 2 * pad) / bins
        for i, c in enumerate(hist):
            bh = (H - 2 * pad) * c / top
            x = pad + i * bw
            parts.append(
                f'<rect x="{x:.2f}" y="{H - pad - bh:.2f}" width="{bw * 0.92:.2f}" '
                f'height="{bh:.2f}" fill="#4878a8"/>'
            )
        parts.append(
            f'<text x="{pad}" y="{H - pad + 16}" font-size="11">{edges[0]:.4g}</text>'
            f'<text x="{W - pad - 40}" y="{H - pad + 16}" font-size="11">{edges[-1]:.4g}</text>'
        )
    parts.append(f'<text x="{pad}" y="20" font-size="14">{title}</text>')
    parts.append(
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>'
    )
    _write_svg(path, W, H, parts)


def _svg_heatmap(cfg_counts, grid, highlight, title: str, path: Path):
    """Cell-count heatmap (d=2) or top-cell strip (other d), highlight outlined."""
    W, H, pad = 640, 640, 40
    parts = [f'<text x="{pad}" y="20" font-size="14">{title}</text>']
    hl = _cell_set(highlight, grid)
    if grid.norm.dim == 2 and grid.m <= 256:
        m = grid.m
        lat = cfg_counts.reshape(grid.shape)
        top = max(1, int(lat.max()))
        cw = (W - 2 * pad) / m
        for i in range(m):
            for j in range(m):
                v = int(lat[i, j])
                if v == 0:
                    continue
                shade = 255 - int(200 * v / top)
                parts.append(
                    f'<rect x="{pad + j * cw:.2f}" y="{pad + i * cw:.2f}" '
                    f'width="{cw:.2f}" height="{cw:.2f}" '
                    f'fill="rgb({shade},{shade},255)"/>'
                )
        for i, j in _index_rows(hl, grid.shape).tolist():
            parts.append(
                f'<rect x="{pad + j * cw:.2f}" y="{pad + i * cw:.2f}" '
                f'width="{cw:.2f}" height="{cw:.2f}" fill="none" '
                f'stroke="red" stroke-width="1.5"/>'
            )
    else:
        order = _top_cells(cfg_counts, 50)
        top = max(1, int(cfg_counts[order[0]]))
        bw = (W - 2 * pad) / len(order)
        marked = _in_sorted(order, hl)
        for k, f in enumerate(order):
            v = int(cfg_counts[f])
            bh = (H - 2 * pad) * v / top
            color = "red" if marked[k] else "#4878a8"
            parts.append(
                f'<rect x="{pad + k * bw:.2f}" y="{H - pad - bh:.2f}" '
                f'width="{bw * 0.9:.2f}" height="{bh:.2f}" fill="{color}"/>'
            )
    _write_svg(path, W, H, parts)


def _svg_lineplot(xs, series, ref, title: str, path: Path):
    """series: list of (label, ys); ref: horizontal reference value or None."""
    W, H, pad = 640, 400, 50
    allv = [v for _, ys in series for v in ys] + ([ref] if ref is not None else [])
    finite = [v for v in allv if math.isfinite(v)]
    lo, hi = min(finite, default=0.0), max(finite, default=0.0)
    span = (hi - lo) or 1.0
    lo -= 0.1 * span
    hi += 0.1 * span
    x0, x1 = min(xs), max(xs)
    xspan = (x1 - x0) or 1.0

    def X(x):
        return pad + (W - 2 * pad) * (x - x0) / xspan

    def Y(v):
        return H - pad - (H - 2 * pad) * (v - lo) / (hi - lo)

    parts = [f'<text x="{pad}" y="20" font-size="14">{title}</text>']
    colors = ["#4878a8", "#a84848", "#48a860", "#7848a8"]
    for k, (label, ys) in enumerate(series):
        pts = " ".join(f"{X(x):.1f},{Y(v):.1f}" for x, v in zip(xs, ys) if math.isfinite(v))
        c = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{c}" stroke-width="2"/>')
        parts.append(
            f'<text x="{W - pad - 150}" y="{30 + 14 * k}" font-size="11" fill="{c}">{label}</text>'
        )
    if ref is not None and math.isfinite(ref):
        parts.append(
            f'<line x1="{pad}" y1="{Y(ref):.1f}" x2="{W - pad}" y2="{Y(ref):.1f}" '
            f'stroke="gray" stroke-dasharray="5,4"/>'
        )
    parts.append(
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>'
    )
    _write_svg(path, W, H, parts)


# ---------------------------------------------------------------------------
# subcommands


def cmd_grid_info(cfg: RunConfig, grid, scales, input_dir) -> tuple:
    derived = _derived_quantities(cfg.params, grid, scales)
    out = cfg.output_dir / "derived.json"
    out.write_text(json.dumps(derived, indent=2, sort_keys=True))
    width = max(len(k) for k in derived)
    for k in sorted(derived):
        print(f"{k:<{width}}  {derived[k]}")
    return 0, [out]


def cmd_simulate(cfg: RunConfig, grid, scales, input_dir) -> tuple:
    p = cfg.params

    def one(k):
        ps = sample_ppp(p.n, p.norm, cfg.seed, replica=k)
        return k, len(ps), edge_count(ps, p.r, p.norm)

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        rows = sorted(pool.map(one, range(cfg.replicas)))
    csv = cfg.output_dir / "simulate.csv"
    csv.write_text(
        "replica,vertices,edges\n" + "".join(f"{k},{v},{e}\n" for k, v, e in rows)
    )
    svg = cfg.output_dir / "edge_histogram.svg"
    _svg_histogram(
        [e for _, _, e in rows],
        f"edge count over {cfg.replicas} replicas (mu={p.mu:.4g})",
        svg,
    )
    print(f"simulate: {cfg.replicas} replicas -> {csv}")
    return 0, [csv, svg]


def cmd_condition(cfg: RunConfig, grid, scales, input_dir) -> tuple:
    """Exits 3 when rejection sampling accepts nothing within its budget."""
    files = []
    profiles = []
    if cfg.method == "rejection":
        threshold = (1.0 + cfg.delta_tilde) * grid.mu_s
        accepted = 0
        for X, _, edges in _replicas(grid, cfg.seed, cfg.budget):
            for k in np.flatnonzero(edges >= threshold):
                if accepted < 50:
                    c = CellConfig(X[k], grid)
                    f = cfg.output_dir / f"accepted_{accepted:04d}.csv"
                    f.write_text(dump_config_csv(c))
                    files.append(f)
                    profiles.append(localization_profile(c, grid, scales))
                accepted += 1
        rate = accepted / cfg.budget
        summary = {"method": "rejection", "acceptance_rate": rate, "accepted": accepted}
        if not accepted:
            summary["status"] = "no acceptances within budget"
    elif cfg.method == "planted":
        if cfg.replicas < 1:
            raise ConfigError("condition needs sampler.replicas >= 1")
        kept = 0
        log_weights = []
        for k in range(cfg.replicas):
            ws = planted_cell_sampler(grid, cfg.t, cfg.seed, replica=k)
            log_weights.append(ws.log_weight)
            if kept < 50:
                f = cfg.output_dir / f"planted_{k:04d}.csv"
                f.write_text(dump_config_csv(ws.config))
                files.append(f)
                kept += 1
            profiles.append(localization_profile(ws.config, grid, scales))
        summary = {
            "method": "planted",
            "replicas": cfg.replicas,
            "mean_log_weight": float(np.mean(log_weights)),
        }
    else:
        raise ConfigError(f"unknown conditioning method {cfg.method!r}")
    prof = cfg.output_dir / "profiles.json"
    prof.write_text(json.dumps({"summary": summary, "profiles": profiles}, sort_keys=True))
    files.append(prof)
    print(f"condition: {summary}")
    return (3 if cfg.method == "rejection" and not accepted else 0), files


def cmd_extract(cfg: RunConfig, grid, scales, input_dir) -> tuple:
    """Certify stored or freshly sampled configs one at a time: each config and
    its report are dropped once the report is written to `thm2_reports.json`,
    and only the first config is kept, for the heatmap."""
    if input_dir:
        paths = [
            f
            for f in sorted(Path(input_dir).glob("*.csv"))
            if f.name.startswith(("accepted_", "planted_"))
        ]
        if not paths:
            raise ConfigError(f"no stored sample CSVs under {input_dir}")
        configs = ((f.stem, load_config_csv(f.read_text(), grid)) for f in paths)
    elif cfg.replicas < 1:
        raise ConfigError("extract needs sampler.replicas >= 1 or --input")
    else:
        configs = (
            (f"planted_{k:04d}", planted_cell_sampler(grid, cfg.t, cfg.seed, replica=k).config)
            for k in range(cfg.replicas)
        )
    rep_file = cfg.output_dir / "thm2_reports.json"
    nrep = npass = 0
    with rep_file.open("w") as out:
        out.write("[\n")
        for name, c in configs:
            rep = certify_thm2(c, grid, scales, cfg.eps_tilde)
            if not nrep:
                name0, counts0, frakP0 = name, c.counts, rep.frakP
            out.write((",\n" if nrep else "") + rep.to_json())
            nrep += 1
            npass += rep.thm2_pass
        out.write("\n]\n")
    svg = cfg.output_dir / "localization_heatmap.svg"
    _svg_heatmap(counts0, grid, frakP0, f"cell counts with extracted set ({name0})", svg)
    print(f"extract: {npass}/{nrep} pass localization at eps_tilde={cfg.eps_tilde}")
    return 0, [rep_file, svg]


def cmd_tail(cfg: RunConfig, grid, scales, input_dir) -> tuple:
    """Estimate the tail on the lattice of each sweep n, at the config's p_hat."""
    p0 = cfg.params
    sweep = cfg.n_sweep or [p0.n]
    rows = []
    p_hat_target = p0.p_hat
    for n in sweep:
        params = params_for_p_hat(n, p_hat_target, p0.norm, p0.delta_star)
        grid = build_grid(params, cfg.s)
        est = importance_estimate_tail(grid, cfg.t, cfg.replicas, cfg.seed)
        sb = sandwich_bounds(params, grid, cfg.t, cfg.eps)
        val, err = normalized_log_tail(est, params.mu, n)
        lo, hi = sb.normalized(params.mu, n)
        rows.append((n, params.r, sb.lower_log, sb.upper_log, lo, hi, val, err,
                     est.ess, est.n_hits, int(est.unreliable)))
    csv = cfg.output_dir / "ldp_table.csv"
    csv.write_text(
        "n,r,lower_log,upper_log,normalized_lower,normalized_upper,"
        "normalized_estimate,normalized_err,ess,n_hits,unreliable\n"
        + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows
        )
    )
    ref = -rate_function(cfg.t, p_hat_target)
    svg = cfg.output_dir / "ldp_convergence.svg"
    _svg_lineplot(
        [math.log10(r[0]) for r in rows],
        [
            ("normalized lower", [r[4] for r in rows]),
            ("normalized upper", [r[5] for r in rows]),
            ("estimate", [r[6] for r in rows]),
        ],
        ref,
        f"normalized log-tail vs log10 n (dashed: -I({cfg.t:g}) = {ref:.5f})",
        svg,
    )
    for row in rows:
        print(
            f"n={row[0]:g} normalized estimate {row[6]:.4f} in [{row[4]:.4f}, {row[5]:.4f}]"
        )
    return 0, [csv, svg]


def cmd_verify(cfg: RunConfig, grid, scales, input_dir) -> tuple:
    """Desk-scale self-checks; writes a pass/fail report, exits 1 on failure."""
    p = cfg.params
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": str(detail)})

    # edge-count oracle agreement on a few instances
    ok = True
    for k in range(5):
        ps = sample_ppp(min(p.n, 500.0), p.norm, cfg.seed, replica=k)
        if edge_count(ps, p.r, p.norm) != edge_count_bruteforce(ps, p.r, p.norm):
            ok = False
    check("edge_count_oracle", ok)
    # continuum vs graded edge bound
    ps = sample_ppp(min(p.n, 2000.0), p.norm, cfg.seed, replica=101)
    ce = edge_count(ps, p.r, p.norm)
    ge = sgraded_edge_count(coarsen(ps, grid))
    check("graded_dominates", ce <= ge, f"{ce} <= {ge}")
    check("mu_le_mu_s", p.mu <= grid.mu_s, f"{p.mu} <= {grid.mu_s}")
    check(
        "clique_lower_bound",
        grid.num_cells * p.tau <= grid.tau_s,
        f"{grid.num_cells * p.tau} <= {grid.tau_s}",
    )
    # Chernoff domination on a small grid
    ok = True
    for D in (0.5, 1.0, 5.0):
        for mult in (1.5, 3.0):
            ok &= poisson_tail_bound(D, D * mult, "upper") >= exact_poisson_tail(
                D, D * mult, "upper"
            )
    check("chernoff_dominates", ok)
    # determinism of a sampled config
    c1 = sample_cell_config(grid, cfg.seed, replica=0)
    c2 = sample_cell_config(grid, cfg.seed, replica=0)
    check("determinism", bool((c1.counts == c2.counts).all()))
    rep = cfg.output_dir / "verify_report.json"
    all_pass = all(c["pass"] for c in checks)
    rep.write_text(json.dumps({"pass": all_pass, "checks": checks}, indent=2, sort_keys=True))
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']} {c['detail']}")
    return (0 if all_pass else 1), [rep]


# Each subcommand takes (cfg, grid, scales, input_dir), writes its result
# files into cfg.output_dir and returns (exit code, the files it wrote).
COMMANDS = {
    "grid-info": cmd_grid_info,
    "simulate": cmd_simulate,
    "condition": cmd_condition,
    "extract": cmd_extract,
    "tail": cmd_tail,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rggloc", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--input", default=None, help="stored-sample dir for extract")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
        grid, scales = _model(cfg)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        code, files = COMMANDS[args.command](cfg, grid, scales, args.input)
        _write_manifest(cfg, _derived_quantities(cfg.params, grid, scales), files)
        return code
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        print(f"overflow: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
