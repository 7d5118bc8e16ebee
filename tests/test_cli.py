import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rggloc
from rggloc import (
    CellConfig,
    ModelParams,
    Norm,
    build_grid,
    certify_thm2,
    derived_scales,
    localization_profile,
    rejection_conditional,
    sample_cell_config,
)
from rggloc.cli import _svg_heatmap, _svg_lineplot, load_config, main
from rggloc.extract import _top_cells
from rggloc.grid import dump_config_csv, load_config_csv


def _grid_and_scales(run):
    grid = build_grid(run.params, run.s)
    return grid, derived_scales(grid, run.delta_tilde, run.params.delta_star, run.eps_tilde)


def _assert_manifest_lists_outputs(out: Path):
    """manifest.json names every other file in `out`, each with its sha256."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir() if f.name != "manifest.json"
    }


def _write_config(tmp_path, **overrides):
    cfg = {
        "schema": "runconfig.v1",
        "model": {"n": 150, "r": 0.1, "d": 2, "norm": "l2", "delta_star": 0.1},
        "grid": {"s": 5},
        "conditioning": {"delta": 1.0, "delta_tilde": 1.0, "eps": 0.25, "eps_tilde": 0.2},
        "sampler": {"method": "planted", "replicas": 10, "budget": 500, "t": 1.0},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_grid_info_writes_derived(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["grid-info", "--config", str(cfg)]) == 0
    derived = json.loads((tmp_path / "out" / "derived.json").read_text())
    assert derived["m"] == 50
    assert derived["tau_s"] == 32
    assert derived["mu_s"] == pytest.approx(490.5)
    out = capsys.readouterr().out
    assert "tau_s" in out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["schema"] == "manifest.v1"
    assert "derived.json" in manifest["files"]
    _assert_manifest_lists_outputs(tmp_path / "out")


def test_simulate_csv_and_svg(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 5})
    assert main(["simulate", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "simulate.csv").read_text().strip().splitlines()
    assert lines[0] == "replica,vertices,edges"
    assert len(lines) == 6
    svg = (tmp_path / "out" / "edge_histogram.svg").read_text()
    assert svg.startswith("<svg")
    assert "</svg>" in svg
    _assert_manifest_lists_outputs(tmp_path / "out")


def test_simulate_output_does_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RGGLOC_THREADS", threads)
        (tmp_path / threads).mkdir()
        cfg = _write_config(tmp_path / threads)
        assert main(["simulate", "--config", str(cfg)]) == 0
        digests.append(hashlib.sha256((tmp_path / threads / "out" / "simulate.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_condition_planted_profiles(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 4})
    assert main(["condition", "--config", str(cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "profiles.json").read_text())
    assert doc["summary"]["method"] == "planted"
    assert len(doc["profiles"]) == 4
    _assert_manifest_lists_outputs(tmp_path / "out")


def test_condition_defaults_to_planted(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 2})
    doc = json.loads(cfg.read_text())
    del doc["sampler"]["method"]
    cfg.write_text(json.dumps(doc))
    assert main(["condition", "--config", str(cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "profiles.json").read_text())
    assert doc["summary"]["method"] == "planted"


def test_heatmap_strip_breaks_count_ties_by_lower_index(tmp_path):
    # off the d=2 heatmap, extract draws the 50 largest cells as bars, in
    # extract_T's order: count descending, ties to the lower flat index
    grid = build_grid(ModelParams(1e4, 1e-3, Norm("linf", 1)), 3)
    counts = sample_cell_config(grid, seed=7).counts
    rank = np.lexsort((np.arange(counts.size), -counts))
    assert counts[rank[49]] == counts[rank[50]]  # the 50th place is a tie
    assert np.array_equal(_top_cells(counts, 50), rank[:50])
    # even cells are outlined red, so the bar colors spell out which tied
    # cells were drawn and in what order
    svg = tmp_path / "strip.svg"
    _svg_heatmap(counts, grid, [(i,) for i in range(0, grid.m, 2)], "top", svg)
    bars = re.findall(r'height="([0-9.]+)" fill="(red|#4878a8)"', svg.read_text())
    top = counts[rank[0]]  # the tallest bar spans the 640 - 2 * 40 px plot
    assert bars == [
        (f"{560 * counts[f] / top:.2f}", "red" if f % 2 == 0 else "#4878a8") for f in rank[:50]
    ]


def test_extract_from_stored_samples(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 3})
    assert main(["condition", "--config", str(cfg)]) == 0
    out2 = tmp_path / "out2"
    assert (
        main(
            [
                "extract",
                "--config",
                str(cfg),
                "--input",
                str(tmp_path / "out"),
                "--out",
                str(out2),
            ]
        )
        == 0
    )
    reports = json.loads((out2 / "thm2_reports.json").read_text())
    assert len(reports) == 3
    assert all(r["schema"] == "thm2_report.v1" for r in reports)
    assert (out2 / "localization_heatmap.svg").exists()
    # written report by report, the file is the joined list it always was
    run = load_config(str(cfg))
    grid, scales = _grid_and_scales(run)
    joined = ",\n".join(
        certify_thm2(load_config_csv(f.read_text(), grid), grid, scales, run.eps_tilde).to_json()
        for f in sorted((tmp_path / "out").glob("planted_*.csv"))
    )
    assert (out2 / "thm2_reports.json").read_text() == "[\n" + joined + "\n]\n"
    _assert_manifest_lists_outputs(tmp_path / "out")
    _assert_manifest_lists_outputs(out2)


def test_condition_rejection_writes_the_first_50_of_all_acceptances(tmp_path):
    cfg = _write_config(tmp_path, sampler={"method": "rejection", "budget": 200},
                        conditioning={"delta_tilde": 0.01})
    assert main(["condition", "--config", str(cfg)]) == 0
    run = load_config(str(cfg))
    grid, scales = _grid_and_scales(run)
    threshold = (1.0 + run.delta_tilde) * grid.mu_s
    accepted, rate = rejection_conditional(grid, threshold, run.budget, run.seed)
    assert len(accepted) > 50
    out = tmp_path / "out"
    assert sorted(f.name for f in out.glob("accepted_*.csv")) == [f"accepted_{i:04d}.csv" for i in range(50)]
    for i, c in enumerate(accepted[:50]):
        assert (out / f"accepted_{i:04d}.csv").read_text() == dump_config_csv(c)
    summary = {"method": "rejection", "acceptance_rate": rate, "accepted": len(accepted)}
    profiles = [localization_profile(c, grid, scales) for c in accepted[:50]]
    assert (out / "profiles.json").read_text() == json.dumps(
        {"summary": summary, "profiles": profiles}, sort_keys=True
    )
    _assert_manifest_lists_outputs(out)


def _run_cli(*args, **environ) -> subprocess.CompletedProcess:
    """`python -m rggloc.cli *args` in a child process on this checkout's
    package, with `environ` added to the environment."""
    src = str(Path(rggloc.__file__).resolve().parent.parent)
    env = {**os.environ, **environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "rggloc.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def _dispatch_targets_above_baseline() -> list:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(f) and f not in umath.__cpu_baseline__]


def _tied_strip_input(tmp_path) -> tuple:
    """A d = 1 config and a stored sample for `extract --input` whose top-cell
    strip holds 20 cells tied at count 10, of which frakT, and so the red
    outline, takes only the lowest 8: the bar colours show the tie order."""
    (tmp_path / "strip").mkdir()
    cfg = _write_config(tmp_path / "strip", model={"d": 1, "norm": "linf"})
    run = load_config(str(cfg))
    grid = build_grid(run.params, run.s)
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 4, grid.num_cells)
    counts[rng.choice(grid.num_cells, 20, replace=False)] = 10
    stored = tmp_path / "strip" / "in"
    stored.mkdir()
    (stored / "planted_0000.csv").write_text(dump_config_csv(CellConfig(counts, grid)))
    return cfg, stored


def test_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # every SIMD kernel numpy can pick above its baseline, on and off, and
    # OpenBLAS's Haswell kernels in place of the one it picks for this CPU;
    # tail needs 100 replicas; the d = 2 config draws the heatmap, so a d = 1
    # stored sample runs extract through the top-cell strip
    cfg = _write_config(tmp_path, sampler={"replicas": 100})
    strip_cfg, strip_input = _tied_strip_input(tmp_path)
    runs = [(sub, "--config", str(cfg)) for sub in ("condition", "extract", "tail", "verify")]
    runs.append(("extract", "--config", str(strip_cfg), "--input", str(strip_input)))
    disabled = " ".join(_dispatch_targets_above_baseline())
    digests = []
    for environ in ({}, {"NPY_DISABLE_CPU_FEATURES": disabled, "OPENBLAS_CORETYPE": "Haswell"}):
        files = {}
        for k, args in enumerate(runs):
            out = tmp_path / f"{k}-{args[0]}-{len(environ)}"
            proc = _run_cli(*args, "--out", str(out), **environ)
            assert proc.returncode == 0, proc.stderr
            files.update({f"{k}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
                          for f in out.iterdir() if f.name != "manifest.json"})
        digests.append(files)
    svg = (tmp_path / "4-extract-0" / "localization_heatmap.svg").read_text()
    assert 'fill="red"' in svg and 'height="560.00" fill="#4878a8"' in svg
    assert len(digests[0]) > 4
    assert digests[0] == digests[1]


def test_extract_with_nothing_to_certify_is_a_config_error(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 0})
    proc = _run_cli("extract", "--config", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr + proc.stdout


def test_extract_overflow_exits_4(tmp_path):
    # 2^32 points in one cell: its pair count C(2^32, 2) is past int64's exact range
    cfg = _write_config(tmp_path)
    stored = tmp_path / "stored"
    stored.mkdir()
    (stored / "planted_0000.csv").write_text(f"i0,i1,count\n3,4,{2**32}\n")
    proc = _run_cli("extract", "--config", str(cfg), "--input", str(stored))
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("overflow:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr + proc.stdout


def test_tail_table_reports_estimator_health(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 100})
    assert main(["tail", "--config", str(cfg)]) == 0
    header, row = (tmp_path / "out" / "ldp_table.csv").read_text().splitlines()
    assert header.split(",")[-4:] == ["normalized_err", "ess", "n_hits", "unreliable"]
    ess, n_hits, unreliable = row.split(",")[-3:]
    assert 0.0 < float(ess) <= int(n_hits) <= 100
    assert unreliable == str(int(float(ess) < 10.0))
    _assert_manifest_lists_outputs(tmp_path / "out")


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path, sampler={"replicas": 3})
    outa, outb = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(outa), "--seed", "99"])
    main(["simulate", "--config", str(cfg), "--out", str(outb)])
    assert (outa / "simulate.csv").read_text() != (outb / "simulate.csv").read_text()


def test_config_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["grid-info", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {"n": 100, "d": 2, "norm": "l2"}}')  # no r / p_target
    assert main(["grid-info", "--config", str(bad)]) == 2
    both = tmp_path / "both.json"
    both.write_text(
        '{"model": {"n": 100, "d": 2, "norm": "l2", "r": 0.1, "p_target": 1.0}}'
    )
    assert main(["grid-info", "--config", str(both)]) == 2
    # a top level or a section that is not a JSON object
    for doc in ("[1]", '"model"', '{"model": [1]}',
                '{"model": {"n": 100, "d": 2, "norm": "l2", "r": 0.1}, "sampler": 5}'):
        bad.write_text(doc)
        assert main(["grid-info", "--config", str(bad)]) == 2, doc
    assert capsys.readouterr().err.count("config error:") == 7


@pytest.mark.parametrize("model,top,where", [
    ({"n": None}, {}, "model.n has the wrong JSON type: null"),
    ({}, {"grid": {"s": [5]}}, "grid.s has the wrong JSON type: [5]"),
    ({"n_sweep": 1000}, {}, "model.n_sweep has the wrong JSON type: 1000"),
    ({}, {"output_dir": 5}, "output_dir has the wrong JSON type: 5"),
    # an integer field takes no fraction, bool or string, and a real field no
    # bool or string: each would run as its floor, 1 / 0 or its parse
    ({"d": 1.9}, {}, "model.d has the wrong JSON type: 1.9"),
    ({}, {"grid": {"s": 5.7}}, "grid.s has the wrong JSON type: 5.7"),
    ({}, {"sampler": {"replicas": True}}, "sampler.replicas has the wrong JSON type: true"),
    ({}, {"sampler": {"budget": "500"}}, 'sampler.budget has the wrong JSON type: "500"'),
    ({}, {"seed": 1.5}, "seed has the wrong JSON type: 1.5"),
    ({"r": "0.1"}, {}, 'model.r has the wrong JSON type: "0.1"'),
    ({}, {"sampler": {"t": False}}, "sampler.t has the wrong JSON type: false"),
    ({"n_sweep": [1000, "1e4"]}, {}, 'model.n_sweep has the wrong JSON type: [1000, "1e4"]'),
    # a real field takes no NaN, infinity or integer past float range: NaN ran
    # on to a manifest with p_hat NaN, and 10^400 ended in exit 4 (overflow)
    ({"n": math.nan}, {}, "model.n has the wrong JSON type: NaN"),
    ({"n": math.inf}, {}, "model.n has the wrong JSON type: Infinity"),
    ({"n": 10**400}, {}, f"model.n has the wrong JSON type: {10**400}"),
    ({"delta_star": math.nan}, {}, "model.delta_star has the wrong JSON type: NaN"),
    ({}, {"conditioning": {"eps_tilde": math.nan}}, "conditioning.eps_tilde has the wrong JSON type: NaN"),
])
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, model, top, where):
    # float(None), int([5]), iterating 1000 and Path(5) raise TypeError,
    # which must not end in a traceback and exit 1, the verification-failure code
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"n": 100, "d": 2, "norm": "l2", "r": 0.1, **model}, **top}))
    assert main(["grid-info", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {where}\n"


def test_condition_planted_with_no_replicas_is_a_config_error(tmp_path, capsys):
    # the mean log weight of no replicas would be NaN, which is not JSON
    cfg = _write_config(tmp_path, sampler={"replicas": 0})
    assert main(["condition", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out" / "profiles.json").exists()


def test_lineplot_leaves_non_finite_points_out(tmp_path):
    # a sweep n with no hits has a normalized estimate of -inf
    svg = tmp_path / "plot.svg"
    _svg_lineplot([3.0, 4.0, 5.0], [("estimate", [-0.5, float("-inf"), float("nan")]),
                                    ("bound", [-0.7, -0.6, -0.65])], -0.7, "t", svg)
    text = svg.read_text()
    assert "nan" not in text and "inf" not in text
    lines = re.findall(r'<polyline points="([^"]*)"', text)
    assert [len(pts.split()) for pts in lines] == [1, 3]


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        sampler={"method": "rejection", "budget": 50},
        conditioning={"delta_tilde": 8.0},
    )
    assert main(["condition", "--config", str(cfg)]) == 3
    capsys.readouterr()
    _assert_manifest_lists_outputs(tmp_path / "out")


def test_condition_with_no_budget_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, sampler={"method": "rejection", "budget": 0})
    assert main(["condition", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_verify_reproducible_and_green(tmp_path):
    cfg = _write_config(tmp_path)
    outa, outb = tmp_path / "va", tmp_path / "vb"
    assert main(["verify", "--config", str(cfg), "--out", str(outa)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(outb)]) == 0
    assert (outa / "verify_report.json").read_bytes() == (
        outb / "verify_report.json"
    ).read_bytes()
    ma = json.loads((outa / "manifest.json").read_text())
    mb = json.loads((outb / "manifest.json").read_text())
    ma.pop("timestamp")
    mb.pop("timestamp")
    assert ma == mb
    _assert_manifest_lists_outputs(outa)
