"""Every module-level import in the package is used in its module, every
`RunConfig` field is read by the CLI, the grid, clique and sample types store
no derived fields, no function imports from the package itself, and neither
importing the CLI, counting continuum edges nor certifying a continuum
sample loads scipy."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rggloc
from rggloc.grid import CliqueResult, GridModel
from rggloc.sampling import WeightedSample

MODULES = sorted(
    p for p in Path(rggloc.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_check_sees_unused_names():
    src = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, loads)\n"
    assert _unused_imports(src) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unread_fields(source: str, cls: str, var: str = "cfg") -> list:
    """The annotated fields of class `cls` that `source` never reads as `var.<field>`."""
    tree = ast.parse(source)
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    read = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name) and n.value.id == var
    }
    return [n.target.id for n in body if isinstance(n, ast.AnnAssign) and n.target.id not in read]


def test_unread_field_check_sees_unread_fields():
    src = "class C:\n    a: int\n    b: int\n    c: int\ndef f(cfg, x):\n    cfg.c = x.b\n    return cfg.a\n"
    assert _unread_fields(src, "C") == ["b", "c"]


def test_every_run_config_field_is_read_by_the_cli():
    assert _unread_fields((Path(rggloc.__file__).parent / "cli.py").read_text(), "RunConfig") == []


@pytest.mark.parametrize(
    "cls, names",
    [
        (GridModel, ("s", "m", "n", "r", "norm", "clique_offsets")),
        (CliqueResult, ("members",)),
        (WeightedSample, ("config", "log_weight", "anchor")),
    ],
    ids=["GridModel", "CliqueResult", "WeightedSample"],
)
def test_derived_values_are_not_stored_fields(cls, names):
    # D, nbhd_size, tau_s, size, exact and component are derived, not stored
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


def _function_local_package_imports(source: str) -> list:
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    })


def test_function_local_import_check_sees_package_imports():
    src = "import os\ndef f():\n    import json\n    from .grid import x\n    def g():\n        from . import rng\n"
    assert _function_local_package_imports(src) == [4, 6]


@pytest.mark.parametrize(
    "path", sorted(Path(rggloc.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_function_local_package_imports(path):
    assert _function_local_package_imports(path.read_text()) == []


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(rggloc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


_NO_SCIPY = "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\nassert not loaded, loaded"


def test_cli_import_leaves_scipy_spatial_unloaded():
    # numpy is the only runtime dependency: neither importing the CLI nor a
    # continuum edge count (a sorted cell list, no kd-tree) loads any scipy module
    code = "\n".join([
        "import sys",
        "import rggloc.cli",
        "assert 'scipy.spatial' not in sys.modules, 'imported with rggloc.cli'",
        "from rggloc import Norm, edge_count, edge_count_bruteforce, sample_ppp",
        "norm = Norm('l2', 2)",
        "ps = sample_ppp(400.0, norm, seed=5)",
        "assert edge_count(ps, 0.1, norm) == edge_count_bruteforce(ps, 0.1, norm) > 0",
        _NO_SCIPY,
    ])
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_certify_thm1_leaves_scipy_spatial_unloaded():
    # the continuum certificate counts points without a kd-tree or any scipy module
    code = "\n".join([
        "import sys",
        "from rggloc import Norm, certify_thm1, params_for_p_hat, planted_continuum_sampler",
        "params = params_for_p_hat(2000.0, 1.0, Norm('l2', 2))",
        "ps = planted_continuum_sampler(params, delta=1.0, seed=23)",
        "assert certify_thm1(ps, params, delta=1.0, eps=0.25).clause_a_pass_SA",
        _NO_SCIPY,
    ])
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
