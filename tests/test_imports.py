"""Every module-level import in the package is used in its module, and no
function imports from the package itself."""

import ast
from pathlib import Path

import pytest

import rggloc

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
