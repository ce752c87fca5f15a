"""Static checks on the package sources."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import heatprop

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "heatprop"
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
# each module may import only the modules before it
LAYER_ORDER = ("errors", "graph", "solver", "classify", "blockmodel", "experiments", "io", "datasets", "cli")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n\nprint(np.pi, a)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def layering_violations(module: str, source: str, order=LAYER_ORDER) -> list[str]:
    """Package modules that ``module`` imports (at any depth, function-level
    imports included) but that do not come before it in ``order``."""
    targets = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
            targets += [(name, node.lineno) for name in names]
    rank = order.index(module)
    # names that are not modules (`from . import __version__`) come from __init__
    return [
        f"{name} (line {line})"
        for name, line in targets
        if (PACKAGE_DIR / f"{name}.py").exists() and (name not in order or order.index(name) >= rank)
    ]


def test_layering_violations_detected():
    source = "from .cli import main\nfrom .errors import E\n\ndef f():\n    from .io import x\n"
    assert layering_violations("graph", source) == ["cli (line 1)", "io (line 5)"]
    assert layering_violations("datasets", source) == ["cli (line 1)"]


def test_layer_order_lists_every_module():
    assert sorted(LAYER_ORDER) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_follow_layer_order(path):
    assert layering_violations(path.stem, path.read_text(encoding="utf-8")) == []


def np_unique_calls(source: str) -> list[str]:
    """Calls of ``np.unique`` / ``numpy.unique``, by line.

    numpy 2.x de-duplicates integer arrays by hashing: 2.75 ms on 12.5k
    int64 entries and 20.5 ms on 55k, against 0.15 and 0.73 ms for the one
    sort and mask of ``graph._sorted_unique`` (numpy 2.4.6, one thread of an
    Intel Xeon). The package uses that helper instead.
    """
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


def test_np_unique_calls_detected():
    source = "import numpy as np\nx = np.unique([1])\ny = np.sort(x)\nz = numpy.unique(x)\n"
    assert np_unique_calls(source) == ["line 2", "line 4"]


SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_np_unique_calls(path):
    assert np_unique_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", LAYER_ORDER)
def test_module_bound_under_its_name(name):
    # a re-export named like its module would shadow the module
    module = importlib.import_module(f"heatprop.{name}")
    assert isinstance(getattr(heatprop, name), types.ModuleType)
    assert getattr(heatprop, name) is module


def test_all_lists_the_imported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert len(set(heatprop.__all__)) == len(heatprop.__all__)
    assert set(heatprop.__all__) == imported


REFERENCE_SOLVERS = ("solve_exact", "jacobi_sweep")


def reference_solver_calls(source: str) -> list[str]:
    """Calls of the reference solvers ``solve_exact`` and ``jacobi_sweep``,
    by plain name or as a module attribute, by line.

    Every package path solves with ``solve_iterative``; the references stay
    in ``solver.py`` only for the tests to compare against.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in REFERENCE_SOLVERS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_reference_solver_calls_detected():
    source = (
        "from .solver import solve_exact\nx = solve_exact(p)\n"
        "y = solver.jacobi_sweep(g, m, t, u)\nz = solve_iterative(p)\n"
    )
    assert reference_solver_calls(source) == ["solve_exact (line 2)", "jacobi_sweep (line 3)"]


CALLERS = [p for p in SOURCES if p.name != "solver.py"]


@pytest.mark.parametrize("path", CALLERS, ids=[p.name for p in CALLERS])
def test_one_solver_in_every_path(path):
    assert reference_solver_calls(path.read_text(encoding="utf-8")) == []
