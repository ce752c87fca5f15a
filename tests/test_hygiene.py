"""Static checks on the package sources."""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import heatprop
from heatprop.cli import main
from heatprop.datasets import load_bundle
from heatprop.io import write_edge_list

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


TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES]
)
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


# at most this many lines in the package sources, as `wc -l src/heatprop/*.py` counts them
LINE_BUDGET = 2_606


def test_package_within_line_budget():
    assert sum(path.read_text(encoding="utf-8").count("\n") for path in SOURCES) <= LINE_BUDGET


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


PERFBENCH_DIR = PACKAGE_DIR.parent.parent / "perfbench"

def public_definitions(source: str) -> list[str]:
    """Public module-level functions and constants, and public methods of
    module-level classes (as ``Class.method``), in definition order."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found.append(node.name)
        elif isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in found if not name.rsplit(".", 1)[-1].startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Names a source reads, as a plain name or an attribute, plus the parts
    of string constants that are dotted names (perfbench hooks functions by
    ``"module.function"``). A ``def`` does not read its own name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                found.update(node.value.split("."))
    return found


def unreferenced_definitions(source: str, referenced: set[str]) -> list[str]:
    """Public definitions of ``source`` whose (method) name is not in ``referenced``."""
    return [name for name in public_definitions(source) if name.rsplit(".", 1)[-1] not in referenced]


def test_unreferenced_definitions_detected():
    defining = (
        "LIMIT = 3\nSPARE = 4\n_CACHE = {}\n\n\ndef used():\n    pass\n\n\ndef hooked():\n    pass\n\n\n"
        "def spare():\n    return spare()\n\n\nclass A:\n    def run(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n\n    def old(self):\n        pass\n"
    )
    assert public_definitions(defining) == ["LIMIT", "SPARE", "used", "hooked", "spare", "A.run", "A.old"]
    reading = 'used(LIMIT)\nA().run()\nHOOKS = ("mod.hooked",)\n"""old, spare"""\nprint("old is gone")\n'
    assert unreferenced_definitions(defining, referenced_names(reading)) == ["SPARE", "spare", "A.old"]


# only package code and perfbench count: a name or a setting that only tests
# use does not belong in the package; __init__ only re-exports
READERS = [p for p in SOURCES if p.name != "__init__.py"]
READERS += [p for p in sorted(PERFBENCH_DIR.rglob("*.py")) if "tests" not in p.relative_to(PERFBENCH_DIR).parts]


def test_every_public_definition_is_named():
    referenced = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in READERS))
    unreferenced = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in unreferenced_definitions(path.read_text(encoding="utf-8"), referenced)
    ]
    assert unreferenced == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` for each defaulted parameter of
    the functions and methods a source defines, nested ones included. A
    method's positions start after ``self``/``cls``; a keyword-only
    parameter has no position."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                if in_class and positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                found.extend((node.name, a.arg, i) for i, a in enumerate(positional) if i >= first)
                found.extend((node.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
                visit(node.body, False)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, True)

    visit(ast.parse(source).body, False)
    return found


def set_arguments(source: str) -> set[tuple[str, str | int]]:
    """``(callee, keyword)`` and ``(callee, position)`` for each argument the
    calls of a source pass, the callee by its bare name. A ``*`` or ``**``
    argument sets nothing it can name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                found.add((callee, i))
            found.update((callee, kw.arg) for kw in node.keywords if kw.arg)
    return found


def unset_parameters(source: str, set_by_calls: set) -> list[str]:
    """``function(parameter, ...)`` for each function of ``source`` with
    defaulted parameters that no call in ``set_by_calls`` sets, by keyword
    or by position."""
    unset = {}
    for function, name, position in defaulted_parameters(source):
        if (function, name) not in set_by_calls and (function, position) not in set_by_calls:
            unset.setdefault(function, []).append(name)
    return [f"{function}({', '.join(names)})" for function, names in unset.items()]


def test_unset_parameters_detected():
    defining = (
        "def f(a, b=1, c=2, *, d=3, e=None):\n    def inner(x=0):\n        pass\n\n\n"
        "class A:\n    def m(self, y=1, z=2):\n        pass\n\n    @staticmethod\n    def s(y=1):\n        pass\n"
    )
    assert defaulted_parameters(defining) == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("f", "e", None), ("inner", "x", 0),
        ("m", "y", 0), ("m", "z", 1), ("s", "y", 0),
    ]
    calling = "f(0, 1, e=4)\nobj.m(5)\nA.s(*args, **options)\nm(z=6)\n"
    assert set_arguments(calling) == {("f", 0), ("f", 1), ("f", "e"), ("m", 0), ("m", "z")}
    assert unset_parameters(defining, set_arguments(calling)) == ["f(c, d)", "inner(x)", "s(y)"]


def test_every_defaulted_parameter_is_set():
    # a setting that no flag, config key or perfbench call can change is a
    # constant, not a parameter
    set_by_calls = set().union(*(set_arguments(p.read_text(encoding="utf-8")) for p in READERS))
    unset = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in unset_parameters(path.read_text(encoding="utf-8"), set_by_calls)
    ]
    assert unset == []


TESTS_DIR = Path(__file__).resolve().parent
REFERENCE = TESTS_DIR / "reference.py"
REFERENCE_NAMES = public_definitions(REFERENCE.read_text(encoding="utf-8"))


def reference_uses(source: str, names=REFERENCE_NAMES) -> list[str]:
    """Which of ``names`` a source defines (by ``def``, ``class`` or
    assignment), imports, or reads (see ``referenced_names``)."""
    found = referenced_names(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(name for alias in node.names for name in (alias.name, alias.asname) if name)
    return sorted(set(names) & found)


def test_reference_uses_detected():
    source = (
        "from .solver import solve_exact as exact\nLIMIT = 3\n\n\ndef sweep():\n    pass\n\n\n"
        'x = g.dense(t)\n__all__ = ["table"]\n"""spare, in prose"""\n'
    )
    names = ("solve_exact", "exact", "LIMIT", "sweep", "dense", "table", "spare", "absent")
    assert reference_uses(source, names) == ["LIMIT", "dense", "exact", "solve_exact", "sweep", "table"]


def test_reference_defines_the_dense_references():
    assert {"solve_exact", "jacobi_sweep", "dense_adjacency"} <= set(REFERENCE_NAMES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_solver_in_every_path(path):
    # every package path solves with solve_iterative; the dense references
    # live in tests/reference.py only
    assert reference_uses(path.read_text(encoding="utf-8")) == []


def reference_imports(source: str) -> set[str]:
    """Names a source imports from the ``reference`` test module."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "reference"
        for alias in node.names
    }


def test_every_reference_is_imported_by_a_test():
    imported = set().union(*(reference_imports(p.read_text(encoding="utf-8")) for p in TESTS_DIR.glob("test_*.py")))
    assert [name for name in REFERENCE_NAMES if name not in imported] == []


def function_names(source: str, module: str) -> list[str]:
    """Every function and method a source defines, by the qualified name
    its code object carries (``module.Class.method``, ``module.f.<locals>.g``)."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                found.append(prefix + node.name)
                visit(node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, f"{module}.")
    return found


def test_function_names_detected():
    source = "def f():\n    def g():\n        pass\n\n\nclass A:\n    def m(self):\n        x = lambda: 0\n"
    assert function_names(source, "mod") == ["mod.f", "mod.f.<locals>.g", "mod.A.m"]


def entered_functions(run) -> set[str]:
    """Qualified names of the package functions entered while ``run()`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    package = Path(heatprop.__file__).parent
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes if Path(c.co_filename).parent == package}


# defined for perfbench only: the package never calls them
PERFBENCH_ONLY = {
    "graph.Graph.num_edges": "perfbench's build_graph hook counts the edges of each graph with it",
    "graph.BlockGraph.indices": "perfbench's transition_apply hook counts the stored entries of each graph with it",
    "solver.residual": "perfbench's solve hook measures the true defect of each returned field with it",
}


def run_entry_points(tmp: Path):
    """The command line over the small bundled configs, each subcommand and
    the error inputs that reach their own code, plus ``write_edge_list``."""
    for name in ("fig2a-small", "karate-uniform", "blocks2-uniform", "blocks3-uniform", "lemma-grid"):
        assert main(["bench", "--config", name, "--out-dir", str(tmp / name)]) == 0
    # a directed, weighted 3-cycle in both directions, ids longer than one
    # 64-bit word and a two-character delimiter
    edges, labels, seeds = tmp / "g.edges", tmp / "g.labels", tmp / "karate.seeds"
    ids = [f"node-{c}-with-a-long-id" for c in "abc"]
    edges.write_text("".join(f"{u}::{v}::1.5\n{v}::{u}::2\n" for u, v in zip(ids, ids[1:] + ids[:1])))
    labels.write_text(f"{ids[0]}::x\n{ids[1]}::y\n{ids[2]}::x\n")
    seeds.write_text("0 mr_hi\n33 officer\n")
    (tmp / "g.seeds").write_text(f"{ids[0]}::x\n{ids[1]}::y\n")
    out = str(tmp / "labels.csv")
    directed = ["--graph", str(edges), "--labels", str(labels), "--directed", "--weighted", "--delimiter", "::"]
    runs = [
        ["--graph", "karate", "--sample", "uniform", "--variant", "vanilla"],
        ["--graph", "karate", "--sample", "degree", "--variant", "weighted"],
        ["--graph", "karate", "--sample", "balanced", "--fraction", "0.2"],
        ["--graph", "karate", "--seeds-file", str(seeds)],
        [*directed, "--sample", "uniform", "--fraction", "0.5"],
        [*directed, "--seeds-file", str(tmp / "g.seeds"), "--use-destination"],
    ]
    for argv in runs:
        assert main(["classify", *argv, "--out", out]) == 0, argv
    assert main(["oracle", "--sizes", "2,2", "--seeds", "1,1", "--p", "2", "--q", "1"]) == 0
    # the bench on directed files, whose labels sit on the source copies
    (tmp / "d.edges").write_text("a b\nb c\nc d\nd a\na c\nc a\nb d\nd b\n")
    (tmp / "d.labels").write_text("a x\nb y\nc x\nd y\n")
    (tmp / "d.cfg").write_text(
        f"source = files\ngraph_file = {tmp / 'd.edges'}\nlabels_file = {tmp / 'd.labels'}\ndirected = true\n"
        "policy = uniform\nfraction = 0.5\nvariants = centered\nrepetitions = 2\n"
    )
    assert main(["bench", "--config", str(tmp / "d.cfg"), "--out-dir", str(tmp / "directed")]) == 0
    # the bipartite lift of karate leaves isolated copies
    assert main(["classify", "--graph", "karate", "--directed", "--sample", "uniform", "--out", out]) == 1
    with pytest.raises(SystemExit):
        main(["classify"])
    write_edge_list(tmp / "karate.edges", load_bundle("karate").graph)


def test_every_package_function_is_entered(tmp_path):
    # reachability by the call itself, where the name check above matches a
    # method by its bare name only
    defined = {name for path in SOURCES for name in function_names(path.read_text(encoding="utf-8"), path.stem)}
    assert set(PERFBENCH_ONLY) <= defined
    # reloading cli runs the `_lookup` calls that build CONFIG_SCHEMA under the trace
    missed = defined - entered_functions(lambda: (importlib.reload(heatprop.cli), run_entry_points(tmp_path)))
    assert sorted(missed) == sorted(PERFBENCH_ONLY)
