"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "heatprop"
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


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
