"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ocedf").glob("*.py"))


def _imported_top_levels(path: Path) -> set[str]:
    """Top-level module of every absolute ``import`` and ``from`` in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = {name for name in _imported_top_levels(path)
               if name != "ocedf" and name not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_package_modules_found():
    assert {"ocel.py", "cli.py", "timeutil.py"} <= {p.name for p in MODULES}


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert "dependencies = []" in project.splitlines()
