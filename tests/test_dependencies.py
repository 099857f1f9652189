"""Every third-party module the tests import is declared in pyproject.toml,
so that ``pip install -e ".[test]"`` is enough to collect the suite."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_packages(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [
        req for extra in project["optional-dependencies"].values() for req in extra
    ]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}
    local = {"pwncg"} | {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}
    imported = set().union(*(_imported_packages(p) for p in (ROOT / "tests").glob("*.py")))
    undeclared = imported - set(sys.stdlib_module_names) - local - declared
    assert not undeclared, f"imported by tests but not declared in pyproject.toml: {undeclared}"
