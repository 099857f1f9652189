"""Every third-party module the tests import is declared in pyproject.toml,
so that ``pip install -e ".[test]"`` is enough to collect the suite, and
every one the library imports is a runtime dependency, so that
``pip install .`` is enough to use it; the CLI's import stays light; and
every name the package exports exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported_packages(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _undeclared(files, local: set[str], requirements: list[str]) -> set[str]:
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}
    imported = set().union(*(_imported_packages(p) for p in files))
    return imported - set(sys.stdlib_module_names) - local - declared


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = project["dependencies"]
    extras = [req for extra in project["optional-dependencies"].values() for req in extra]
    local = {"pwncg"} | {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}
    undeclared = _undeclared((ROOT / "tests").glob("*.py"), local, runtime + extras)
    assert not undeclared, f"imported by tests but not declared in pyproject.toml: {undeclared}"
    # the library may import runtime dependencies only, not the test extras
    undeclared = _undeclared((ROOT / "src" / "pwncg").glob("*.py"), {"pwncg"}, runtime)
    assert not undeclared, f"imported by pwncg but not in [project] dependencies: {undeclared}"


def test_cli_import_does_not_load_scipy_stats():
    # Importing scipy.stats as well takes a fresh `import pwncg.cli` from
    # 1.10 s to 1.82 s (median of 7, 2 vCPUs), a cost every `pwncg` run pays.
    code = "import sys, pwncg.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_exported_names_resolve():
    # A name deleted from a module but left in its __all__ fails only on
    # `from pwncg.<module> import *`; check every module's __all__, and
    # every name the package's __init__ imports.
    package = ROOT / "src" / "pwncg"
    for path in sorted(package.glob("*.py")):
        name = "pwncg" if path.stem == "__init__" else f"pwncg.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    pwncg = importlib.import_module("pwncg")
    tree = ast.parse((package / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if not hasattr(pwncg, n)] == []
