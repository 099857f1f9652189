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


# scipy modules that only a fit, or nothing in the package, needs.
HEAVY = ("scipy.optimize", "scipy.stats")


def _fresh(code: str) -> str:
    """The output of code run in a fresh interpreter that imports pwncg
    from src/, with `loaded()` defined: which of HEAVY it has imported."""
    prelude = f"import sys\ndef loaded(): return [m for m in {HEAVY!r} if m in sys.modules]\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_cli_import_does_not_load_scipy_stats():
    # A fresh `import pwncg.cli` takes 0.58 s. Loading scipy.optimize with
    # it, which only a fit needs, takes it to 0.89 s, and scipy.stats, which
    # loads scipy.optimize, to 1.48 s (medians of 12 alternating runs,
    # 2 vCPUs): a cost every `pwncg` run would pay.
    assert _fresh("import pwncg.cli; print(loaded())").strip() == "[]"


def test_commands_without_a_fit_do_not_load_scipy_optimize():
    # sample, density-grid and kurtosis-sweep evaluate, draw and tabulate;
    # only fit-spectra fits.
    code = """
import os
import pwncg
print("import pwncg", loaded())
from pwncg.cli import main
print("import pwncg.cli", loaded())
for argv in (
    ["sample", "--alpha", "1.5", "--lam", "2", "--count", "50"],
    ["sample", "--kind", "complex", "--alpha", "0.7", "--mu-re", "0.5", "--count", "50"],
    ["density-grid", "--alpha", "1.5", "--mu-re", "0.5", "--n", "9"],
    ["density-grid", "--kind", "amplitude", "--alpha", "2", "--nu", "1", "--n", "9"],
    ["density-grid", "--kind", "power", "--alpha", "2", "--lam", "3", "--n", "9"],
    ["kurtosis-sweep", "--steps", "5"],
):
    assert main([*argv, "--out", os.devnull]) == 0
    print(" ".join(argv[:3]), loaded())
"""
    lines = _fresh(code).splitlines()
    assert len(lines) == 8
    for line in lines:
        assert line.endswith(" []"), line


def test_a_fit_loads_scipy_optimize_and_fits_as_in_process():
    from pwncg.fitting import fit_model
    from pwncg.distributions import PowerParams
    from pwncg.sampling import rng_stream, sample_power

    code = """
from pwncg.fitting import fit_model
from pwncg.distributions import PowerParams
from pwncg.sampling import rng_stream, sample_power
batch = sample_power(PowerParams(1.5, 2.0, 3.0), rng_stream(3), size=60)
print(loaded())
result = fit_model("proposed", batch, rng_stream(5))
print(loaded())
print(repr(result))
"""
    before, after, fresh = _fresh(code).splitlines()
    assert before == "[]"
    assert after == "['scipy.optimize']"
    batch = sample_power(PowerParams(1.5, 2.0, 3.0), rng_stream(3), size=60)
    # repr prints every float as the shortest text that reads back to it,
    # so equal text is equal bits.
    assert fresh == repr(fit_model("proposed", batch, rng_stream(5)))


def test_minimize_binding_resolves_lazily():
    # perfbench traces fitting.minimize; the module resolves it on first use.
    import scipy.optimize

    import pwncg.fitting as fitting

    assert fitting.minimize is scipy.optimize.minimize
    with pytest.raises(AttributeError, match="'pwncg.fitting' has no attribute 'no_such_name'"):
        getattr(fitting, "no_such_name")


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
