"""Every third-party module the package imports is a declared dependency,
and every name the package exports exists."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _imported_packages(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _normalize(name: str) -> str:
    # PEP 503 folds case and runs of "-", "_" and "." in a project name
    return re.sub(r"[-_.]+", "_", name).lower()


def test_third_party_imports_are_declared():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {_normalize(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in requirements}
    sources = sorted((REPO / "src" / "otmatch").glob("*.py"))
    assert sources
    undeclared = {
        f"{name} ({path.name})"
        for path in sources
        for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name != "otmatch" and _normalize(name) not in declared
    }
    assert not undeclared, f"imported but not in [project].dependencies: {sorted(undeclared)}"


@pytest.mark.parametrize(
    "module", ["otmatch"] + [f"otmatch.{p.stem}" for p in sorted((REPO / "src" / "otmatch").glob("[!_]*.py"))]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
