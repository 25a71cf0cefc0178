"""pyproject.toml promises only what the source tree ships, the names the
package exports or the benchmark traces still exist, every shipped data
file is a built-in, and the test oracles stay independent of the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from groupft import compact, nilpotent

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_package_data_globs_match_files():
    setuptools = PYPROJECT["tool"]["setuptools"]
    roots = [ROOT / where for where in setuptools["packages"]["find"]["where"]]
    for package, globs in setuptools.get("package-data", {}).items():
        for pattern in globs:
            matches = [m for r in roots for m in r.joinpath(*package.split(".")).glob(pattern)]
            assert matches, f"{package}: {pattern!r} matches no file"


def test_console_scripts_import():
    for name, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target} is not callable"


def test_exported_names_resolve():
    names = [m.name for m in pkgutil.iter_modules(importlib.import_module("groupft").__path__)]
    assert names
    for module in (importlib.import_module(f"groupft.{name}") for name in names):
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{module.__name__}.__all__ names missing {export!r}"


def benchmark_targets() -> dict:
    """TARGETS of perfbench/spans.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_benchmark_targets_resolve():
    targets = benchmark_targets()
    assert targets
    for span, (module_name, attr) in targets.items():
        obj = importlib.import_module(f"groupft.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"span {span!r}: groupft.{module_name}.{attr} is missing"
            obj = getattr(obj, part)


def test_oracles_import_nothing_from_groupft():
    """tests/oracles.py checks the library against code that shares none of
    its paths, so it imports no groupft module, directly or through a
    relative import of another test module."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    bad = [name for name in imported if name.startswith(".") or name.split(".")[0] == "groupft"]
    assert not bad, f"tests/oracles.py imports {bad}"


def test_every_shipped_file_is_a_valid_builtin():
    """Each data file is what a built-in loads, and validates clean: no
    shipped file is dead, and no built-in lacks its file."""
    data = ROOT / "src" / "groupft" / "data"
    groups = {f"{name}.json": compact.builtin_group(name) for name in ("s3", "z4")}
    descriptors = {f"threadlike{n}.json": nilpotent.threadlike_descriptor(n) for n in (3, 4, 5)}
    assert sorted(p.name for p in data.glob("*.json")) == sorted(groups | descriptors)
    for name, K in groups.items():
        from_file = compact.load_group_file(data / name)
        assert np.array_equal(K.table, from_file.table)
        assert all(np.array_equal(a, b) for a, b in zip(K.irreps, from_file.irreps, strict=True))
        assert compact.validate_group(K) == []
    for name, desc in descriptors.items():
        from_file, algebra = nilpotent.load_descriptor_file(data / name)
        assert desc == from_file and nilpotent.validate_descriptor(desc, algebra) == []
