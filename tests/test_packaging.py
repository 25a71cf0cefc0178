"""pyproject.toml promises only what the source tree ships."""

import importlib
from pathlib import Path

import pytest

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
