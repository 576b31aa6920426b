"""The package docstring names only submodules that exist, and every
declared console script resolves to a callable."""

import importlib
import pathlib

import pytest

import hypnodal

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def docstring_submodules():
    text = hypnodal.__doc__.split("Submodules:", 1)[1]
    return [line.split()[0] for line in text.splitlines() if line.startswith("    ")]


def test_every_named_submodule_imports():
    names = docstring_submodules()
    assert names == ["hypgeo", "hypmesh", "hypfem", "surfglue", "nodal", "bounds"]
    for name in names:
        importlib.import_module(f"hypnodal.{name}")


def test_every_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
