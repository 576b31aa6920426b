"""The package docstring names only submodules that exist."""

import importlib

import hypnodal


def docstring_submodules():
    text = hypnodal.__doc__.split("Submodules:", 1)[1]
    return [line.split()[0] for line in text.splitlines() if line.startswith("    ")]


def test_every_named_submodule_imports():
    names = docstring_submodules()
    assert names == ["hypgeo", "hypmesh", "hypfem", "surfglue", "nodal", "bounds"]
    for name in names:
        importlib.import_module(f"hypnodal.{name}")
