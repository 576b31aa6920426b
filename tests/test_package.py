"""The package docstring names only submodules that exist, every dotted
name of a hypnodal module or class in the sources resolves, every
declared console script resolves to a callable, no module imports
scipy.spatial, and no module imports a name it never uses."""

import ast
import dataclasses
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import hypnodal

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = pathlib.Path(hypnodal.__file__).parent
# a dotted chain not preceded by a name or a dot: head, then its .attributes
DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)")
CAMEL_CASE = re.compile(r"[A-Z][a-z]\w*")


def docstring_submodules():
    text = hypnodal.__doc__.split("Submodules:", 1)[1]
    return [line.split()[0] for line in text.splitlines() if line.startswith("    ")]


def test_every_named_submodule_imports():
    names = docstring_submodules()
    assert names == ["hypgeo", "hypmesh", "hypfem", "surfglue", "nodal", "bounds"]
    for name in names:
        importlib.import_module(f"hypnodal.{name}")


def test_no_module_imports_scipy_spatial():
    # a fresh interpreter: the test process itself imports scipy.spatial for the reference trees
    names = ", ".join(f"hypnodal.{p.stem}" for p in sorted(SOURCES.glob("[!_]*.py")))
    code = f"import sys, {names}; print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    env = {**os.environ, "PYTHONPATH": str(SOURCES.parent)}  # the package under test
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def unused_imports(source: str) -> list:
    """Names that the import statements of a module bind and that the module
    never reads, in import order.  A name counts as read when it is loaded
    anywhere in the module (annotations included) or listed in __all__; an
    explicit re-export, import x as x, counts as read."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.asname != alias.name.rpartition(".")[2]
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(SOURCES.glob("*.py"))
    assert len(sources) == 7
    assert {path.name: unused_imports(path.read_text()) for path in sources} == {path.name: [] for path in sources}


def test_unused_import_check_finds_an_orphaned_name():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from .hypmesh import Mesh, match_nodes, mesh_polygon as mesh_polygon\n"
        "def f(m: Mesh) -> float:\n"
        "    return np.pi\n"
    )
    assert unused_imports(source) == ["math", "os", "match_nodes"]
    assert unused_imports(source + "__all__ = ['math']\nos.sep\n") == ["match_nodes"]


def test_every_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def resolves(head, attrs, modules, classes) -> bool:
    """Whether head (a module or class name) and its attributes resolve; a
    dataclass field counts as an attribute, and the walk stops at the first
    object that is neither a module nor a class."""
    obj = modules.get(head) or classes.get(head)
    if obj is None:
        return False
    for attr in attrs:
        if not isinstance(obj, (type, types.ModuleType)):
            return True
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            return dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}
    return True


def dotted_references():
    """(file:line, reference, head, attrs) for every dotted name in the
    sources whose head is a hypnodal module or a CamelCase word, which must
    then be a hypnodal class: docstrings, comments and code alike."""
    for path in sorted(SOURCES.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for m in DOTTED.finditer(line):
                head, attrs = m.group(1), m.group(2)[1:].split(".")
                yield f"{path.name}:{number}", m.group(0), head, attrs


def test_every_dotted_reference_resolves():
    modules = {"hypnodal": hypnodal}
    modules.update((p.stem, importlib.import_module(f"hypnodal.{p.stem}")) for p in SOURCES.glob("[!_]*.py"))
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__.startswith("hypnodal.")
    }
    checked = [
        (where, ref, resolves(head, attrs, modules, classes))
        for where, ref, head, attrs in dotted_references()
        if head in modules or CAMEL_CASE.fullmatch(head)
    ]
    assert len(checked) > 20
    assert [(where, ref) for where, ref, ok in checked if not ok] == []
    # a deleted class or field does not resolve
    assert not resolves("Side", ["point_at"], modules, classes)
    assert not resolves("Mesh", ["corners"], modules, classes)
    assert resolves("hypmesh", ["Mesh", "nodes"], modules, classes)
