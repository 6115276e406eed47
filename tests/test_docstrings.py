"""Every cross-reference in a ``miscfem`` docstring names an object that
exists, so a pointer left behind by a rename or a deletion fails here.

A ``:func:``, ``:class:``, ``:attr:`` or ``:meth:`` target resolves
either in the module whose docstring holds it, or on one of that
module's classes, or as an import path (``~miscfem.solvers.gmres``,
``dataclasses.replace``).
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import miscfem

ROLE = re.compile(r":(?:func|class|attr|meth):`([^`]*)`")
NAME = re.compile(r"~?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _docstring_targets():
    """(module name, target) for every role in a package docstring."""
    found = []
    for path in sorted(Path(miscfem.__file__).parent.glob("*.py")):
        module = ("miscfem" if path.stem == "__init__"
                  else f"miscfem.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                found += [(module, t) for t in ROLE.findall(doc)]
    return list(dict.fromkeys(found))


TARGETS = _docstring_targets()


def _lookup(obj, dotted):
    """The object at ``dotted`` below ``obj``; a dataclass field without a
    default counts as an attribute of its class."""
    for part in dotted.split("."):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif part in getattr(obj, "__dataclass_fields__", {}):
            obj = obj.__dataclass_fields__[part]
        else:
            raise AttributeError(part)
    return obj


def _resolves(module_name, target):
    name = target.removeprefix("~")
    module = importlib.import_module(module_name)
    scopes = [module] + [cls for _, cls in inspect.getmembers(
        module, inspect.isclass) if cls.__module__ == module_name]
    for scope in scopes:
        try:
            _lookup(scope, name)
            return True
        except AttributeError:
            pass
    parts = name.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            imported = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            _lookup(imported, ".".join(parts[i:]))
            return True
        except AttributeError:
            return False
    return False


def test_the_package_docstrings_hold_pointers():
    assert TARGETS


@pytest.mark.parametrize("module_name, target", TARGETS,
                         ids=[f"{m}:{t}" for m, t in TARGETS])
def test_docstring_pointer_resolves(module_name, target):
    assert NAME.fullmatch(target), f"malformed target {target!r}"
    assert _resolves(module_name, target), (
        f"{module_name} points at {target!r}, which does not exist")
