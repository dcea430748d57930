"""Every name a module exports through ``__all__`` exists, and every
name it imports is used or exported."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import cartannet

MODULES = ["cartannet"] + [
    f"cartannet.{info.name}" for info in pkgutil.iter_modules(cartannet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [n for n in exported if not hasattr(module, n)] == []


def imported_names(tree):
    """name -> line of every name a module's top-level imports bind,
    except ``from __future__`` imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # an imported name is read somewhere in the module or re-exported
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(module, "__all__", []))
    unused = {n: line for n, line in imported_names(tree).items()
              if n not in read and n not in exported}
    assert unused == {}
