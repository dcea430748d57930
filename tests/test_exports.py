"""Every name a module exports through ``__all__`` exists, every name
it imports is used or exported, every package it imports from outside
the standard library is a declared dependency, and every parameter of its
functions is read."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys
import tomllib

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


def declared_dependencies():
    """Distribution names of the ``[project] dependencies`` entries."""
    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        entries = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", entry)[0] for entry in entries}


def third_party_imports(tree):
    """Top-level packages outside the standard library that a module
    imports anywhere, relative imports excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_declared_dependencies(name):
    # scipy (scipy.linalg.expm in homo) is the one module-specific import
    module = importlib.import_module(name)
    found = third_party_imports(ast.parse(inspect.getsource(module)))
    assert found <= declared_dependencies()
    assert ("scipy" in found) == (name == "cartannet.homo")


def unread_parameters(tree):
    """(function, line, parameter) of every parameter, ``self`` included,
    that its function or lambda never loads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(getattr(node, "name", "<lambda>"), node.lineno, p)
                  for p in params if p not in read]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_unread_parameters(name):
    # a parameter that only carried something no longer used is dropped
    module = importlib.import_module(name)
    assert unread_parameters(ast.parse(inspect.getsource(module))) == []
