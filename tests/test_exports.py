"""Every name a module exports through ``__all__`` exists and has a
caller, every name it imports is used or exported, every package it
imports from outside the standard library is a declared dependency, and
every parameter of its functions is read.  The README's Python examples,
which count as callers, run."""

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
ROOT = pathlib.Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```",
                           (ROOT / "README.md").read_text(), re.S)

#: Exports that need no caller in the package, the benchmark or the
#: README: the reference coordinate map of ``fixtures`` that nothing
#: else reads.
UNCALLED_EXPORTS = {
    "cartannet.fixtures": {"phi_family_11"},
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [n for n in exported if not hasattr(module, n)] == []


def read_names(source):
    """The names and attributes that code reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))}


def string_constants(source):
    return {n.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def called_names():
    """Every name read in ``src/`` (a definition and an ``__all__`` entry
    are not reads), named in ``bench/*.py`` (whose tracer names the
    functions it wraps as strings) or read in a README example."""
    found = set()
    for path in (ROOT / "src" / "cartannet").glob("*.py"):
        found |= read_names(path.read_text())
    for path in (ROOT / "bench").glob("*.py"):
        text = path.read_text()
        found |= read_names(text) | string_constants(text)
    for block in README_BLOCKS:
        found |= read_names(block)
    return found


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    # an export only tests call is a test helper: it lives in tests/
    exported = getattr(importlib.import_module(name), "__all__", [])
    allowed = UNCALLED_EXPORTS.get(name, set())
    called = called_names()
    assert [n for n in exported if n not in called and n not in allowed] == []


def test_uncalled_exports_exist():
    # the allowlist names only functions that are there
    missing = [(name, n) for name, allowed in UNCALLED_EXPORTS.items()
               for n in sorted(allowed) if not callable(
                   getattr(importlib.import_module(name), n, None))]
    assert missing == []


def test_uncalled_exports_have_no_caller():
    # an allowlisted name that gains a caller leaves the list
    called = called_names()
    stale = [(name, n) for name, allowed in UNCALLED_EXPORTS.items()
             for n in sorted(allowed) if n in called]
    assert stale == []


def test_readme_examples_run(tmp_path, monkeypatch):
    # the export guard counts these blocks as callers, so they must run
    assert len(README_BLOCKS) >= 2
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(README_BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


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
