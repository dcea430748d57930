"""Every name a module exports through ``__all__`` exists and has a
caller, every private module-level function and class is read in
``src/`` outside its own definition, every name it imports is used or
exported, every package it imports from outside the standard library is
a declared dependency, and every parameter of its functions is read.  The README's Python examples,
which count as callers, run.  Importing the package loads no scipy; the
one call that needs it loads it."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys
import tomllib

import numpy as np
import pytest

import cartannet
from cartannet import fixtures, homo, spaces
from cartannet.spaces import SolvCoords

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
    """The names and attributes that code, a source text or a parsed
    node, reads."""
    node = ast.parse(source) if isinstance(source, str) else source
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
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


def unread_private_definitions():
    """(module, name) of every private module-level function and class
    in ``src/`` that no other top-level statement there reads."""
    statements = [(path.stem, node)
                  for path in sorted((ROOT / "src" / "cartannet").glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    reads = [read_names(node) for _, node in statements]
    return [(module, node.name)
            for i, (module, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_")
            and not any(node.name in names
                        for j, names in enumerate(reads) if j != i)]


def test_every_private_definition_is_read_in_src():
    # a private helper that only tests read is reference code: it lives
    # in tests/oracles.py
    assert unread_private_definitions() == []


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


def import_time_nodes(tree):
    """The nodes of a module that run when it is imported: all but the
    bodies of its functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def third_party_imports(nodes):
    """Top-level packages outside the standard library that the import
    statements among ``nodes`` name, relative imports excluded."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_declared_dependencies(name):
    # scipy serves only the expm of the W_family_11/12 coordinate maps in
    # homo, which imports it inside the call: no module imports it when
    # it is itself imported, so scipy stays off the package's import path
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    found = third_party_imports(ast.walk(tree))
    assert found <= declared_dependencies()
    assert ("scipy" in found) == (name == "cartannet.homo")
    assert "scipy" not in third_party_imports(import_time_nodes(tree))


def fresh_process(script):
    """What ``script`` prints when run by a new interpreter."""
    return subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("name", ["cartannet", "cartannet.cli"])
def test_import_loads_no_scipy(name):
    loaded = fresh_process(
        f"import sys, {name}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == "[]\n"


def test_family_11_map_loads_scipy_on_first_use():
    # a W_family_11 Cartan image takes scipy.linalg.expm: a fresh process
    # loads scipy on that call and gets the same bits as this one
    rng = np.random.default_rng(1)
    d = rng.uniform(-1, 1, 14)
    d[0], d[10] = 0.7, 1.2  # away from the poles d1 = 0 and d11 = 0, 1/2
    x = rng.uniform(-0.5, 0.5, (5, 3))
    out = fresh_process(f"""
import sys
import numpy as np
from cartannet import fixtures, homo
before = "scipy" in sys.modules
got = homo.coordinate_map_batch(fixtures.W_family_11({d[:11].tolist()}),
                                np.array({x.tolist()}))
print(before, "scipy.linalg" in sys.modules, got.tobytes().hex())
""").split()
    W = fixtures.W_family_11(d[:11])
    got = homo.coordinate_map_batch(W, x)
    assert out == ["False", "True", got.tobytes().hex()]
    # the map fixes the origin; the fixture's branch is its left
    # translate by the fixture's value there
    origin = fixtures.phi_family_11(d, np.zeros(3))
    for w, row in zip(x, got):
        want = fixtures.phi_family_11(d, w).values
        image = spaces.group_product(origin, SolvCoords(W.target, row)).values
        assert np.max(np.abs(image - want)) <= 1e-13 * max(
            1.0, np.max(np.abs(want)))


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
