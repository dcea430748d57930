"""Every name a module exports through ``__all__`` exists."""

import importlib
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
