"""A guard on the per-process caches of the package: every ``functools``
cache in ``cartannet`` (``functools.cache``, ``lru_cache`` and
``cached_property``) hands its result to every later caller, so every
array it hands out is read-only; one in-place write would corrupt every
later call.  A new cache fails :func:`test_every_cache_is_listed` until
it has a case here."""

import dataclasses
import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import cartannet
from cartannet import cli, fixtures, homo, isometry, net, spaces

SPACES = (spaces.hyperbolic(3), spaces.hyperbolic(5), spaces.SpaceId.so(2, 3),
          spaces.SpaceId.sl(4))
SO_SPACES = SPACES[:3]


def map_plans():
    W = fixtures.W_canonical()
    M = np.asarray(W.W)
    return [homo._map_plan(M.tobytes(), M.dtype, M.shape, W.source,
                           W.target)]


def rotation_plans():
    angles = (np.array([0.3, -1.2, 2.0]), np.array([0.5 + 1e-30j]))
    return [isometry._rotation_plan(a.tobytes(), a.dtype, a.shape)
            for a in angles]


def constraint_systems():
    return [homo.build_constraints(homo.mc_for_name(a), homo.mc_for_name(b))
            for a, b in (("r1(2)", "r1(4)"), ("borel_sl(3)", "r1(1)"))]


#: cache -> the results of a few calls
CASES = {
    "cli.build_parser": lambda: [cli.build_parser()],
    "homo._map_plan": map_plans,
    "homo.ConstraintSystem._pairs": lambda: [
        c._pairs for c in constraint_systems()],
    "homo.ConstraintSystem._pair_index": lambda: [
        c._pair_index for c in constraint_systems()],
    "homo.ConstraintSystem._linear_jacobian": lambda: [
        c._linear_jacobian for c in constraint_systems()],
    "homo.ConstraintSystem._jacobian_index": lambda: [
        c._jacobian_index for c in constraint_systems()],
    "isometry._givens_tables": lambda: [isometry._givens_tables(f)
                                        for f in (0, 1, 4)],
    "isometry._rotation_plan": rotation_plans,
    "isometry._turn_tables": lambda: [isometry._turn_tables(f)
                                      for f in (1, 4)],
    "isometry._eta_rows": lambda: [isometry._eta_rows(s) for s in SO_SPACES],
    "net.layout_for": lambda: [net.layout_for(net.NetworkConfig(
        input_dim=3, layers=SO_SPACES[:2][::-1], task="multiclass", K=3))],
    "spaces.build_eta": lambda: [spaces.build_eta(s) for s in SO_SPACES],
    "spaces.solvable_generators": lambda: [spaces.solvable_generators(s)
                                           for s in SPACES],
    "spaces._chart_table": lambda: [spaces._chart_table(s) for s in SPACES],
    "spaces._ChartTable.inverse": lambda: [spaces._chart_table(s).inverse
                                           for s in SPACES],
}


def package_caches():
    """Names of the package's functools caches, as in :data:`CASES`."""
    found = set()
    for info in pkgutil.iter_modules(cartannet.__path__):
        module = importlib.import_module(f"cartannet.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if hasattr(obj, "cache_info"):
                found.add(f"{info.name}.{name}")
            elif inspect.isclass(obj):
                found.update(
                    f"{info.name}.{name}.{attr}"
                    for attr, value in vars(obj).items()
                    if isinstance(value, functools.cached_property))
    return found


def arrays(obj):
    """Every array reachable from a cached result: through tuples, lists,
    dicts, dataclass fields and their cached properties."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from arrays(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from arrays(getattr(obj, field.name))
        for attr, value in vars(type(obj)).items():
            if isinstance(value, functools.cached_property):
                yield from arrays(getattr(obj, attr))


def test_every_cache_is_listed():
    assert package_caches() == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cache_hands_out_read_only_arrays(name):
    writable = [a.shape for a in arrays(CASES[name]()) if a.flags.writeable]
    assert writable == []
