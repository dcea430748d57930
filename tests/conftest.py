"""Test-session setup: the ``pythonpath`` setting in pyproject.toml puts
``src`` on this process's import path; exporting it as PYTHONPATH too lets
the CLI tests' subprocesses import the same checkout.  Every property test
runs under one hypothesis profile: derandomized, with no example
database and no deadline; a test file sets only how many examples its
properties draw."""

import os
import pathlib

from hypothesis import settings

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
_PATH = os.environ.get("PYTHONPATH", "")
if _SRC not in _PATH.split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, _PATH) if p)

settings.register_profile("cartannet", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("cartannet")
