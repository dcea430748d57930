"""Test-session setup: the ``pythonpath`` setting in pyproject.toml puts
``src`` on this process's import path; exporting it as PYTHONPATH too lets
the CLI tests' subprocesses import the same checkout."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
_PATH = os.environ.get("PYTHONPATH", "")
if _SRC not in _PATH.split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, _PATH) if p)
