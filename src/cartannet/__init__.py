"""Cartan networks on non-compact symmetric spaces.

Subpackages:

- ``spaces``: solvable coordinates, coset representatives, group law,
  metric and distance for the r=1 (hyperbolic) and sl(N) families.
- ``isometry``: paint rotations, fiber rotations and the compensator-free
  adjoint action pipeline.
- ``homo``: Maurer-Cartan structures, homomorphism constraint systems,
  numeric solving and closed-form coordinate maps.
- ``fixtures``: the exact reference solution families between the Borel
  algebra of sl(4) and the so(1,2) solvable algebra.
- ``net``: activation-free hyperbolic networks.
- ``classify``: separator hypersurfaces and probability heads.
- ``train``: losses, gradients, SGD and synthetic data.
- ``cli``: the ``cartannet`` command-line tool.
"""

from . import classify, fixtures, homo, isometry, net, spaces, train
from .spaces import (
    CartanBoundError,
    CosetPoint,
    FactorizationError,
    SolvCoords,
    SpaceId,
    TriangularElement,
    hyperbolic,
)

__all__ = [
    "classify",
    "fixtures",
    "homo",
    "isometry",
    "net",
    "spaces",
    "train",
    "CartanBoundError",
    "CosetPoint",
    "FactorizationError",
    "SolvCoords",
    "SpaceId",
    "TriangularElement",
    "hyperbolic",
]

__version__ = "0.1.0"
