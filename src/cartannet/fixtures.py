"""Reference homomorphism matrices and their coordinate maps.

These are the exact solution families of the quadratic constraint system
between the 9-form Borel algebra of sl(4) and the 3-form r=1 algebra of
so(1,2), in both directions, together with the closed-form coordinate maps
they induce.  All of them are exercised as oracles by the test suite: the
matrices must annihilate the constraint residual identically in their free
parameters, and the maps must pull the target coframe back through W.
"""

from __future__ import annotations

import numpy as np

from . import homo
from .spaces import SQRT2, SolvCoords, SpaceId

__all__ = [
    "W_canonical",
    "W_family_11",
    "W_family_12",
    "delta_canonical",
    "restriction_W1",
    "restriction_W2",
    "restriction_W3",
    "restriction_W7",
    "restriction_W10",
    "phi_canonical",
    "phi_family_11",
    "phi_restriction_W3",
]

_SL4 = SpaceId.sl(4)
_H3 = SpaceId.so(1, 2)


def _inj(W):
    return homo.HomoMatrix(W=np.asarray(W, dtype=float), source=_H3, target=_SL4)


def _rest(W):
    return homo.HomoMatrix(W=np.asarray(W, dtype=float), source=_SL4, target=_H3)


def W_canonical() -> homo.HomoMatrix:
    """The canonical 9x3 injection matrix (an exact solution)."""
    s = 1.0 / SQRT2
    return _inj([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, s, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -s],
        [0.0, 0.0, s],
        [0.0, -s, 0.0],
        [0.0, 0.0, 0.0],
    ])


def W_family_11(delta) -> homo.HomoMatrix:
    """11-parameter injection branch; delta = (d1, ..., d11).

    Requires d1 != 0 and d11 != 0, 1/2 (poles of the family)."""
    d = np.asarray(delta, dtype=float)
    if d.shape != (11,):
        raise ValueError("expected 11 parameters")
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11 = d
    return _inj([
        [d11, 0.0, 0.0],
        [-d11, 0.0, 0.0],
        [d11 - 1.0, 0.0, 0.0],
        [d1, 0.0, 0.0],
        [d9, 0.0, 0.0],
        [d10, 0.0, 0.0],
        [d2, d3, d4],
        [d5,
         (2.0 * d11 * d7 - d7 + d3 * d10) / d1,
         (2.0 * d11 * d8 - d8 + d4 * d10) / d1],
        [d6, d7, d8],
    ])


def W_family_12(delta) -> homo.HomoMatrix:
    """12-parameter injection branch; delta = (d1, ..., d12), d8 != 0."""
    d = np.asarray(delta, dtype=float)
    if d.shape != (12,):
        raise ValueError("expected 12 parameters")
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12 = d
    return _inj([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [d1, d8, d9],
        [0.0, 0.0, 0.0],
        [d10, d11, d12],
        [d2, d3, d4],
        [d5, d6, (d6 * d9 + d4 * d11 - d3 * d12) / d8],
        [d7,
         -d1 * d6 + d5 * d8 + d3 * d10 - d2 * d11,
         (-d1 * d6 * d9 + d5 * d8 * d9 + d4 * d8 * d10
          - d1 * d4 * d11 + d1 * d3 * d12 - d2 * d8 * d12) / d8],
    ])


def delta_canonical() -> np.ndarray:
    """Parameter vector at which the 12-parameter family equals the
    canonical matrix entrywise."""
    s = 1.0 / SQRT2
    d = np.zeros(12)
    d[7] = s       # d8
    d[3] = s       # d4
    d[11] = -s     # d12
    d[5] = -s      # d6
    return d


def restriction_W1(alpha) -> homo.HomoMatrix:
    """Rank-deficient 3x9 restriction family (6 parameters)."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (6,):
        raise ValueError("expected 6 parameters")
    W = np.zeros((3, 9))
    W[1, :3] = a[:3]
    W[2, :3] = a[3:]
    return _rest(W)


def restriction_W2(alpha) -> homo.HomoMatrix:
    """Proportional-rows 3x9 restriction family (5 parameters, a1 != 0)."""
    a1, a2, a3, a4, a5 = np.asarray(alpha, dtype=float)
    W = np.zeros((3, 9))
    W[0, :3] = (a1, a2, a3)
    W[1, :3] = (a4, a2 * a4 / a1, a3 * a4 / a1)
    W[2, :3] = (a5, a2 * a5 / a1, a3 * a5 / a1)
    return _rest(W)


def restriction_W3(alpha) -> homo.HomoMatrix:
    """Restriction family with fixed Cartan row (-2, -1, -1) and one
    active root column (4 parameters)."""
    a1, a2, a3, a4 = np.asarray(alpha, dtype=float)
    W = np.zeros((3, 9))
    W[0, :3] = (-2.0, -1.0, -1.0)
    W[1, :4] = (a1, a1 / 2.0, a1 / 2.0, a2)
    W[2, :4] = (a3, a3 / 2.0, a3 / 2.0, a4)
    return _rest(W)


def restriction_W7(alpha) -> homo.HomoMatrix:
    """Restriction family with Cartan row (1, -1, 0) and root column 5
    (4 parameters)."""
    a1, a2, a3, a4 = np.asarray(alpha, dtype=float)
    W = np.zeros((3, 9))
    W[0, :2] = (1.0, -1.0)
    W[1, :2] = (a1, -a1)
    W[1, 4] = a2
    W[2, :2] = (a3, -a3)
    W[2, 4] = a4
    return _rest(W)


def restriction_W10(alpha) -> homo.HomoMatrix:
    """Single-Cartan-column restriction family (3 parameters)."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected 3 parameters")
    W = np.zeros((3, 9))
    W[:, 2] = a
    return _rest(W)


def phi_canonical(w) -> SolvCoords:
    """Coordinate map of the canonical injection: the totally geodesic
    embedding of H^3 in the sl(4) solvable chart.  Satisfies Phi(0) = 0."""
    w1, w2, w3 = np.asarray(w, dtype=float)
    y = np.zeros(9)
    y[2] = 2.0 * w1
    y[3] = -w2 / SQRT2
    y[5] = w3 / SQRT2
    y[6] = -w3 / SQRT2
    y[7] = w2 / SQRT2
    y[8] = 0.25 * (w3 ** 2 - w2 ** 2)
    return SolvCoords(_SL4, y)


def phi_family_11(delta, w) -> SolvCoords:
    """Coordinate map of the 11-parameter branch.  ``delta`` holds the 11
    family parameters followed by three integration constants
    (d12, d13, d14); the map is a particular solution and has a
    parameter-dependent value at w = 0."""
    d = np.asarray(delta, dtype=float)
    if d.shape != (14,):
        raise ValueError("expected 11 parameters + 3 integration constants")
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14 = d
    w1, w2, w3 = np.asarray(w, dtype=float)
    e_plus = np.exp((2.0 * d11 - 1.0) * w1)
    e_minus = np.exp(-2.0 * d11 * w1)
    y = np.zeros(9)
    y[0] = -2.0 * d11 * w1
    y[1] = 2.0 * d11 * w1
    y[2] = -2.0 * (d11 - 1.0) * w1
    y[3] = d1 / (2.0 * d11 - 1.0) + d12 * e_plus
    y[4] = d13 * e_minus - d9 / (2.0 * d11)
    y[5] = d10 / (2.0 * d11 - 1.0) + d14 * e_plus
    y[6] = (-d2 + d1 * d9 / (2.0 * d11) - d3 * w2 - d4 * w3
            + d1 * d13 * e_minus / (2.0 * d11 - 1.0))
    y[7] = ((-2.0 * d11 * d5 + d5 - d9 * d10) / (2.0 * d11 - 1.0)
            + (-2.0 * d11 * d7 + d7 - d3 * d10) * w2 / d1
            + (-2.0 * d11 * d8 + d8 - d4 * d10) * w3 / d1
            - d9 * d14 * e_plus / (2.0 * d11))
    y[8] = ((-d1 * d9 * d10 + d2 * d11 * d10 - d1 * d5 * d11 + d6 * d11)
            / (2.0 * (d11 - 1.0) * d11)
            - d7 * w2 - d8 * w3
            - d1 * d10 * d13 * e_minus / (1.0 - 2.0 * d11) ** 2
            + d1 * d13 * d14 * np.exp(-w1) / (1.0 - 2.0 * d11))
    return SolvCoords(_SL4, y)


def phi_restriction_W3(alpha, upsilon) -> SolvCoords:
    """Coordinate map of the restriction_W3 family (particular solution;
    constant offset vanishes when a1 = a3 = 0)."""
    a1, a2, a3, a4 = np.asarray(alpha, dtype=float)
    u = np.asarray(upsilon, dtype=float)
    w = np.zeros(3)
    w[0] = u[0] + 0.5 * u[1] + 0.5 * u[2]
    w[1] = 0.5 * (-2.0 * a2 * u[3] - a1)
    w[2] = 0.5 * (-2.0 * a4 * u[3] - a3)
    return SolvCoords(_H3, w)

