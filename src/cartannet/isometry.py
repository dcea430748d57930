"""Isometry-group actions on the solvable coordinate patch.

A single-point action routes through the compensator-free pipeline:
coordinates are exponentiated to a triangular element, pushed to the
symmetric coset matrix M, acted on as M -> g M g^T, refactored by the
triangular Cholesky-Crout algorithm, and read back as coordinates.  It
serves every space and is the oracle for the batched r=1 kernel.

The fiber rotations of an r=1 space have a batched vector kernel,
:func:`fiber_rotate`, that forms no matrix.  For r=1 the coset matrix is
M = eta + v v^T with v = L(e_0 - e_{N-1}) on the hyperboloid <v, v> = -2,
so an isometry g acts as v -> g v, and a fiber rotation is one Givens
rotation of that vector in the diagonal eta basis.  Like every batched
r=1 kernel it takes rows (..., d), computes on their contiguous columns
(d, ...) and returns the transpose of a fresh column block.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import spaces
from .spaces import (
    CosetPoint,
    SolvCoords,
    SpaceId,
    TriangularElement,
)

__all__ = [
    "GroupElement",
    "PaintRotation",
    "FiberGenerator",
    "isometry_action",
    "paint_rotate",
    "embedded_paint",
    "bias_translate",
    "build_fiber_generators",
    "fiber_rotation",
    "fiber_rotate",
    "fiber_rotate_vjp",
    "classify_element",
]


@dataclasses.dataclass(frozen=True)
class GroupElement:
    """Isometry-group element with its classification tag.

    ``kind`` is one of ``solvable`` (triangular, positive diagonal),
    ``paint`` (eta-orthogonal and stabilizing the solvable algebra),
    ``grassmannian`` (eta-orthogonal, not paint) or ``external``.
    """

    space: SpaceId
    matrix: np.ndarray
    kind: str


@dataclasses.dataclass(frozen=True)
class PaintRotation:
    """Orthogonal rotation O of the subPaint vector (r=1 family)."""

    space: SpaceId
    orthogonal: np.ndarray

    def __post_init__(self):
        s = self.space.subpaint_dim
        O = np.asarray(self.orthogonal, dtype=float)
        if O.shape != (s, s):
            raise ValueError(f"expected a {s}x{s} rotation for {self.space}")
        if not np.allclose(O.T @ O, np.eye(s), atol=1e-12):
            raise ValueError("paint rotation must be orthogonal")
        object.__setattr__(self, "orthogonal", O)


@dataclasses.dataclass(frozen=True)
class FiberGenerator:
    """Compact generator mixing the Cartan coordinate with one fiber
    component of the subPaint vector."""

    space: SpaceId
    index: int
    matrix: np.ndarray


def isometry_action(g: GroupElement, coords: SolvCoords) -> SolvCoords:
    """Coordinate form of the adjoint action, via the pipeline
    Sigma -> M -> g M g^T -> Crout -> Sigma^{-1}."""
    if g.kind == "external":
        raise ValueError("external elements do not act isometrically")
    M = spaces.to_coset(spaces.sigma(coords)).matrix
    return spaces.sigma_inv(spaces.cholesky_crout(
        CosetPoint(coords.space, g.matrix @ M @ g.matrix.T)))


def embedded_paint(rot: PaintRotation) -> GroupElement:
    """Embed O into the isometry group as blockdiag(1, O, 1)."""
    n = rot.space.N
    g = np.eye(n)
    g[1 : n - 1, 1 : n - 1] = rot.orthogonal
    return GroupElement(rot.space, g, "paint")


def paint_rotate(rot: PaintRotation, coords: SolvCoords) -> SolvCoords:
    """Rotate the subPaint vector: (w1, wsub) -> (w1, O wsub)."""
    if coords.space != rot.space:
        raise ValueError("paint_rotate requires matching spaces")
    v = np.array(coords.values, copy=True)
    v[1:] = rot.orthogonal @ v[1:]
    return SolvCoords(coords.space, v)


def bias_translate(u: SolvCoords, coords: SolvCoords) -> SolvCoords:
    """Left translation by u — the geometric analogue of a bias term."""
    return spaces.group_product(u, coords)


def build_fiber_generators(space: SpaceId):
    """Generators of the fiber rotations for an r=1 space.

    In the diagonal eta basis the compact subalgebra consists of rotations
    among the positive-signature directions; the returned generators rotate
    the lightcone-pair direction into the fiber directions of the middle
    block (components 2..s of the subPaint vector), which is exactly the
    mixing of the Cartan coordinate with one fiber coordinate."""
    space._require_r1()
    eta = spaces.build_eta(space)
    omega = eta.omega
    n = space.N
    gens = []
    for j in range(1, space.subpaint_dim):
        jb = np.zeros((n, n))
        jb[0, 1 + j] = 1.0
        jb[1 + j, 0] = -1.0
        gens.append(FiberGenerator(space, j, omega.T @ jb @ omega))
    return gens


def fiber_rotation(gen: FiberGenerator, angle: float) -> GroupElement:
    """One-parameter compact subgroup element exp(angle * F), in closed
    form: F generates a plane rotation, F^3 = -F, so exp(angle * F) =
    I + sin(angle) F + (1 - cos(angle)) F^2."""
    F = gen.matrix
    g = np.eye(len(F)) + np.sin(angle) * F + (1.0 - np.cos(angle)) * (F @ F)
    return GroupElement(gen.space, g, "grassmannian")


def fiber_rotate(space: SpaceId, values, angles) -> np.ndarray:
    """Fiber rotations of a batch (..., d) of r=1 coordinates, without
    forming a matrix.

    Angle j acts as ``fiber_rotation(build_fiber_generators(space)[j],
    angles[j])``, in index order (later angles act on the left).  For r=1
    the coset matrix is M = eta + v v^T, so an isometry acts as v -> g v on
    the hyperboloid vector v = (e^{w1} (1 + s.s/4), s/sqrt2, -e^{-w1}).  In
    the diagonal eta basis, scaled by sqrt2, its components are
    R = v_0 - v_{N-1} (invariant), P = v_0 + v_{N-1} and s, and angle j is
    the Givens rotation of (P, s_{1+j}).  The Cartan coordinate is read back
    from T = e^{-w1} = (R - P)/2 or, where P > 0, from the equal
    (4 + s.s) / (2 (R + P)) (since R^2 - P^2 - s.s = 4), so neither form
    cancels.  Only exp, log, cos and sin are used: complex inputs and
    angles propagate analytically, which keeps complex-step derivatives
    exact."""
    return _fiber_forward(space, values, angles)[0]


def _fiber_forward(space: SpaceId, values, angles):
    """The Givens chain of :func:`fiber_rotate`: returns its output and the
    tape its pullback :func:`_fiber_pullback` reads, which is None
    without fibers and else (cos and sin of the angles, input s, e^{w1},
    up, down, R, the P after each rotation, the rotated s, T, the branch
    mask P > 0)."""
    fibers = space.fiber_dim  # raises unless r = 1
    cols = spaces._columns(values)
    angles = np.asarray(angles)
    spaces._check_cartan_bound(cols[0].real)
    if angles.shape != (fibers,):
        raise ValueError(
            f"expected {fibers} fiber angles for {space}, "
            f"got shape {angles.shape}"
        )
    if fibers == 0:
        return np.asarray(values), None
    out = np.empty(cols.shape, dtype=np.result_type(cols, angles, float))
    w1, s, s_out = cols[0], cols[1:], out[1:]
    eup, down = np.exp(w1), np.exp(-w1)
    up = eup * (1.0 + 0.25 * spaces._sum_squares(s))
    R, P = up + down, up - down
    cos, sin = np.cos(angles), np.sin(angles)
    s_out[0] = s[0]
    np.multiply(s[1:].T, cos, out=s_out[1:].T)  # every cos_j x_j at once
    Ps = []
    for j in range(fibers):
        s_out[1 + j] -= sin[j] * P
        P = cos[j] * P + sin[j] * s[1 + j]
        Ps.append(P)
    upper = np.real(P) > 0
    T = (np.where(upper, 4.0 + spaces._sum_squares(s_out), R - P)
         / np.where(upper, 2.0 * (R + P), 2.0))
    out[0] = -np.log(T)
    return out.T, (cos, sin, s, eup, up, down, R, Ps, s_out, T, upper)


def _fiber_pullback(tape, grad):
    """Pullback of :func:`_fiber_forward` at real inputs: returns
    (grad @ d out/d values, grad @ d out/d angles) from its tape.

    Backs through the read-back of T on the forward's branch, then through
    the Givens rotations in reverse order (rotation j gives the angle
    gradient sum(g_P x' - g_x P') over its outputs (P', x')), and last
    through up/down to (w1, s)."""
    grad = np.asarray(grad, dtype=float)
    if tape is None:
        return grad.copy(), np.zeros(0)
    cos, sin, s, eup, up, down, R, Ps, s_out, T, upper = tape
    g = np.array(grad.T, order="C")  # accumulates in place
    g_s = g[1:]
    P = Ps[-1]
    g_T = -g[0] / T
    # upper: T = (4 + s.s) / (2 (R + P)); else T = (R - P) / 2
    g_R = np.where(upper, -g_T * T / (R + P), 0.5 * g_T)
    g_P = np.where(upper, g_R, -0.5 * g_T)
    g_s += np.where(upper, g_T / (R + P), 0.0) * s_out
    g_angles = np.empty(len(Ps))
    for j in reversed(range(len(Ps))):
        g_x = g_s[1 + j]
        g_angles[j] = np.sum(g_P * s_out[1 + j] - g_x * Ps[j])
        g_P, g_s[1 + j] = cos[j] * g_P - sin[j] * g_x, sin[j] * g_P + cos[j] * g_x
    g_up, g_down = g_R + g_P, g_R - g_P
    g_s += 0.5 * (g_up * eup) * s
    g[0] = g_up * up - g_down * down
    return g.T, g_angles


def fiber_rotate_vjp(space: SpaceId, values, angles, grad):
    """Vector-Jacobian product of :func:`fiber_rotate` at real ``values``
    (..., d): returns (grad @ d out/d values, grad @ d out/d angles), by
    one run of the Givens chain and its pullback."""
    values = np.asarray(values, dtype=float)
    angles = np.asarray(angles, dtype=float)
    return _fiber_pullback(_fiber_forward(space, values, angles)[1], grad)


def _is_eta_orthogonal(g: np.ndarray, eta: np.ndarray, tol=1e-10) -> bool:
    return bool(np.max(np.abs(g.T @ eta @ g - eta)) <= tol)


def _stabilizes_solvable(g: np.ndarray, space: SpaceId, tol=1e-10) -> bool:
    gens = spaces.solvable_generators(space).stack
    basis = gens.reshape(len(gens), -1).T
    ad = (g @ gens @ np.linalg.inv(g)).reshape(len(gens), -1).T
    coef = np.linalg.lstsq(basis, ad, rcond=None)[0]  # one solve, all T
    return not np.max(np.abs(basis @ coef - ad)) > tol


def classify_element(g: np.ndarray, space: SpaceId) -> GroupElement:
    """Tag a matrix as solvable / paint / grassmannian / external."""
    g = np.asarray(g, dtype=float)
    det = np.linalg.det(g)
    if abs(det) < 1e-300:
        raise ValueError("matrix must be invertible")
    if space.family == "so":
        eta = spaces.build_eta(space).entries
        if _is_eta_orthogonal(g, eta):
            upper = np.allclose(g, np.triu(g), atol=1e-12)
            if upper and np.all(np.diag(g) > 0):
                return GroupElement(space, g, "solvable")
            if _stabilizes_solvable(g, space):
                return GroupElement(space, g, "paint")
            return GroupElement(space, g, "grassmannian")
        gn = g / np.sign(det) / abs(det) ** (1.0 / space.N)
        return GroupElement(space, gn, "external")
    # sl family: the isometric elements are the orthogonal ones
    if np.allclose(g.T @ g, np.eye(space.N), atol=1e-10):
        if _stabilizes_solvable(g, space):
            return GroupElement(space, g, "paint")
        return GroupElement(space, g, "grassmannian")
    upper = np.allclose(g, np.triu(g), atol=1e-12)
    if upper and np.all(np.diag(g) > 0) and abs(det - 1.0) < 1e-10:
        return GroupElement(space, g, "solvable")
    gn = g / np.sign(det) / abs(det) ** (1.0 / space.N)
    return GroupElement(space, gn, "external")
