"""Isometry-group actions on the solvable coordinate patch.

On r=1 spaces an isometry acts in closed form.  The coset matrix is
M = eta + v v^T with v = L(e_0 - e_{N-1}) on the hyperboloid <v, v> = -2,
so a non-external (eta-orthogonal) g acts as v -> +-g v, the sign keeping
v on its sheet: :func:`isometry_action` forms v from the coordinates,
applies g and reads the coordinates back, with no coset matrix and no
Crout (:func:`_r1_action`, a kernel on rows).  On r >= 2 and sl(N) it routes through the
compensator-free pipeline: coordinates are exponentiated to a triangular
element, pushed to the symmetric coset matrix M, acted on as
M -> g M g^T, refactored by the triangular Cholesky-Crout algorithm, and
read back as coordinates.  For r=1 that pipeline is the near-origin test
oracle of the closed form.

A fiber rotation of an r=1 space is one Givens rotation of v in the
diagonal eta basis.  A layer's f fiber rotations are therefore one element
of SO(f+1), built from the angles alone and applied to a batch by one
matrix product (:func:`fiber_rotate`).  The stage kernel runs in the chart
(T, Y2), T = e^{-w1}, of the network's stage chain; the coordinate
functions convert at their ends.  Like every batched r=1 kernel it takes
rows (..., d), computes on their contiguous columns (d, ...) and returns
the transpose of a fresh column block.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import spaces
from .spaces import CosetPoint, SolvCoords, SpaceId

__all__ = [
    "GroupElement",
    "PaintRotation",
    "FiberGenerator",
    "isometry_action",
    "paint_rotate",
    "embedded_paint",
    "build_fiber_generators",
    "fiber_rotation",
    "fiber_rotate",
]


@dataclasses.dataclass(frozen=True)
class GroupElement:
    """Isometry-group element with its classification tag.

    ``kind`` is one of ``solvable`` (triangular, positive diagonal),
    ``paint`` (eta-orthogonal and stabilizing the solvable algebra),
    ``grassmannian`` (eta-orthogonal, not paint) or ``external``.  A
    non-external g must be eta-orthogonal, to 1e-10 max(1, max|g|^2), on
    so spaces and have |det g| = 1, to 1e-10, on sl spaces (ValueError)."""

    space: SpaceId
    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        g, space = self.matrix, self.space
        if self.kind not in ("solvable", "paint", "grassmannian", "external"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "external":
            return
        if space.family == "so":
            err = _eta_defect(g, space)  # max|g|^2 only past 1e-10
            fits = err <= 1e-10 or err <= 1e-10 * np.abs(g).max() ** 2
        else:
            fits = abs(abs(np.linalg.det(g)) - 1.0) <= 1e-10
        if not fits:
            raise ValueError(f"the matrix is not a {self.kind} element")


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
    matrix: np.ndarray


def isometry_action(g: GroupElement, coords: SolvCoords) -> SolvCoords:
    """Coordinate form of the action of a non-external element g: the
    closed form :func:`_r1_action` on r=1 spaces, and elsewhere the
    pipeline Sigma -> M -> g M g^T -> Crout -> Sigma^{-1}."""
    if g.kind == "external":
        raise ValueError("external elements do not act isometrically")
    if coords.space.is_r1:
        return SolvCoords(coords.space, _r1_action(g.matrix, coords.values))
    M = spaces.to_coset(spaces.sigma(coords)).matrix
    return spaces.sigma_inv(spaces.cholesky_crout(
        CosetPoint(coords.space, g.matrix @ M @ g.matrix.T)))


def _r1_action(g, values) -> np.ndarray:
    """An eta-orthogonal g (N, N) acting on rows (..., d) of r=1
    coordinates (w1, s), N = d + 1.

    The hyperboloid vector v = (e^{w1} (1 + s.s/4), s/sqrt2, -e^{-w1})
    goes to g v, since g M g^T = eta + (g v)(g v)^T.  M fixes v only up to
    sign, so v' = +-g v is taken on the sheet v'_0 - v'_{N-1} > 0 of v: g
    swaps the two sheets when it maps the origin's vector (1, 0, ..., -1)
    to one with v'_0 - v'_{N-1} < 0 (it is 2 cosh of a distance, so at
    least 2 in size).  Then s' = sqrt2 v'_{1..N-2}, and T' = e^{-w1'} is
    read back as (1 + s'.s'/4) / v'_0 where v'_0 >= -v'_{N-1} and as
    -v'_{N-1} elsewhere, so neither form cancels (the rule of
    :func:`_fiber_forward`); on that sheet both forms are positive.  The
    branch reads real parts only, so complex inputs propagate
    analytically.  Refuses (CartanBoundError) an input w1 beyond
    CARTAN_BOUND or NaN, and (FactorizationError) an image that is not
    finite, where the matrix pipeline has no factor either."""
    cols = spaces._columns(values)
    spaces._check_cartan_bound(cols[0].real)
    flat = cols.reshape(len(cols), -1)
    if g[0, 0] - g[0, -1] - g[-1, 0] + g[-1, -1] < 0:
        g = -g
    v = np.empty((len(flat) + 1, flat.shape[1]), np.result_type(flat, g))
    # sums of squares as np.sum(x * x, axis=0) accumulates them; einsum
    # (spaces._sum_squares) costs more per call on a single point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        T = np.exp(-flat[0])
        mid = np.divide(flat[1:], spaces.SQRT2, out=v[1:-1])
        v[0] = (1.0 + 0.5 * np.add.reduce(mid * mid, axis=0)) / T
        np.negative(T, out=v[-1])
        v = g @ v
        out = v[:-1] * spaces.SQRT2  # row 0 is overwritten by w1'
        mid = v[1:-1]
        T = np.where(v[0].real >= -v[-1].real,
                     (1.0 + 0.5 * np.add.reduce(mid * mid, axis=0)) / v[0],
                     -v[-1])
        out[0] = -np.log(T)
    if not np.isfinite(out).all():  # T' overflowed, underflowed or is NaN
        raise spaces.FactorizationError(
            "the image of the hyperboloid vector is not finite")
    return out.reshape(cols.shape).T


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
        gens.append(FiberGenerator(space, omega.T @ jb @ omega))
    return gens


def fiber_rotation(gen: FiberGenerator, angle: float) -> GroupElement:
    """One-parameter compact subgroup element exp(angle * F), in closed
    form: F generates a plane rotation, F^3 = -F, so exp(angle * F) =
    I + sin(angle) F + (1 - cos(angle)) F^2."""
    F = gen.matrix
    g = np.eye(len(F)) + np.sin(angle) * F + (1.0 - np.cos(angle)) * (F @ F)
    return GroupElement(gen.space, g, "grassmannian")


def fiber_rotate(space: SpaceId, values, angles) -> np.ndarray:
    """Fiber rotations of a batch (..., d) of r=1 coordinates.

    Angle j acts as ``fiber_rotation(build_fiber_generators(space)[j],
    angles[j])``, in index order (later angles act on the left).  For r=1
    the coset matrix is M = eta + v v^T, so an isometry acts as v -> g v on
    the hyperboloid vector v = (e^{w1} (1 + s.s/4), s/sqrt2, -e^{-w1}).  In
    the diagonal eta basis, scaled by sqrt2, its components are
    R = v_0 - v_{N-1} (invariant), P = v_0 + v_{N-1} and s, and angle j is
    the Givens rotation of (P, s_{1+j}); the kernel :func:`_fiber_forward`
    applies all of them as one rotation matrix.  Only exp, log, cos and sin
    are used: complex inputs and angles propagate analytically, which keeps
    complex-step derivatives exact."""
    return spaces._from_t_chart(_fiber_forward(
        space, spaces._to_t_chart(values), angles)[0])


_ONE, _ZERO = np.ones(1), np.zeros(1)


@functools.lru_cache(maxsize=None)
def _givens_tables(f):
    """Index tables of :func:`_givens_product` into the vector
    (1, cos (f), sin (f), -sin (f), 0), and the mask of the entries
    (j, i), i <= j, of the partial rows."""
    j, i = np.indices((f + 1, f + 1))
    cos, sin, nsin, zero = 1, 1 + f, 1 + 2 * f, 1 + 3 * f
    factors = np.where(j > i, cos + j - 1,
                       np.where((j == i) & (i > 0), sin + i - 1, 0))
    weights = np.where(j == 0, 0, np.where(
        i < j, nsin + j - 1, np.where(i == j, cos + j - 1, zero)))
    tables = factors, weights, np.r_[f, 0:f], np.tri(f + 1)[:f]
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _givens_product(cos, sin):
    """G = G_f ... G_1 (f+1, f+1) for the Givens rotations G_j of the
    planes (0, j), G_j e_0 = cos_j e_0 - sin_j e_j, and the rows 0 of the
    partial products G_{j-1} ... G_1, j = 1..f (f, f+1).

    Row 0 of G_j ... G_1 is cos_j times that of G_{j-1} ... G_1 plus
    sin_j e_j, so its entry i <= j is a_i prod_{i <= k < j} cos_k with
    a = (1, sin): one cumulative product down the columns of a matrix of
    ones, a on the diagonal and cos_{j-1} below it.  Row j of G is
    cos_j e_j - sin_j (row 0 of G_{j-1} ... G_1), and row 0 of G is row 0
    of G_f ... G_1.  Products only, so complex angles propagate
    analytically."""
    factors, weights, order, lower = _givens_tables(len(cos))
    v = np.concatenate((_ONE, cos, sin, -sin, _ZERO))
    rows = np.cumprod(v[factors], axis=0)
    return rows[order] * v[weights], rows[:-1] * lower


def _fiber_forward(space: SpaceId, t, angles):
    """The fiber stage of :func:`fiber_rotate` in the chart (T, Y2),
    T = e^{-w1}, of the stage chain: rows t (..., d) to rows (..., d).

    With up = e^{w1} (1 + s.s/4) = (4 + s.s) / (4 T), R = up + T and
    P = up - T, one matrix product applies G = :func:`_givens_product` to
    the stack x = (P, s_1, ..., s_f).  T is read back as
    (4 + s.s) / (2 (R + P)) where P > 0 and as (R - P) / 2 elsewhere
    (R^2 - P^2 - s.s = 4), so neither form cancels.  Refuses
    (CartanBoundError) an input with |w1| > CARTAN_BOUND.  Returns the
    output and the tape its pullback :func:`_fiber_pullback` reads: None
    without fibers, and else (G, the rows p_j of :func:`_givens_product`,
    the input columns, up, x, the output columns, R + P, the mask P > 0)."""
    fibers = space.fiber_dim  # raises unless r = 1
    t = np.asarray(t)
    angles = np.asarray(angles)
    if angles.shape != (fibers,):
        raise ValueError(
            f"expected {fibers} fiber angles for {space}, "
            f"got shape {angles.shape}"
        )
    cols = spaces._columns(t)
    cols = cols.reshape(len(cols), -1)
    spaces._check_t_bound(cols[0].real)
    if fibers == 0:
        return t, None
    G, p = _givens_product(np.cos(angles), np.sin(angles))
    T, s = cols[0], cols[1:]
    up = (4.0 + spaces._sum_squares(s)) / (4.0 * T)
    x = np.empty((fibers + 1, cols.shape[1]), np.result_type(T, G))
    np.subtract(up, T, out=x[0])
    x[1:] = s[1:]
    out = np.empty(cols.shape, x.dtype)
    np.matmul(G, x, out=out[1:])
    P = out[1].copy()
    out[1] = s[0]
    R = up + T
    upper = np.real(P) > 0
    RP = R + P
    out[0] = (np.where(upper, 4.0 + spaces._sum_squares(out[1:]), R - P)
              / np.where(upper, 2.0 * RP, 2.0))
    return (out.reshape(t.T.shape).T,
            (G, p, cols, up, x, out, RP, upper))


def _fiber_pullback(tape, grad):
    """Pullback of :func:`_fiber_forward` at real inputs: returns
    (grad @ d out/d t, grad @ d out/d angles) from its tape.

    Backs through the read-back of T on the forward's branch, then through
    the rotation: the input stack x gets g_x = G^T g for the output
    stack's cotangent g, and with N = g_x x^T angle j gets
    p_j (N - N^T) e_j, p_j the row 0 of G_{j-1} ... G_1.  Last it backs
    through up, R and P to (T, s)."""
    grad = np.asarray(grad, dtype=float)
    if tape is None:
        return grad.copy(), np.zeros(0)
    G, p, cols, up, x, out, RP, upper = tape
    T, s = cols[0], cols[1:]
    g_out = spaces._columns(grad).reshape(cols.shape)
    g_T = g_out[0]
    # upper: T' = (4 + s'.s') / (2 (R + P')); else T' = (R - P') / 2
    q = np.where(upper, g_T, 0.0) / np.where(upper, RP, 1.0)
    g_R = np.where(upper, -q * out[0], 0.5 * g_T)
    g_stack = np.empty(x.shape)
    g_stack[0] = np.where(upper, g_R, -0.5 * g_T)
    np.multiply(q, out[2:], out=g_stack[1:])
    g_stack[1:] += g_out[2:]
    g = np.empty(cols.shape)
    np.matmul(G.T, g_stack, out=g[1:])  # row 1: x_0 = P's, then s_0's
    N = g[1:] @ x.T
    g_angles = np.einsum("ji,ij->j", p, (N - N.T)[:, 1:])
    g_up = g_R + g[1]
    g[0] = g_R - g[1] - g_up * up / T
    g[1] = g_out[1] + q * s[0]
    g[1:] += (0.5 * g_up / T) * s
    return g.reshape(grad.T.shape).T, g_angles


def _fiber_input(tape, out):
    """The rows (B, d) a fiber stage read, from its tape and output (a
    stage without fibers is the identity)."""
    return out if tape is None else tape[2].T


@functools.cache
def _eta_rows(space: SpaceId):
    """eta of an so space and the rows perm with eta @ g = g[perm], both
    read-only."""
    eta = spaces.build_eta(space).entries
    perm = np.argmax(eta, axis=1)
    perm.setflags(write=False)
    return eta, perm


def _eta_defect(g: np.ndarray, space: SpaceId):
    """max |g^T eta g - eta|, with eta g as a row permutation of g."""
    eta, perm = _eta_rows(space)
    return np.abs(g.T @ g[perm] - eta).max()
