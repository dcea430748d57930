"""Maurer-Cartan structures and solvable Lie-algebra homomorphisms.

A homomorphism between solvable groups is encoded by a rectangular matrix W
relating the left-invariant coframes, E^i = W^i_a e^a.  Requiring that the
pulled-back Maurer-Cartan equations close yields a quadratic constraint
system in the entries of W; each solution is a Lie-algebra homomorphism and
induces a (generally nonlinear) closed-form coordinate map: the image of
the chart's product of one-parameter subgroups, computed on a batch by
:func:`coordinate_map_batch`.  Each factor exp(a phi(T_k)) is a finite
polynomial in the strictly upper part of phi(T_k) whenever its diagonal
shifts that part by one scalar: every root image, and every Cartan image
of W_canonical, of r=1 layer maps and of restrictions into r=1 spaces.
The remaining Cartan images (those of W_family_11/12) take one batched
``scipy.linalg.expm`` each; scipy is imported on the first such call, so
importing the package does not load it.  Everything fixed by W alone (the
images, their D + N split, the powers of N and the images left to
``expm``) is a read-only plan built once per W, cached by W's contents,
dtype and shape and the source and target ids; a call does only the
per-point work.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import spaces
from .spaces import SolvCoords, SpaceId

__all__ = [
    "RootLabel",
    "MCStructure",
    "HomoMatrix",
    "ConstraintSystem",
    "borel_mc",
    "r1_mc",
    "mc_structure",
    "build_constraints",
    "residual",
    "solve_numeric",
    "r1_homomorphism",
    "coframe",
    "coordinate_map_batch",
    "integrate_coordinate_map",
    "mc_for_name",
    "space_for_name",
]


@dataclasses.dataclass(frozen=True)
class RootLabel:
    """Positive-root label [h, k]: the root alpha_k + ... + alpha_{k+h-1}
    of height h; h = 0 labels the k-th Cartan generator."""

    h: int
    k: int

    def __post_init__(self):
        if self.h < 0 or self.k < 1:
            raise ValueError("invalid root label")


@dataclasses.dataclass(frozen=True)
class MCStructure:
    """Structure constants in canonical Maurer-Cartan form
    dE^i + (1/2) f^i_jk E^j ^ E^k = 0."""

    d: int
    f: np.ndarray
    labels: tuple
    name: str = ""


@dataclasses.dataclass(frozen=True)
class HomoMatrix:
    """Linear homomorphism data: E^i_target = W^i_a e^a_source."""

    W: np.ndarray
    source: SpaceId | None = None
    target: SpaceId | None = None
    residual: float | None = None
    branch_tag: str | None = None


# ---------------------------------------------------------------------------
# Root labels and Maurer-Cartan structures
# ---------------------------------------------------------------------------


def _borel_labels(n: int):
    return ([RootLabel(0, k) for k in range(1, n)]
            + [RootLabel(h, k) for h, k in spaces._sl_root_labels(n)])


def _borel_combinatorial(n: int) -> np.ndarray:
    """Structure constants of the Borel algebra of sl(n) from the root
    combinatorics alone: Cartan pairings via the eps-coordinates of the
    Cartan basis (H_j ~ e_{j+1} - e_1), and the splitting rule
    [h1,k1] = [h2,k1] + [h3,k1+h2]."""
    labels = _borel_labels(n)
    ell = n - 1
    d = len(labels)
    index = {(lab.h, lab.k): i for i, lab in enumerate(labels)}
    f = np.zeros((d, d, d))
    for lab in labels:
        if lab.h == 0:
            continue
        i = index[(lab.h, lab.k)]
        # Cartan-root pairing: root eps_k - eps_{k+h} against H_j
        for j in range(1, ell + 1):
            val = 0.0
            if j + 1 == lab.k:
                val += 1.0
            if lab.k == 1:
                val -= 1.0
            if j + 1 == lab.k + lab.h:
                val -= 1.0
            jj = index[(0, j)]
            f[i, jj, i] += val
            f[i, i, jj] -= val
        # root-root splittings of fixed total height
        for h2 in range(1, lab.h):
            h3 = lab.h - h2
            j1 = index[(h2, lab.k)]
            j2 = index[(h3, lab.k + h2)]
            f[i, j1, j2] += 1.0
            f[i, j2, j1] -= 1.0
    return f


def borel_mc(n: int) -> MCStructure:
    """Maurer-Cartan structure of the Borel subalgebra of sl(n).

    Computed two independent ways — combinatorially from the root system
    and numerically from matrix commutators of the triangular basis — and
    asserted to agree exactly."""
    if n < 2:
        raise ValueError("n must be >= 2")
    f_comb = _borel_combinatorial(n)
    space = SpaceId.sl(n)
    f_comm = spaces.solvable_generators(space).structure_constants
    if not np.array_equal(np.round(f_comm, 9), np.round(f_comb, 9)):
        raise AssertionError(
            "combinatorial and commutator structure constants disagree"
        )
    return MCStructure(d=space.dim, f=f_comb, labels=tuple(_borel_labels(n)),
                       name=f"borel_sl({n})")


def r1_mc(q: int) -> MCStructure:
    """Maurer-Cartan structure of an r=1 solvable algebra with q+1
    nilpotent forms: dE^1 = 0, dE^{1+i} + E^1 ^ E^{1+i} = 0."""
    if q < 0:
        raise ValueError("q must be >= 0")
    d = q + 2
    f = np.zeros((d, d, d))
    for i in range(1, d):
        f[i, 0, i] = 1.0
        f[i, i, 0] = -1.0
    labels = tuple(
        [RootLabel(0, 1)] + [RootLabel(1, k) for k in range(1, d)]
    )
    return MCStructure(d=d, f=f, labels=labels, name=f"r1({q})")


def mc_structure(space: SpaceId) -> MCStructure:
    """Canonical MC structure of a space's solvable algebra."""
    if space.is_r1:
        return r1_mc(space.subpaint_dim - 1)
    if space.family == "sl":
        return borel_mc(space.N)
    spec = spaces.solvable_generators(space)
    return MCStructure(
        d=space.dim,
        f=spec.structure_constants,
        labels=tuple(spec.ordering),
        name=str(space),
    )


# ---------------------------------------------------------------------------
# Constraint systems
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConstraintSystem:
    """Quadratic residuals R^i_{bc}(W) = W^i_a g^a_bc - f^i_jk W^j_b W^k_c
    for b < c, with g the source and f the target structure constants.

    The batched kernels take a stack W of shape (S, d2, d1) and accept
    complex entries, so complex-step derivatives pass through them."""

    source: MCStructure
    target: MCStructure

    @property
    def shape(self):
        return (self.target.d, self.source.d)

    @functools.cached_property
    def _pairs(self):
        pairs = np.triu_indices(self.source.d, k=1)
        spaces._read_only(*pairs)
        return pairs

    @functools.cached_property
    def _linear_jacobian(self):
        """The W-independent part delta^i_m g^d_bc of the Jacobian, (m, n)."""
        d2, d1 = self.shape
        iu0, iu1 = self._pairs
        J = np.zeros((d2, len(iu0), d2, d1))
        J[np.arange(d2), :, np.arange(d2)] = self.source.f[:, iu0, iu1].T
        J = J.reshape(-1, d2 * d1)
        spaces._read_only(J)
        return J

    def _stack(self, W) -> np.ndarray:
        W = np.asarray(W)
        W = W.astype(np.result_type(W, float), copy=False)
        if W.ndim != 3 or W.shape[1:] != self.shape:
            raise ValueError(f"expected W of shape {self.shape}")
        return W

    def _first_factor(self, W: np.ndarray) -> np.ndarray:
        """A[s, b, i, k] = f^i_jk W^j_b, shape (S, d1, d2, d2)."""
        d2, d1 = self.shape
        F = self.target.f.transpose(1, 0, 2).reshape(d2, d2 * d2)
        return (np.swapaxes(W, 1, 2) @ F).reshape(len(W), d1, d2, d2)

    def _tensor_stack(self, W: np.ndarray) -> np.ndarray:
        """Full residual tensors (S, d2, d1, d1): W g[:, b, c] minus f
        contracted with W once, then with W again."""
        d2, d1 = self.shape
        lin = (W @ self.source.f.reshape(d1, d1 * d1)).reshape(-1, d2, d1, d1)
        quad = self._first_factor(W) @ W[:, None]
        return lin - quad.transpose(0, 2, 1, 3)

    def residual_stack(self, W) -> np.ndarray:
        """Residual vectors (S, m) of a stack (S, d2, d1), row-major in
        (i, b < c)."""
        W = self._stack(W)
        iu0, iu1 = self._pairs
        R = self._tensor_stack(W)[:, :, iu0, iu1]
        return R.reshape(len(W), self.target.d * len(iu0))

    def jacobian_stack(self, W) -> np.ndarray:
        """Exact Jacobians (S, m, n) of :meth:`residual_stack` with respect
        to W.reshape(S, -1).  dR^i_bc / dW^m_d = delta^i_m g^d_bc
        - T1^i_mc delta_db - T2^i_mb delta_dc, with T1^i_mc = f^i_mk W^k_c
        and T2^i_mb = f^i_jm W^j_b scattered at the pair indices; memory
        stays O(S m n)."""
        W = self._stack(W)
        d2, d1 = self.shape
        iu0, iu1 = self._pairs
        npairs = len(iu0)
        T1 = (self.target.f.reshape(d2 * d2, d2) @ W).reshape(-1, d2, d2, d1)
        T2 = self._first_factor(W)
        J = np.empty((len(W), *self._linear_jacobian.shape), dtype=W.dtype)
        J[:] = self._linear_jacobian
        J5 = J.reshape(len(W), d2, npairs, d2, d1)
        p = np.arange(npairs)
        J5[:, :, p, :, iu0] -= np.moveaxis(T1[..., iu1], -1, 0)
        J5[:, :, p, :, iu1] -= np.moveaxis(T2[:, iu0], 1, 0)
        return J


def build_constraints(source: MCStructure, target: MCStructure) -> ConstraintSystem:
    """Constraint system for homomorphisms E^i_target = W^i_a e^a_source."""
    return ConstraintSystem(source=source, target=target)


def residual(W, system: ConstraintSystem) -> float:
    """Root-sum-square of all constraint values; 0 iff W is exact."""
    W = W.W if isinstance(W, HomoMatrix) else np.asarray(W, dtype=float)
    return float(np.linalg.norm(system.residual_stack(W[None])[0]))


# ---------------------------------------------------------------------------
# Numeric solving
# ---------------------------------------------------------------------------

_INJ_SHAPE = (9, 3)
_REST_SHAPE = (3, 9)


def tag_branch(W: np.ndarray, tol: float = 1e-6) -> str:
    """Zero-pattern classification of a solution against the known
    principal branches of the 9x3 injection / 3x9 restriction systems."""
    W = np.asarray(W)
    if W.shape == _INJ_SHAPE:
        a, b, g = W[0, 0], W[1, 0], W[2, 0]
        if (
            np.max(np.abs(W[3:6, 1:])) <= tol
            and abs(a + b) <= tol
            and abs(g - a + 1.0) <= tol
        ):
            return "branch-11"
        if (
            abs(a) <= tol
            and abs(b) <= tol
            and abs(g + 1.0) <= tol
            and np.max(np.abs(W[4])) <= tol
        ):
            return "branch-12"
        return "untagged"
    if W.shape == _REST_SHAPE:
        mask = np.ones(9, dtype=bool)
        mask[2] = False
        if np.max(np.abs(W[:, mask])) <= tol and np.max(np.abs(W[:, 2])) > tol:
            return "cartan-column-3"
    return "untagged"


def _pattern_starts(system: ConstraintSystem, rng):
    """Structured initial guesses restricted to known branch shapes:
    returns (x0, free_mask) pairs on the flat W vector; entries outside
    the mask stay at their start value."""
    d2, d1 = system.shape
    out = []
    if (d2, d1) == _INJ_SHAPE:
        # branch with three active Cartan rows (delta, -delta, delta-1)
        W0 = rng.uniform(-1.0, 1.0, size=_INJ_SHAPE)
        delta = rng.uniform(-1.0, 1.0)
        W0[:3] = 0.0
        W0[:3, 0] = (delta, -delta, delta - 1.0)
        W0[3:6, 1:] = 0.0
        fixed = np.zeros(_INJ_SHAPE, dtype=bool)
        fixed[:3, :] = True
        fixed[3:6, 1:] = True
        out.append((W0.reshape(-1), ~fixed.reshape(-1)))
        # branch with a single active Cartan row (0, 0, -1)
        W1 = rng.uniform(-1.0, 1.0, size=_INJ_SHAPE)
        W1[:3] = 0.0
        W1[2, 0] = -1.0
        W1[4] = 0.0
        fixed = np.zeros(_INJ_SHAPE, dtype=bool)
        fixed[:3, :] = True
        fixed[4, :] = True
        out.append((W1.reshape(-1), ~fixed.reshape(-1)))
    if (d2, d1) == _REST_SHAPE:
        W0 = np.zeros(_REST_SHAPE)
        W0[:, 2] = rng.uniform(-1.0, 1.0, size=3)
        fixed = np.zeros(_REST_SHAPE, dtype=bool)
        fixed[:, [0, 1, 3, 4, 5, 6, 7, 8]] = True
        out.append((W0.reshape(-1), ~fixed.reshape(-1)))
    # identity-shaped start helps source == target systems
    if d1 == d2:
        out.append((np.eye(d1).reshape(-1), np.ones(d1 * d1, dtype=bool)))
    return out


_QUANTUM = 1e-9
#: The residual norm at which the Gauss-Newton polish stops: the
#: rounding floor of the constraint kernels.
_POLISH_FLOOR = 1e-14


def _quantize(x: np.ndarray, quantum: float) -> np.ndarray:
    return np.round(x / quantum) * quantum


def _min_norm_steps(J: np.ndarray, r: np.ndarray, m: int) -> np.ndarray:
    """Minimum-norm least-squares solutions dx of J dx = -r for a stack
    J (G, m', k), r (G, m'), by one batched SVD, where J holds the rows of
    an m-row problem that are not zero throughout (zero rows change
    neither the singular values nor the step).  Singular values at or
    below eps max(m, k) s_max count as zero, the cut-off of
    ``np.linalg.lstsq(J, -r, rcond=None)`` on the m-row problem."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    keep = s > np.finfo(float).eps * max(m, J.shape[2]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    c = inv * (np.swapaxes(U, 1, 2) @ r[..., None])[..., 0]
    return -(np.swapaxes(Vt, 1, 2) @ c[..., None])[..., 0]


def _steps(system: ConstraintSystem, X, R, masks, group) -> np.ndarray:
    """Gauss-Newton steps for the rows of X (S, n) with residuals R: the
    min-norm step over each row's free entries masks[group[row]], zero on
    the fixed ones.  Rows that share a mask share one batched SVD."""
    J = system.jacobian_stack(X.reshape(len(X), *system.shape))
    nonzero = J != 0
    dX = np.zeros_like(X)
    for g in np.unique(group):
        rows, free = np.flatnonzero(group == g), masks[g]
        live = np.flatnonzero(nonzero[rows][:, :, free].any(axis=(0, 2)))
        dX[np.ix_(rows, free)] = _min_norm_steps(
            J[np.ix_(rows, live, free)], R[np.ix_(rows, live)], J.shape[1])
    return dX


def _lockstep_gauss_newton(system: ConstraintSystem, X0: np.ndarray,
                           free: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton from every row of X0 (S, n) at once, updating
    only the entries where ``free`` (S, n) is set; returns the solutions
    (flat, in row order) of the rows that converged.

    Each row follows its own trajectory: iterates are quantized to 1e-9
    so the run is reproducible bit-for-bit; a row stops once its residual
    norm is <= 1e-7, is dropped after 200 iterations or when no step
    length alpha = 1, 1/2, ... > 1e-6 lowers its residual; then
    full-precision Newton steps polish it while its residual norm is
    above the rounding floor 1e-14, at most 4 of them (a row that enters
    at or below the floor takes none), the result is rounded to 1e-12,
    with no -0.0, and kept if its residual is <= 1e-10."""
    def residuals(X):
        return system.residual_stack(X.reshape(len(X), *system.shape))

    masks, group = np.unique(free, axis=0, return_inverse=True)
    group = group.reshape(-1)
    X = _quantize(X0, _QUANTUM)
    R = residuals(X)
    norms = np.linalg.norm(R, axis=1)
    active = np.arange(len(X))
    converged = []
    for _ in range(200):
        done = norms[active] <= 1e-7
        converged.extend(active[done])
        active = active[~done]
        if not len(active):
            break
        dX = _steps(system, X[active], R[active], masks, group[active])
        pending = np.arange(len(active))
        alpha = 1.0
        while alpha > 1e-6 and len(pending):
            rows = active[pending]
            Xn = _quantize(X[rows] + alpha * dX[pending], _QUANTUM)
            Rn = residuals(Xn)
            nn = np.linalg.norm(Rn, axis=1)
            better = nn < norms[rows]
            won = rows[better]
            X[won], R[won], norms[won] = Xn[better], Rn[better], nn[better]
            pending = pending[~better]
            alpha *= 0.5
        active = np.delete(active, pending)
    rows = np.sort(np.asarray(converged, dtype=int))
    Xc, Rc = X[rows], R[rows]
    # full-precision polish (quadratic convergence from a quantized
    # point); a step below the floor lowers nothing
    for _ in range(4):
        live = np.flatnonzero(np.linalg.norm(Rc, axis=1) > _POLISH_FLOOR)
        if not len(live):
            break
        Xc[live] += _steps(system, Xc[live], Rc[live], masks,
                           group[rows[live]])
        Rc[live] = residuals(Xc[live])
    # + 0.0 turns a -0.0 into 0.0, whatever steps a row took
    Xc = _quantize(Xc, 1e-12) + 0.0
    return Xc[np.linalg.norm(residuals(Xc), axis=1) <= 1e-10]


def solve_numeric(system: ConstraintSystem, seeds: int, seed: int = 0):
    """Exact solutions (residual <= 1e-10) of the quadratic system,
    deduplicated and ordered deterministically.

    Each of the ``seeds`` rounds adds one random start and one start per
    known branch shape (plus the identity for square systems), each with
    its own mask of free entries.  All starts advance in lockstep as one
    (S, n) stack through damped Gauss-Newton (see
    :func:`_lockstep_gauss_newton`): each iteration takes one batched
    residual, one batched Jacobian and one batched SVD min-norm step per
    group of starts sharing a mask."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    rng = np.random.default_rng(seed)
    d2, d1 = system.shape
    n = d1 * d2

    starts = []
    for _ in range(seeds):
        starts.append((rng.uniform(-1.0, 1.0, size=n), np.ones(n, dtype=bool)))
        starts.extend(_pattern_starts(system, rng))
    X0, free = (np.array(col) for col in zip(*starts))
    found = _lockstep_gauss_newton(system, X0, free)
    # order deterministically, then keep each solution farther than 1e-6
    # (max-abs) from every solution kept before it
    found = found[np.lexsort(np.round(found, 6).T[::-1])]
    kept = []
    for i, x in enumerate(found):
        if not kept or np.max(np.abs(found[kept] - x), axis=1).min() > 1e-6:
            kept.append(i)
    return [
        HomoMatrix(
            W=W,
            residual=residual(W, system),
            branch_tag=tag_branch(W),
        )
        for W in found[kept].reshape(-1, d2, d1)
    ]


# ---------------------------------------------------------------------------
# r = 1 closed-form homomorphism
# ---------------------------------------------------------------------------


def _homomorphism_forward(W, b, t) -> np.ndarray:
    """The homomorphism stage of the chain in the chart (T, Y2),
    T = e^{-Y1}, where it is affine: rows (T, Y2) -> (T, W Y2 + (1 - T) b),
    computed on the columns."""
    cols = spaces._columns(t)
    out = np.empty((1 + len(W),) + cols.shape[1:],
                   dtype=np.result_type(cols, W, b, float))
    out[0] = cols[0]
    np.matmul(W, cols[1:], out=out[1:])
    out[1:] += np.multiply.outer(b, 1.0 - cols[0])
    return out.T


def _homomorphism_pullback(W, b, t, grad):
    """Pullback of :func:`_homomorphism_forward` at real rows t (B, d):
    the gradients of grad . out with respect to t, W and b."""
    cols, g = spaces._columns(t), spaces._columns(grad)
    g2 = g[1:]
    g_t = np.concatenate([(g[0] - b @ g2)[None], W.T @ g2])
    return g_t.T, g2 @ cols[1:].T, g2 @ (1.0 - cols[0])


def r1_homomorphism(W: np.ndarray, b: np.ndarray, coords: SolvCoords,
                    target: SpaceId | None = None) -> SolvCoords:
    """Closed-form group homomorphism between r=1 layers:
    (Y1, Y2) -> (Y1, W Y2 + (1 - e^{-Y1}) b), by
    :func:`_homomorphism_forward`; Y1 passes through as given.  Complex
    inputs propagate analytically."""
    coords.space._require_r1()
    W = np.asarray(W)
    s1 = coords.space.subpaint_dim
    if W.shape[1] != s1:
        raise ValueError(f"W must have {s1} columns for source {coords.space}")
    s2 = W.shape[0]
    b = np.zeros(s2) if b is None else np.asarray(b)
    if b.shape != (s2,):
        raise ValueError("translation vector has wrong length")
    if target is None:
        target = SpaceId.so(1, s2)
    elif target.subpaint_dim != s2:
        raise ValueError("target space inconsistent with W")
    out = _homomorphism_forward(W, b, spaces._to_t_chart(coords.values))
    out[0] = coords.values[0]
    return SolvCoords(target, out)


# ---------------------------------------------------------------------------
# Coframes and closed-form coordinate maps
# ---------------------------------------------------------------------------


def coframe(space: SpaceId, values: np.ndarray) -> np.ndarray:
    """Coframe matrix E with E^i = E[i, j] dY_j at the given coordinates,
    for every family: the left-invariant form L^{-1} dL of the chart
    L = sigma(Y), with derivatives taken by complex step (exact to machine
    precision), expanded on ``solvable_generators(space).stack`` by
    one least-squares solve."""
    values = np.asarray(values, dtype=float)
    d = space.dim
    h = 1e-200
    L = spaces.sigma_matrix(space, values)
    dL = np.imag(spaces.sigma_matrix(space, values + 1j * h * np.eye(d))) / h
    theta = np.linalg.solve(L, dL)  # theta[j] = L^{-1} dL/dY_j
    basis = spaces.solvable_generators(space).stack
    return np.linalg.lstsq(basis.reshape(d, -1).T, theta.reshape(d, -1).T,
                           rcond=None)[0]


@dataclasses.dataclass(frozen=True)
class _MapPlan:
    """The part of :func:`coordinate_map_batch` that W alone fixes, built
    once per W by :func:`_map_plan`; every array is read-only.

    An image phi(T_k) = W^i_k T'_i splits as D + N, its diagonal and its
    strictly upper part.  When every nonzero N_ij has the same gap
    D_i - D_j = c, i.e. [D, N] = c N, each path i -> j of length m
    through N meets the equispaced exponents a D_j, a D_j + a c, ...,
    a D_i, whose divided differences of exp sum to the closed form
        expm(a (D + N)) = (sum_{p<m} (u N)^p / p!) e^{a D},
        u = (e^{a c} - 1) / c, or u = a when c = 0 (D and N commute),
    with N^m = 0 (m <= n).  numpy divides a complex value by a real c as
    its product with 1 / c, inf below ~5.6e-309, so where c is subnormal
    u is the series a (1 + a c / 2): a itself where c = 0, and exact to
    the last bit while |a c| < 2^-52.  Any other image takes one
    ``scipy.linalg.expm`` on its whole (B, n, n) stack."""

    images: np.ndarray  # (K, n, n)
    D: np.ndarray  # (K, n): the diagonals
    c: np.ndarray  # (K, 1): the gaps
    tiny: np.ndarray | None  # (K, 1): c is 0 or subnormal; None if all 0
    safe: np.ndarray | None  # (K, 1): c, with 1 where tiny
    # (K, m, n*n): N^p / p! for p < m, cut at the last nonzero power so
    # that no u^p multiplies a vanished power, and its exponents (m,)
    powers: np.ndarray
    ramp: np.ndarray
    expm: tuple  # the k whose image has no closed form


@functools.lru_cache(maxsize=64)
def _map_plan(data: bytes, dtype: np.dtype, shape: tuple, source: SpaceId,
              target: SpaceId) -> _MapPlan:
    """The plan of the W whose contents are ``data``, so that an equal W
    reuses it and a W changed in place gets its own.  Refuses (ValueError)
    a W whose shape is not (target.dim, source.dim)."""
    if shape != (target.dim, source.dim):
        raise ValueError(f"W has shape {shape}, but a map {source} -> "
                         f"{target} needs {(target.dim, source.dim)}")
    W = np.frombuffer(data, dtype).reshape(shape)
    n = target.N
    gens = spaces.solvable_generators(target).stack
    images = (W.T @ gens.reshape(target.dim, n * n)).reshape(-1, n, n)
    K = len(images)
    D = images.reshape(K, n * n)[:, :: n + 1]
    N = images.copy()
    N.reshape(K, n * n)[:, :: n + 1] = 0.0
    gaps = D[:, :, None] - D[:, None, :]
    live = N != 0
    # closed iff the live gaps span [lo, hi] with lo = hi = c; no live
    # entry leaves hi = -inf, where c = 0 serves (N = 0)
    hi = np.maximum.reduce(gaps, axis=(1, 2), where=live, initial=-np.inf)
    lo = np.minimum.reduce(gaps, axis=(1, 2), where=live, initial=np.inf)
    c = np.where(hi == -np.inf, 0.0, hi)[:, None]
    tiny = safe = None
    if c.any():
        tiny = np.abs(c) < np.finfo(c.dtype).tiny
        safe = np.where(tiny, 1.0, c)
    powers = np.empty((K, n, n * n), dtype=N.dtype)
    powers[:, 0] = np.eye(n).reshape(-1)
    m, power = 1, N
    while power.any():
        powers[:, m] = power.reshape(K, n * n)
        m += 1
        power = power @ N / m
    plan = _MapPlan(images, D.copy(), c, tiny, safe, powers[:, :m].copy(),
                    np.arange(m), tuple(np.flatnonzero(hi > lo)))
    for field in (images, plan.D, c, tiny, safe, plan.powers, plan.ramp):
        if field is not None:
            field.setflags(write=False)
    return plan


def coordinate_map_batch(W: HomoMatrix, values) -> np.ndarray:
    """Closed-form coordinate map of a verified homomorphism matrix on a
    batch (..., d1) of raw source coordinates, returning (..., d2) raw
    target coordinates: sigma_target^{-1}(prod_k expm(a_k phi(T_k))), with
    a = exp_factors(x) and the images phi(T_k) = W^i_k T'_i.

    What W alone fixes is planned once per W (:class:`_MapPlan`, of
    which :func:`_map_plan` keeps the last 64); a W seen before costs one
    ``tobytes`` and a hash, a new W also the plan.  A call then forms u,
    the polynomials and e^{aD} for its points, multiplies the factors by
    batched matmuls and reads them back with one ``sigma_inv_matrix``.

    A factor is closed-form when [D, N] = c N for one scalar c.  That
    covers every root image (D = 0) and the Cartan images of
    ``W_canonical`` (N = 0), of r=1 layer maps and of every restriction
    into an r=1 space.  The Cartan images of ``W_family_11/12`` take one
    ``scipy.linalg.expm`` each on the whole (B, n, n) stack; nothing loops
    over points.  scipy is imported by the first call that needs ``expm``,
    and by no other.  Complex inputs propagate analytically.

    Refuses (ValueError) a W whose shape is not (d2, d1), (CartanBoundError)
    a source Cartan coordinate beyond CARTAN_BOUND or NaN, before any exp,
    and (FactorizationError) a product that is not finite, without a
    warning."""
    src, tgt = W.source, W.target
    if src is None or tgt is None:
        raise ValueError("coordinate maps require source/target space ids")
    values = np.asarray(values)
    if values.shape[-1:] != (src.dim,):
        raise ValueError(f"expected {src.dim} coordinates for {src}")
    M = np.asarray(W.W)
    plan = _map_plan(M.tobytes(), M.dtype, M.shape, src, tgt)
    x = values.reshape(-1, src.dim)
    spaces._check_cartan_bound(x[:, :len(spaces._chart_table(src).cart)].real)
    a = spaces.exp_factors(src, x).T
    n = tgt.N
    with np.errstate(over="ignore", invalid="ignore"):
        u = a
        if plan.tiny is not None:
            u = np.where(plan.tiny, a * (1.0 + 0.5 * a * plan.c),
                         np.expm1(a * plan.safe) / plan.safe)
        poly = (u[..., None] ** plan.ramp) @ plan.powers
        F = (poly.reshape(a.shape + (n, n))
             * np.exp(a[..., None] * plan.D[:, None, :])[..., None, :])
        if plan.expm:
            # imported here, on the first W that needs it, so that no other
            # import of the package loads scipy
            import scipy.linalg
        for k in plan.expm:
            F[k] = scipy.linalg.expm(a[k, :, None, None] * plan.images[k])
        L = F[0]
        for factor in F[1:]:
            L = L @ factor
    if not np.isfinite(L).all():
        raise spaces.FactorizationError(
            "the image of the source point is not finite")
    return spaces.sigma_inv_matrix(tgt, L).reshape(values.shape[:-1]
                                                   + (tgt.dim,))


def integrate_coordinate_map(W: HomoMatrix, source_coords: SolvCoords) -> SolvCoords:
    """Coordinate map induced by a verified homomorphism matrix, in closed
    form.  W sends each source generator T_k to phi(T_k) = W^i_k T'_i, so
    the group homomorphism with Phi(0) = 0, which solves the coframe
    relation E_target(Y) dY = W e_source(x) dx from the origin, is
    sigma_target^{-1}(prod_k expm(a_k(x) phi(T_k))) with a = exp_factors(x)
    the exponents of the source chart's one-parameter subgroups.  One row
    of :func:`coordinate_map_batch`, with its checks: only the Cartan
    images of ``W_family_11/12`` call ``scipy.linalg.expm``, which imports
    scipy on the first such call, and W's plan is built on the first call
    with a W of these contents, so repeated calls do only the work of
    their one point."""
    src, tgt = W.source, W.target
    if src is None or tgt is None:
        raise ValueError("coordinate maps require source/target space ids")
    if source_coords.space != src:
        raise ValueError("source coordinates live in the wrong space")
    return SolvCoords(tgt, coordinate_map_batch(W, source_coords.values))


# ---------------------------------------------------------------------------
# CLI algebra naming
# ---------------------------------------------------------------------------


def space_for_name(name: str) -> SpaceId:
    """Space id for an algebra name: r1(q), borel_sl(N) or solv_so(r,q)."""
    name = name.strip().lower().replace(" ", "")
    if name.startswith("r1(") and name.endswith(")"):
        q = int(name[3:-1])
        return SpaceId.so(1, q + 1)
    if name.startswith("borel_sl(") and name.endswith(")"):
        return SpaceId.sl(int(name[9:-1]))
    if name.startswith("solv_so(") and name.endswith(")"):
        parts = name[8:-1].split(",")
        r, total = int(parts[0]), int(parts[1])
        return SpaceId.so(r, total - r)
    raise ValueError(f"unsupported algebra name: {name!r}")


def mc_for_name(name: str) -> MCStructure:
    """MC structure for a CLI algebra name."""
    return mc_structure(space_for_name(name))
