"""Solvable-group models of non-compact symmetric spaces.

A space U/H in the families SO(r,r+q)/(SO(r)xSO(r+q)) or SL(N)/SO(N) is
represented through its solvable (Borel/Iwasawa) group: a point is either a
coordinate vector, an upper-triangular group element L, or the symmetric
coset matrix M = L L^T.  All three representations convert into each other
in closed form (for r=1) or by ordered-exponential / triangular-peeling
algorithms (general case).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

__all__ = [
    "SpaceId",
    "EtaForm",
    "SolvAlgebraSpec",
    "SolvCoords",
    "TriangularElement",
    "CosetPoint",
    "CartanBoundError",
    "FactorizationError",
    "hyperbolic",
    "build_eta",
    "solvable_generators",
    "sigma",
    "sigma_inv",
    "exp_factors",
    "cholesky_crout",
    "to_coset",
    "group_product",
    "group_inverse",
    "metric_at",
    "coset_distance",
    "ts_project",
    "structure_constants_from_generators",
]

#: Bound on the Cartan coordinate(s); beyond this e^{w} overflows usefully.
CARTAN_BOUND = 300.0

SQRT2 = math.sqrt(2.0)


class CartanBoundError(ValueError):
    """A Cartan coordinate exceeded the configured overflow bound."""


class FactorizationError(ValueError):
    """Symmetric matrix is not positive definite (no triangular factor)."""


# ---------------------------------------------------------------------------
# Space identifiers
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SpaceId:
    """Identifier of a symmetric space.

    ``family`` is ``"so"`` for SO(r,r+q)/(SO(r)xSO(r+q)) with matrix size
    N = 2r+q, or ``"sl"`` for SL(n)/SO(n).  For the r=1 (hyperbolic) family
    the manifold is H^{q+1}: one Cartan coordinate plus a subPaint vector of
    length q.
    """

    family: str
    r: int = 0
    q: int = 0
    n_sl: int = 0

    @staticmethod
    def so(r: int, q: int) -> "SpaceId":
        if r < 1 or q < 0:
            raise ValueError("so-family requires r >= 1 and q >= 0")
        return SpaceId("so", r=r, q=q)

    @staticmethod
    def sl(n: int) -> "SpaceId":
        if n < 2:
            raise ValueError("sl-family requires n >= 2")
        return SpaceId("sl", n_sl=n)

    @property
    def N(self) -> int:
        """Matrix size of the defining representation."""
        return 2 * self.r + self.q if self.family == "so" else self.n_sl

    @property
    def dim(self) -> int:
        """Dimension of the solvable group / the manifold."""
        if self.family == "so":
            return self.r + self.r * self.q + self.r * (self.r - 1)
        n = self.n_sl
        return n * (n + 1) // 2 - 1

    @property
    def is_r1(self) -> bool:
        return self.family == "so" and self.r == 1

    @property
    def subpaint_dim(self) -> int:
        """Length of the subPaint vector (r=1 family only)."""
        self._require_r1()
        return self.q

    @property
    def fiber_dim(self) -> int:
        """Number of fiber directions mixed with the Cartan coordinate."""
        self._require_r1()
        return max(self.q - 1, 0)

    def _require_r1(self) -> None:
        if not self.is_r1:
            raise ValueError(f"operation requires an r=1 space, got {self}")

    def __str__(self) -> str:
        if self.family == "so":
            return f"so({self.r},{self.r + self.q})"
        return f"sl({self.n_sl})"


def hyperbolic(n: int) -> SpaceId:
    """The hyperbolic space H^n as an r=1 solvable group (n >= 1)."""
    if n < 1:
        raise ValueError("hyperbolic dimension must be >= 1")
    return SpaceId.so(1, n - 1)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EtaForm:
    """Invariant bilinear form in triangular (eta_t) and diagonal (eta_b)
    bases, with the orthogonal change of basis Omega eta_t Omega^T = eta_b."""

    n: int
    entries: np.ndarray
    basis: str
    omega: np.ndarray


@dataclasses.dataclass(frozen=True)
class SolvAlgebraSpec:
    """Basis of the solvable Lie algebra with its structure constants.

    ``generators[i]`` are upper-triangular matrices, Cartan generators first,
    then root generators by ascending height; ``structure_constants[i,j,k]``
    is f^i_{jk} with [T_j, T_k] = f^i_{jk} T_i.
    """

    space: SpaceId
    d: int
    generators: tuple
    structure_constants: np.ndarray
    ordering: tuple


@dataclasses.dataclass(frozen=True)
class SolvCoords:
    """A point in solvable coordinates (Cartan entries first)."""

    space: SpaceId
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.dim,):
            raise ValueError(
                f"expected {self.space.dim} coordinates for {self.space}, "
                f"got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("coordinates must be finite")


@dataclasses.dataclass(frozen=True)
class TriangularElement:
    """Upper-triangular solvable group element L."""

    space: SpaceId
    matrix: np.ndarray


@dataclasses.dataclass(frozen=True)
class CosetPoint:
    """Symmetric coset matrix M = L L^T (compensator-free representation)."""

    space: SpaceId
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# eta forms
# ---------------------------------------------------------------------------


def build_eta(space: SpaceId) -> EtaForm:
    """Invariant form: antidiagonal 1s on the r outer corner pairs, identity
    on the q-dimensional middle block; Omega rotates it to the diagonal
    signature (+1 x (r+q), -1 x r)."""
    if space.family != "so":
        raise ValueError("eta form is defined for the so family only")
    n = space.N
    r, q = space.r, space.q
    eta = np.zeros((n, n))
    for i in range(r):
        eta[i, n - 1 - i] = 1.0
        eta[n - 1 - i, i] = 1.0
    for a in range(r, r + q):
        eta[a, a] = 1.0
    omega = np.zeros((n, n))
    row = 0
    for i in range(r):  # +1 eigenvectors from the corner pairs
        omega[row, i] = 1.0 / SQRT2
        omega[row, n - 1 - i] = 1.0 / SQRT2
        row += 1
    for a in range(r, r + q):  # middle block is already diagonal
        omega[row, a] = 1.0
        row += 1
    for i in range(r):  # -1 eigenvectors
        omega[row, i] = 1.0 / SQRT2
        omega[row, n - 1 - i] = -1.0 / SQRT2
        row += 1
    return EtaForm(n=n, entries=eta, basis="triangular", omega=omega)


# ---------------------------------------------------------------------------
# Generators and structure constants
# ---------------------------------------------------------------------------


def _unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def _so_generators(space: SpaceId):
    """Upper-triangular basis of the solvable algebra of so(r,r+q).

    Cartans H_i = E_ii - E_{n-1-i,n-1-i}; nilpotents come in three families
    (short-root pairs mixing the corner blocks with the middle block carry
    the 1/sqrt(2) normalization so that r=1 reduces to the closed-form
    conventions used by :func:`sigma`)."""
    n, r, q = space.N, space.r, space.q
    gens, labels = [], []
    for i in range(r):
        gens.append(_unit(n, i, i) - _unit(n, n - 1 - i, n - 1 - i))
        labels.append(f"C{i + 1}")
    # sort key: (height, family letter, numeric indices), so that S1.10
    # follows S1.9 and coordinate k stays paired with middle direction k
    nil = []
    for i in range(r):  # eps_i - eps_j
        for j in range(i + 1, r):
            m = _unit(n, i, j) - _unit(n, n - 1 - j, n - 1 - i)
            nil.append(((j - i, "A", i, j), f"A{i + 1},{j + 1}", m))
    for i in range(r):  # eps_i (one copy per middle direction)
        for a in range(r, r + q):
            m = (_unit(n, i, a) - _unit(n, a, n - 1 - i)) / SQRT2
            nil.append(((r - i, "S", i, a), f"S{i + 1}.{a - r + 1}", m))
    for i in range(r):  # eps_i + eps_j
        for j in range(i + 1, r):
            m = _unit(n, i, n - 1 - j) - _unit(n, j, n - 1 - i)
            nil.append(((2 * r - i - j, "B", i, j), f"B{i + 1},{j + 1}", m))
    nil.sort(key=lambda t: t[0])
    for _, lab, m in nil:
        gens.append(m)
        labels.append(lab)
    return gens, labels


def _sl_root_labels(n: int):
    """Positive-root labels [h, k] of sl(n), sorted by height then start."""
    ell = n - 1
    return [(h, k) for h in range(1, ell + 1) for k in range(1, ell - h + 2)]


def _sl_generators(space: SpaceId):
    """Traceless upper-triangular basis: Cartans H_j = E_jj - E_00 (j>=1),
    then root step operators E_{k-1,k-1+h} labeled [h,k]."""
    n = space.N
    gens, labels = [], []
    for j in range(1, n):
        gens.append(_unit(n, j, j) - _unit(n, 0, 0))
        labels.append(f"C{j}")
    for h, k in _sl_root_labels(n):
        gens.append(_unit(n, k - 1, k - 1 + h))
        labels.append(f"[{h},{k}]")
    return gens, labels


def structure_constants_from_generators(gens) -> np.ndarray:
    """f^i_{jk} with [T_j,T_k] = f^i_{jk} T_i, by least squares on the
    vectorized basis; raises if a commutator leaves the span."""
    d = len(gens)
    n = gens[0].shape[0]
    basis = np.stack([g.reshape(-1) for g in gens], axis=1)  # (n^2, d)
    f = np.zeros((d, d, d))
    for j in range(d):
        for k in range(j + 1, d):
            comm = gens[j] @ gens[k] - gens[k] @ gens[j]
            coef, res, _, _ = np.linalg.lstsq(basis, comm.reshape(-1), rcond=None)
            recon = (basis @ coef).reshape(n, n)
            if not np.allclose(recon, comm, atol=1e-10):
                raise ValueError("commutator not in the span of the basis")
            coef[np.abs(coef) < 1e-12] = 0.0
            f[:, j, k] = coef
            f[:, k, j] = -coef
    return f


_ALG_CACHE: dict = {}


def solvable_generators(space: SpaceId) -> SolvAlgebraSpec:
    """Solvable algebra basis plus numerically extracted structure constants."""
    if space in _ALG_CACHE:
        return _ALG_CACHE[space]
    if space.family == "so":
        gens, labels = _so_generators(space)
    else:
        gens, labels = _sl_generators(space)
    if len(gens) != space.dim:
        raise AssertionError("generator count does not match the dimension")
    f = structure_constants_from_generators(gens)
    spec = SolvAlgebraSpec(
        space=space,
        d=space.dim,
        generators=tuple(g for g in gens),
        structure_constants=f,
        ordering=tuple(labels),
    )
    _ALG_CACHE[space] = spec
    return spec


# ---------------------------------------------------------------------------
# Exponential map sigma and its inverse
# ---------------------------------------------------------------------------


def _check_cartan_bound(values_real) -> None:
    if np.any(np.abs(values_real) > CARTAN_BOUND):
        raise CartanBoundError(
            f"Cartan coordinate exceeds the bound {CARTAN_BOUND}"
        )


def r1_matrix(space: SpaceId, values: np.ndarray) -> np.ndarray:
    """Closed-form L(w) for the r=1 family; supports batched (..., d) input
    and complex dtype (for derivative propagation)."""
    n = space.N
    values = np.asarray(values)
    w1 = values[..., 0]
    sub = values[..., 1:]
    _check_cartan_bound(np.real(w1))
    e = np.exp(w1)
    out_shape = values.shape[:-1] + (n, n)
    L = np.zeros(out_shape, dtype=values.dtype)
    idx = np.arange(n)
    L[..., idx, idx] = 1.0
    L[..., 0, 0] = e
    L[..., n - 1, n - 1] = np.exp(-w1)
    L[..., 0, 1 : n - 1] = e[..., None] * sub / SQRT2
    L[..., 1 : n - 1, n - 1] = -sub / SQRT2
    L[..., 0, n - 1] = -0.25 * e * np.sum(sub * sub, axis=-1)
    return L


def sl_matrix(space: SpaceId, values: np.ndarray) -> np.ndarray:
    """Ordered-product group element for sl(n): diagonal Cartan factor times
    unitriangular root factors in height order.  Batched / complex safe."""
    n = space.N
    values = np.asarray(values)
    ell = n - 1
    cart = values[..., :ell]
    _check_cartan_bound(np.real(cart))
    diag = np.zeros(values.shape[:-1] + (n,), dtype=values.dtype)
    diag[..., 0] = 0.5 * np.sum(cart, axis=-1)
    diag[..., 1:] = -0.5 * cart
    L = np.zeros(values.shape[:-1] + (n, n), dtype=values.dtype)
    idx = np.arange(n)
    L[..., idx, idx] = np.exp(diag)
    for pos, (h, k) in enumerate(_sl_root_labels(n)):
        c = values[..., ell + pos]
        # right-multiply by I - c E_{k-1,k-1+h}: col k-1+h -= c * col k-1
        L[..., :, k - 1 + h] = L[..., :, k - 1 + h] - c[..., None] * L[..., :, k - 1]
    return L


def sigma(coords: SolvCoords) -> TriangularElement:
    """Exponential map from solvable coordinates to the triangular group."""
    space = coords.space
    if space.is_r1:
        return TriangularElement(space, r1_matrix(space, coords.values))
    if space.family == "sl":
        return TriangularElement(space, sl_matrix(space, coords.values))
    # generic so family: ordered product of single-generator exponentials
    spec = solvable_generators(space)
    _check_cartan_bound(np.real(coords.values[: space.r]))
    L = np.eye(space.N)
    for a, T in zip(exp_factors(space, coords.values), spec.generators):
        L = L @ scipy.linalg.expm(a * T)
    return TriangularElement(space, L)


def exp_factors(space: SpaceId, values) -> np.ndarray:
    """Exponents a of the chart as an ordered product of one-parameter
    subgroups: sigma(x) = prod_k expm(a_k T_k) over
    ``solvable_generators(space).generators``.  a = x for the so family
    and a = (-x_cartan / 2, -x_roots) for sl.  Batched / complex safe."""
    values = np.asarray(values)
    if space.family == "so":
        return values
    ell = space.N - 1
    return np.concatenate([-0.5 * values[..., :ell], -values[..., ell:]],
                          axis=-1)


def r1_coords_from_matrix(space: SpaceId, L: np.ndarray) -> np.ndarray:
    """Inverse chart for r=1 (batched / complex safe)."""
    n = space.N
    d00 = L[..., 0, 0]
    if np.any(np.real(d00) <= 0):
        raise ValueError("triangular element must have positive diagonal")
    w1 = np.log(d00)
    sub = -SQRT2 * L[..., 1 : n - 1, n - 1]
    return np.concatenate([w1[..., None], sub], axis=-1)


def sl_coords_from_matrix(space: SpaceId, L: np.ndarray) -> np.ndarray:
    """Inverse chart for sl(n): Cartans from the diagonal, then peel the
    unitriangular part one root at a time in height order."""
    n = space.N
    ell = n - 1
    ddiag = np.diagonal(L, axis1=-2, axis2=-1)
    if np.any(np.real(ddiag) <= 0):
        raise ValueError("triangular element must have positive diagonal")
    cart = -2.0 * np.log(ddiag[..., 1:])
    # remove the diagonal factor from the left: row i scaled by 1/diag_i
    R = L / ddiag[..., :, None]
    coords = [cart]
    root_vals = np.zeros(L.shape[:-2] + (len(_sl_root_labels(n)),), dtype=L.dtype)
    for pos, (h, k) in enumerate(_sl_root_labels(n)):
        c = -R[..., k - 1, k - 1 + h]
        root_vals[..., pos] = c
        # peel exp(c K) from the left: row k-1 += (+c) * row k-1+h  (K=-E)
        R[..., k - 1, :] = R[..., k - 1, :] + c[..., None] * R[..., k - 1 + h, :]
    coords.append(root_vals)
    return np.concatenate(coords, axis=-1)


def sigma_inv(L: TriangularElement) -> SolvCoords:
    """Inverse of :func:`sigma` via closed form (r=1), triangular peeling
    (sl), or height-ordered generic peeling (so, r >= 2)."""
    space = L.space
    if space.is_r1:
        return SolvCoords(space, r1_coords_from_matrix(space, L.matrix))
    if space.family == "sl":
        return SolvCoords(space, sl_coords_from_matrix(space, L.matrix))
    spec = solvable_generators(space)
    m = np.asarray(L.matrix, dtype=float)
    diag = np.diag(m)
    if np.any(diag <= 0):
        raise ValueError("triangular element must have positive diagonal")
    # Cartans: solve the linear system on the log-diagonal
    r = space.r
    cart_patterns = np.stack([np.diag(T) for T in spec.generators[:r]], axis=1)
    cart, *_ = np.linalg.lstsq(cart_patterns, np.log(diag), rcond=None)
    R = m.copy()
    vals = np.zeros(space.dim)
    vals[:r] = cart
    C = np.eye(space.N)
    for i in range(r):
        C = C @ scipy.linalg.expm(-cart[i] * spec.generators[i])
    R = C @ R
    for i in range(r, space.dim):
        T = spec.generators[i]
        # primary entry: first nonzero position in the pattern
        pi, pj = np.argwhere(np.abs(T) > 0)[0]
        c = R[pi, pj] / T[pi, pj]
        vals[i] = c
        R = scipy.linalg.expm(-c * T) @ R
    return SolvCoords(space, vals)


# ---------------------------------------------------------------------------
# Coset matrices
# ---------------------------------------------------------------------------


def to_coset(L: TriangularElement) -> CosetPoint:
    """Symmetric coset matrix M = L L^T."""
    m = L.matrix
    return CosetPoint(L.space, m @ np.swapaxes(m, -1, -2))


def cholesky_crout_matrix(M: np.ndarray) -> np.ndarray:
    """Upper-triangular Crout factor L with M = L L^T (batched / complex).

    Processes rows from the bottom-right corner: with L upper triangular,
    M_ij = sum_{k >= max(i,j)} L_ik L_jk."""
    M = np.asarray(M)
    n = M.shape[-1]
    L = np.zeros_like(M)
    for i in range(n - 1, -1, -1):
        s = M[..., i, i] - np.sum(L[..., i, i + 1 :] ** 2, axis=-1)
        if np.any(np.real(s) <= 0):
            raise FactorizationError("matrix is not positive definite")
        L[..., i, i] = np.sqrt(s)
        for j in range(i - 1, -1, -1):
            t = M[..., j, i] - np.sum(
                L[..., j, i + 1 :] * L[..., i, i + 1 :], axis=-1
            )
            L[..., j, i] = t / L[..., i, i]
    return L


def cholesky_crout(M: CosetPoint) -> TriangularElement:
    """The unique upper-triangular positive-diagonal factor of M."""
    return TriangularElement(M.space, cholesky_crout_matrix(M.matrix))


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------


def group_product(u: SolvCoords, w: SolvCoords) -> SolvCoords:
    """Product coordinates: sigma_inv(sigma(u) sigma(w)).

    For r=1 the closed form (validated against the matrix definition) is
    (u.w)_1 = u_1 + w_1 and (u.w)_sub = w_sub + e^{-w_1} u_sub."""
    if u.space != w.space:
        raise ValueError("group_product requires matching spaces")
    if u.space.is_r1:
        w1 = u.values[0] + w.values[0]
        sub = w.values[1:] + np.exp(-w.values[0]) * u.values[1:]
        return SolvCoords(u.space, np.concatenate([[w1], sub]))
    return sigma_inv(
        TriangularElement(u.space, sigma(u).matrix @ sigma(w).matrix)
    )


def group_inverse(u: SolvCoords) -> SolvCoords:
    """Inverse element coordinates."""
    if u.space.is_r1:
        return SolvCoords(
            u.space,
            np.concatenate([[-u.values[0]], -np.exp(u.values[0]) * u.values[1:]]),
        )
    return sigma_inv(
        TriangularElement(u.space, np.linalg.inv(sigma(u).matrix))
    )


def metric_at(coords: SolvCoords) -> np.ndarray:
    """Left-invariant metric G(w) for r=1:
    ds^2 = dw1^2 + sum_a (1/4)(w_{1+a} dw1 + dw_{1+a})^2."""
    space = coords.space
    space._require_r1()
    d = space.dim
    w = coords.values
    G = np.zeros((d, d))
    G[0, 0] = 1.0 + 0.25 * float(np.sum(w[1:] ** 2))
    for a in range(1, d):
        G[0, a] = G[a, 0] = 0.25 * w[a]
        G[a, a] = 0.25
    return G


def _distance_constant(space: SpaceId) -> float:
    # Calibrated so the Cartan-axis distance equals metric arc length
    # (r=1); for sl the normalization is the standard affine-invariant one.
    return 0.5 if space.family == "sl" else 1.0 / (2.0 * SQRT2)


def coset_distance(M1: CosetPoint, M2: CosetPoint) -> float:
    """Geodesic distance c * sqrt(sum_i log^2 lambda_i(M1^{-1} M2))."""
    if M1.space != M2.space:
        raise ValueError("coset_distance requires matching spaces")
    lam = scipy.linalg.eigvalsh(
        np.asarray(M2.matrix, dtype=float), np.asarray(M1.matrix, dtype=float)
    )
    if np.any(lam <= 0):
        raise FactorizationError("coset matrices must be positive definite")
    return _distance_constant(M1.space) * float(
        np.sqrt(np.sum(np.log(lam) ** 2))
    )


def coords_distance(u: SolvCoords, w: SolvCoords) -> float:
    """Geodesic distance between two points given in solvable coordinates."""
    return coset_distance(to_coset(sigma(u)), to_coset(sigma(w)))


def ts_project(coords: SolvCoords) -> SolvCoords:
    """Projection onto the maximally split submanifold: keeps the Cartan
    coordinate and the first subPaint component, zeroes the fiber ones."""
    coords.space._require_r1()
    v = np.array(coords.values, copy=True)
    v[2:] = 0.0
    return SolvCoords(coords.space, v)
