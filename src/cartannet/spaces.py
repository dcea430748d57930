"""Solvable-group models of non-compact symmetric spaces.

A space U/H in the families SO(r,r+q)/(SO(r)xSO(r+q)) or SL(N)/SO(N) is
represented through its solvable (Borel/Iwasawa) group: a point is either a
coordinate vector, an upper-triangular group element L, or the symmetric
coset matrix M = L L^T.  One table-driven, batched chart kernel per
direction converts coordinates to L and back for every family, using
T^3 = 0 for every root generator.  M is refactored into L by a batched
Crout algorithm that fills one column of L per step.  Geodesic distances
have a closed form on the r=1 (hyperbolic) family; elsewhere they are
taken from L directly (singular values of L_u^{-1} L_w), since forming M
squares the condition number.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

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
    "sigma_matrix",
    "sigma_inv_matrix",
    "exp_factors",
    "cholesky_crout_matrix",
    "cholesky_crout",
    "to_coset",
    "group_product",
    "group_inverse",
    "structure_constants_from_generators",
    "coords_distance",
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

    entries: np.ndarray
    omega: np.ndarray


@dataclasses.dataclass(frozen=True)
class SolvAlgebraSpec:
    """Basis of the solvable Lie algebra with its structure constants.

    ``stack`` (d, N, N) holds the upper-triangular generators, Cartan
    generators first, then root generators by ascending height;
    ``structure_constants[i,j,k]`` is f^i_{jk} with [T_j, T_k] = f^i_{jk} T_i.
    Both arrays are read-only.
    """

    space: SpaceId
    structure_constants: np.ndarray
    ordering: tuple
    stack: np.ndarray


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
        if not np.isfinite(v).all():
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


def _read_only(*arrays):
    """Freezes arrays a per-process cache hands out: one in-place write
    would corrupt every later call."""
    for a in arrays:
        a.setflags(write=False)


@functools.cache
def build_eta(space: SpaceId) -> EtaForm:
    """Invariant form: antidiagonal 1s on the r outer corner pairs, identity
    on the q-dimensional middle block; Omega, with rows (e_i + e_{n-1-i}) /
    sqrt2 (i < r), e_a (middle) and (e_i - e_{n-1-i}) / sqrt2, rotates it to
    the diagonal signature (+1 x (r+q), -1 x r).  Built once, read-only."""
    if space.family != "so":
        raise ValueError("eta form is defined for the so family only")
    n, r, q = space.N, space.r, space.q
    i, a = np.arange(r), np.arange(r, r + q)
    eta, omega = np.zeros((n, n)), np.zeros((n, n))
    eta[i, n - 1 - i] = eta[n - 1 - i, i] = eta[a, a] = omega[a, a] = 1.0
    omega[i, i] = omega[i, n - 1 - i] = omega[r + q + i, i] = 1.0 / SQRT2
    omega[r + q + i, n - 1 - i] = -1.0 / SQRT2
    _read_only(eta, omega)
    return EtaForm(entries=eta, omega=omega)


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
    basis = np.stack([g.reshape(-1) for g in gens], axis=1)  # (n^2, d)
    G = np.stack(gens)
    j, k = np.triu_indices(d, 1)
    comms = (G[j] @ G[k] - G[k] @ G[j]).reshape(len(j), len(basis)).T
    coef = np.linalg.lstsq(basis, comms, rcond=None)[0]  # one solve, all pairs
    if not np.allclose(basis @ coef, comms, atol=1e-10):
        raise ValueError("commutator not in the span of the basis")
    coef[np.abs(coef) < 1e-12] = 0.0
    f = np.zeros((d, d, d))
    f[:, j, k] = coef
    f[:, k, j] = -coef
    return f


def _basis(space: SpaceId):
    """Generators and labels of the solvable algebra, Cartans first."""
    return (_so_generators if space.family == "so" else _sl_generators)(space)


@functools.cache
def solvable_generators(space: SpaceId) -> SolvAlgebraSpec:
    """Solvable algebra basis plus numerically extracted structure
    constants, built once per space."""
    gens, labels = _basis(space)
    if len(gens) != space.dim:
        raise AssertionError("generator count does not match the dimension")
    f = structure_constants_from_generators(gens)
    stack = np.stack(gens)
    _read_only(f, stack)
    return SolvAlgebraSpec(
        space=space,
        structure_constants=f,
        ordering=tuple(labels),
        stack=stack,
    )


# ---------------------------------------------------------------------------
# The chart sigma and its inverse
# ---------------------------------------------------------------------------


def _columns(p) -> np.ndarray:
    """The rows (..., d) of a batch or SolvCoords as the contiguous columns
    (d, ...) the batched r=1 kernels compute on: a view of the stage
    chain's batches, which are kept so; other rows are copied once."""
    return np.ascontiguousarray(np.asarray(
        p.values if isinstance(p, SolvCoords) else p).T)


def _sum_squares(cols):
    """sum_i cols[i]^2 (no conjugate), accumulated row by row as a batch's
    np.sum(cols * cols, axis=0) is, without the squared copy."""
    return np.einsum("i...,i...->...", cols, cols)


def _check_cartan_bound(values_real) -> None:
    """Refuses a Cartan coordinate beyond CARTAN_BOUND or NaN (a NaN
    fails every comparison, so the test is on the values inside)."""
    if not (np.abs(values_real) <= CARTAN_BOUND).all():
        raise CartanBoundError(
            f"Cartan coordinate not finite or beyond the bound {CARTAN_BOUND}"
        )


#: |Y1| <= CARTAN_BOUND as a range of T = e^{-Y1}, with numpy's own exp.
_T_RANGE = np.exp([-CARTAN_BOUND, CARTAN_BOUND])


def _check_t_bound(t_real) -> None:
    """The Cartan bound in the chart (T, Y2) of the r=1 stage chain.
    minimum/maximum propagate NaN, which then fails the range test."""
    if not (np.minimum.reduce(t_real, axis=None) >= _T_RANGE[0]
            and np.maximum.reduce(t_real, axis=None) <= _T_RANGE[1]):
        raise CartanBoundError(
            f"Cartan coordinate not finite or beyond the bound {CARTAN_BOUND}"
        )


def _fresh_columns(values) -> np.ndarray:
    """A copy of rows (..., d) as contiguous columns (d, ...), of at least
    float type."""
    values = np.asarray(values)
    return np.array(values.T, dtype=np.result_type(values, float), order="C")


def _to_t_columns(cols) -> np.ndarray:
    """Columns (d, ...) of r=1 coordinates taken to the chart (T, Y2),
    T = e^{-Y1}, in place.  Y1 < -709 leaves T = inf without a warning:
    the Cartan check of the stage kernels refuses it."""
    with np.errstate(over="ignore"):
        cols[0] = np.exp(-cols[0])
    return cols


def _to_t_chart(p) -> np.ndarray:
    """Rows (..., d) of r=1 coordinates (a batch or SolvCoords) in the
    chart (T, Y2) with T = e^{-Y1}, the chart the r=1 stage kernels take:
    the transpose of fresh contiguous columns."""
    return _to_t_columns(_fresh_columns(
        p.values if isinstance(p, SolvCoords) else p)).T


def _from_t_chart(t) -> np.ndarray:
    """Inverse of :func:`_to_t_chart`, in place: Y1 = -log T."""
    t[..., 0] = -np.log(t[..., 0])
    return t


def _cotangent_from_t_chart(t, g) -> np.ndarray:
    """A cotangent (..., d) of the T chart at the rows t as one of
    coordinates, in place: g_Y1 = -T g_T, since dT/dY1 = -T."""
    g[..., 0] *= -t[..., 0]
    return g


def exp_factors(space: SpaceId, values) -> np.ndarray:
    """Exponents a of the chart as an ordered product of one-parameter
    subgroups: sigma(x) = prod_k expm(a_k T_k) over
    ``solvable_generators(space).stack``.  a = x for the so family
    and a = (-x_cartan / 2, -x_roots) for sl.  Batched / complex safe."""
    values = np.asarray(values)
    if space.family == "so":
        return values
    ell = space.N - 1
    return np.concatenate([-0.5 * values[..., :ell], -values[..., ell:]],
                          axis=-1)


@dataclasses.dataclass(frozen=True)
class _SigmaInvTable:
    """The root coordinates of sigma_inv as polynomials in the entries of
    R = diag(L)^{-1} L.  ``rows`` and ``cols`` (e,) name the entries the
    polynomials read, r = L[rows, cols] / diag[rows]; the coordinates are
    prod(r[monomials], -1) @ coefs over the m monomials (m, degree), each
    a list of reads padded with the read of R[0, 0] = 1, with coefs (m,
    roots).  Where every coordinate is one entry times a coefficient
    (degree one, the r=1 family), ``monomials`` is None, the entries come
    one per coordinate and the coordinates are r * coefs, coefs (roots,).
    Every array is read-only."""

    rows: np.ndarray
    cols: np.ndarray
    monomials: np.ndarray | None
    coefs: np.ndarray


@dataclasses.dataclass(frozen=True)
class _ChartTable:
    """sigma(x) = diag(exp(x_cartan @ cart)) prod_blocks (I + sum_k X_k).

    A block holds consecutive roots k whose terms X_k = x_k T_k +
    x_k^2 T_k^2 / 2 (T_k scaled by :func:`exp_factors`) annihilate each
    other in both orders.  Since T_k^3 = 0, their factors expm(x_k T_k) =
    I + X_k then multiply to I + sum_k X_k, and the same sum at -x undoes
    it.  Each block is (terms, rows, cols, inv): its (2k, N*N) terms T_k
    then T_k^2 / 2, and the last nonzero entry (rows[k], cols[k]) of each
    T_k with inv[k] = 1 / T_k[rows[k], cols[k]], which the block peel of
    :func:`_sigma_inv_table` reads.  ``inverse``, the table of
    :func:`sigma_inv_matrix`, is built on its first read.  Every array is
    read-only."""

    cart: np.ndarray  # (c, N): scaled Cartan diagonals
    # (2, N): the range [lo, hi] sigma_inv accepts for each diagonal entry:
    # e^{-+CARTAN_BOUND |cart|} on the entries it reads the Cartans from,
    # else the positive finite floats
    diag_range: np.ndarray
    cart_entry: np.ndarray  # (c,): the diagonal entry no other Cartan touches
    cart_inv: np.ndarray  # (c,): 1 / cart[i, cart_entry[i]]
    blocks: tuple  # at least one, possibly empty
    terms: np.ndarray  # (2 * roots, blocks * N*N): every block's terms
    eye: np.ndarray  # (N, N): identity

    @functools.cached_property
    def inverse(self) -> _SigmaInvTable:
        return _sigma_inv_table(self)


@functools.cache
def _chart_table(space: SpaceId) -> _ChartTable:
    """The table that drives :func:`sigma_matrix` and
    :func:`sigma_inv_matrix`, built once per space."""
    n, d = space.N, space.dim
    c = space.r if space.family == "so" else n - 1
    gens = (np.stack(_basis(space)[0])
            * exp_factors(space, np.ones(d))[:, None, None])
    cart = np.diagonal(gens[:c], axis1=1, axis2=2)
    alone = (cart != 0) & ((cart != 0).sum(axis=0) == 1)
    roots = gens[c:]
    if not alone.any(axis=1).all() or (roots @ roots @ roots).any():
        raise AssertionError(f"no chart table for the generators of {space}")
    groups = [[]]
    for k, T in enumerate(roots):
        if any((T @ roots[j]).any() or (roots[j] @ T).any()
               for j in groups[-1]):
            groups.append([])
        groups[-1].append(k)
    terms = np.zeros((2, d - c, len(groups), n * n))
    blocks = []
    for b, group in enumerate(groups):
        Ts = roots[group]
        terms[0, group, b] = Ts.reshape(-1, n * n)
        terms[1, group, b] = (0.5 * Ts @ Ts).reshape(-1, n * n)
        rows, cols = np.array([np.argwhere(T)[-1] for T in Ts],
                              dtype=int).reshape(-1, 2).T
        blocks.append((terms[:, group, b].reshape(-1, n * n), rows, cols,
                       1.0 / Ts[range(len(group)), rows, cols]))
    cart_entry = alone.argmax(axis=1)
    diag_range = np.array([np.full(n, np.nextafter(0.0, 1.0)),
                           np.full(n, np.finfo(float).max)])
    diag_range[:, cart_entry] = np.exp(np.multiply.outer(
        [-CARTAN_BOUND, CARTAN_BOUND], np.abs(cart[range(c), cart_entry])))
    table = _ChartTable(cart, diag_range, cart_entry,
                        1.0 / cart[range(c), cart_entry], tuple(blocks),
                        terms.reshape(2 * (d - c), len(groups) * n * n),
                        np.eye(n))
    _read_only(cart, diag_range, cart_entry, table.cart_inv, table.terms,
               table.eye, *(a for block in blocks for a in block))
    return table


def sigma_matrix(space: SpaceId, values) -> np.ndarray:
    """The chart sigma(x) = prod_k expm(a_k T_k), a = exp_factors(x), as a
    diagonal Cartan factor times one unitriangular factor per root block.
    Batched (..., d) -> (..., N, N) and complex safe: the Cartan and root
    coordinates share one dtype, so the fresh product U holds the scaled
    result in place."""
    table = _chart_table(space)
    values = np.asarray(values)
    n, c = space.N, len(table.cart)
    cartan, x = values[..., :c], values[..., c:]
    _check_cartan_bound(cartan.real)
    X = (np.concatenate([x, x * x], axis=-1) @ table.terms).reshape(
        x.shape[:-1] + (len(table.blocks), n, n))
    U = X[..., 0, :, :]
    U += table.eye
    for b in range(1, len(table.blocks)):
        U = U + U @ X[..., b, :, :]
    # scale first: a complex product is not bitwise commutative
    return np.multiply(np.exp(cartan @ table.cart)[..., :, None], U, out=U)


def _add_to(total, p, scale=1.0):
    """total += scale p, in place, for polynomials {monomial: coefficient},
    a monomial being the sorted tuple of its variables."""
    for m, v in p.items():
        total[m] = total.get(m, 0.0) + scale * v
    return total


def _polynomial_product(p, q):
    out = {}
    for a, u in p.items():
        for b, v in q.items():
            m = tuple(sorted(a + b))
            out[m] = out.get(m, 0.0) + u * v
    return out


def _sigma_inv_table(table: _ChartTable) -> _SigmaInvTable:
    """The table of :func:`sigma_inv_matrix`, built by peeling the root
    blocks of sigma once on polynomial entries: with R = sigma(x) / its
    diagonal, block by block from the left, x_k = R[rows[k], cols[k]]
    inv[k] and R <- (I + X(-x)) R.  The variables are the strictly-upper
    entries (i, j) of R, its diagonal is 1; a coefficient below 1e-12 is
    a rounding residue of a cancellation and is dropped."""
    n = len(table.eye)
    R = {(i, j): {() if i == j else ((i, j),): 1.0}
         for i in range(n) for j in range(i, n)}
    roots = []
    for b, (terms, rows, cols, inv) in enumerate(table.blocks):
        x = [_add_to({}, R[i, j], s) for i, j, s in zip(rows, cols, inv)]
        roots += x
        if b + 1 == len(table.blocks):
            break
        X = {}  # X(-x) = sum_k -x_k T_k + x_k^2 T_k^2 / 2
        for p, T in zip([_add_to({}, p, -1.0) for p in x]
                        + [_polynomial_product(p, p) for p in x],
                        terms.reshape(-1, n, n)):
            for i, j in zip(*np.nonzero(T)):
                _add_to(X.setdefault((i, j), {}), p, T[i, j])
        peeled = {key: dict(p) for key, p in R.items()}
        for (i, k), p in X.items():
            for j in range(k, n):
                _add_to(peeled[i, j], _polynomial_product(p, R[k, j]))
        R = peeled
    roots = [{m: v for m, v in p.items() if abs(v) >= 1e-12} for p in roots]
    if all(len(p) == 1 and len(m) == 1 for p in roots for m in p):
        entries = [m[0] for p in roots for m in p]
        monomials = None
        coefs = np.array([v for p in roots for v in p.values()])
    else:
        names = sorted({m for p in roots for m in p},
                       key=lambda m: (len(m), m))
        pad = (0, 0)  # R[0, 0] = 1, read last
        entries = sorted({e for m in names for e in m}) + [pad]
        read = {e: k for k, e in enumerate(entries)}
        degree = len(names[-1])
        monomials = np.array([[read[e] for e in m + (pad,) * (degree - len(m))]
                              for m in names])
        coefs = np.array([[p.get(m, 0.0) for p in roots] for m in names])
        _read_only(monomials)
    rows, cols = (np.array(v) for v in zip(*entries))
    _read_only(rows, cols, coefs)
    return _SigmaInvTable(rows, cols, monomials, coefs)


def sigma_inv_matrix(space: SpaceId, L) -> np.ndarray:
    """Inverse of :func:`sigma_matrix`: Cartans from the log-diagonal, and
    every root coordinate a polynomial in the entries of R =
    diag(L)^{-1} L (:func:`_sigma_inv_table`), read by one gather, one
    product per monomial and one matmul.  Batched (..., N, N) -> (..., d)
    and complex safe.

    L must be a chart image: the kernel reads its diagonal and the
    strictly-upper entries its polynomials name, and the entries it does
    not read are outside its contract (a NaN there is not noticed).  It
    refuses what :func:`sigma_matrix` refuses, before any division, by
    one range test of the diagonal's real parts: an inf or NaN on the
    diagonal, or a Cartan coordinate beyond CARTAN_BOUND, raises
    CartanBoundError; a diagonal entry <= 0 raises ValueError."""
    table = _chart_table(space)
    L = np.asarray(L)
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    lo, hi = table.diag_range
    real = diag.real
    if not ((real >= lo) & (real <= hi)).all():
        if (real <= 0).any():
            raise ValueError("triangular element must have positive diagonal")
        raise CartanBoundError(
            f"Cartan coordinate not finite or beyond the bound {CARTAN_BOUND}:"
            " the triangular element must have a finite positive diagonal")
    polys = table.inverse
    r = L[..., polys.rows, polys.cols] / diag[..., polys.rows]
    if polys.monomials is None:
        roots = r * polys.coefs
    else:
        roots = np.prod(r[..., polys.monomials], axis=-1) @ polys.coefs
    return np.concatenate(
        [np.log(diag[..., table.cart_entry]) * table.cart_inv, roots], axis=-1)


def sigma(coords: SolvCoords) -> TriangularElement:
    """Exponential map from solvable coordinates to the triangular group."""
    return TriangularElement(coords.space,
                             sigma_matrix(coords.space, coords.values))


def sigma_inv(L: TriangularElement) -> SolvCoords:
    """Inverse of :func:`sigma`."""
    return SolvCoords(L.space, sigma_inv_matrix(L.space, L.matrix))


# ---------------------------------------------------------------------------
# Coset matrices
# ---------------------------------------------------------------------------


def to_coset(L: TriangularElement) -> CosetPoint:
    """Symmetric coset matrix M = L L^T."""
    m = L.matrix
    return CosetPoint(L.space, m @ np.swapaxes(m, -1, -2))


def cholesky_crout_matrix(M: np.ndarray) -> np.ndarray:
    """Upper-triangular Crout factor L with M = L L^T (batched / complex).

    Fills columns from the last to the first: with L upper triangular,
    M_ji = sum_{k >= i} L_jk L_ik for j <= i, so column i above and on the
    diagonal is (M_{:i+1,i} - L_{:i+1,i+1:} L_{i,i+1:}) / sqrt(pivot).
    Products are plain matmuls (no conjugation), so complex input
    propagates analytically.

    The pivots are kept and checked once, after the loop: a pivot with
    real part <= 0 (or NaN) in any column of any matrix of the stack
    raises FactorizationError.  The NaN or inf a bad pivot leaves in the
    later columns is computed without a warning and never returned."""
    M = np.asarray(M)
    n = M.shape[-1]
    L = np.zeros_like(M)
    pivots = np.empty(M.shape[:-1], L.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            col = M[..., : i + 1, i] - (
                L[..., : i + 1, i + 1 :] @ L[..., i, i + 1 :, None])[..., 0]
            pivots[..., i] = col[..., i]
            L[..., : i + 1, i] = col / np.sqrt(col[..., i])[..., None]
    if not (pivots.real > 0).all():
        raise FactorizationError("matrix is not positive definite")
    return L


def cholesky_crout(M: CosetPoint) -> TriangularElement:
    """The unique upper-triangular positive-diagonal factor of M."""
    return TriangularElement(M.space, cholesky_crout_matrix(M.matrix))


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------


def _r1_group_element(space: SpaceId, y1, sub) -> SolvCoords:
    """The r=1 group-law result (y1, sub); refuses (FactorizationError) a
    sub that is not finite, where the matrix route has no factor either."""
    if not np.isfinite(sub).all():
        raise FactorizationError("the group-law result is not finite")
    return SolvCoords(space, np.concatenate([[y1], sub]))


def group_product(u: SolvCoords, w: SolvCoords) -> SolvCoords:
    """Product coordinates: sigma_inv(sigma(u) sigma(w)).

    For r=1 the closed form (validated against the matrix definition) is
    (u.w)_1 = u_1 + w_1 and (u.w)_sub = w_sub + e^{-w_1} u_sub.  Like
    sigma and sigma_inv, it refuses (CartanBoundError) a Cartan
    coordinate of u, w or the product beyond CARTAN_BOUND or NaN, before
    any exp (compared one by one: an array would double the cost of the
    product), and (FactorizationError) a product that is not finite,
    without a warning."""
    if u.space != w.space:
        raise ValueError("group_product requires matching spaces")
    if u.space.is_r1:
        u1, w1 = u.values[0], w.values[0]
        with np.errstate(over="ignore"):
            if not all(abs(c.real) <= CARTAN_BOUND for c in (u1, w1, u1 + w1)):
                raise CartanBoundError("Cartan coordinate not finite or "
                                       f"beyond the bound {CARTAN_BOUND}")
            sub = w.values[1:] + np.exp(-w1) * u.values[1:]
        return _r1_group_element(u.space, u1 + w1, sub)
    return sigma_inv(
        TriangularElement(u.space, sigma(u).matrix @ sigma(w).matrix)
    )


def group_inverse(u: SolvCoords) -> SolvCoords:
    """Inverse element coordinates.  For r=1, the closed form
    (-u_1, -e^{u_1} u_sub), with the refusals of :func:`group_product`."""
    if u.space.is_r1:
        u1 = u.values[0]
        _check_cartan_bound(np.real(u1))
        with np.errstate(over="ignore"):
            sub = -np.exp(u1) * u.values[1:]
        return _r1_group_element(u.space, -u1, sub)
    return sigma_inv(
        TriangularElement(u.space, np.linalg.inv(sigma(u).matrix))
    )


def _distance_constant(space: SpaceId) -> float:
    # Calibrated so the Cartan-axis distance equals metric arc length
    # (r=1); for sl the normalization is the standard affine-invariant one.
    return 0.5 if space.family == "sl" else 1.0 / (2.0 * SQRT2)


def _r1_distance(u, w) -> float:
    """Closed-form geodesic distance on the r=1 family H^n, by left
    translation to the origin: z = u^{-1} w has z_1 = w_1 - u_1 and
    z_s = (w_s - u_s) - expm1(-z_1) u_s (:func:`group_inverse`,
    :func:`group_product`), and d = 2 asinh sqrt(h) with
    h = sinh^2(d/2) = sinh^2(z_1/2) + e^{z_1} |z_s|^2 / 16, a sum of
    non-negative terms with no cancellation.  An h that overflows raises
    FactorizationError, as an underflowed singular value does elsewhere."""
    _check_cartan_bound(np.array([u[0], w[0]]).real)
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = w[0] - u[0]
        zs = (w[1:] - u[1:]) - np.expm1(-z1) * u[1:]
        h = np.sinh(0.5 * z1) ** 2 + np.exp(z1) * (zs @ zs) / 16.0
    if not np.isfinite(h):
        raise FactorizationError("sinh^2(d/2) overflowed")
    return 2.0 * float(np.arcsinh(np.sqrt(h)))


def coords_distance(u: SolvCoords, w: SolvCoords) -> float:
    """Geodesic distance c * 2 ||log s(L_u^{-1} L_w)|| between two points
    given in solvable coordinates.

    On r=1 (hyperbolic) spaces it is the closed form of
    :func:`_r1_distance`.  On r >= 2 and sl, where :func:`group_product`
    also takes the matrix route, it is one solve and one SVD: the
    eigenvalues of M_u^{-1} M_w are the squared singular values s of
    L_u^{-1} L_w, so the distance is taken from the triangular factors
    without forming M = L L^T, whose condition number is the square of
    L's.  Both refuse a Cartan coordinate beyond CARTAN_BOUND."""
    if u.space != w.space:
        raise ValueError("coords_distance requires matching spaces")
    if u.space.is_r1:
        return _r1_distance(u.values, w.values)
    Lu, Lw = sigma_matrix(u.space, np.stack([u.values, w.values]))
    s = np.linalg.svd(np.linalg.solve(Lu, Lw), compute_uv=False)
    if not (s > 0).all():
        raise FactorizationError(
            "a singular value of L_u^{-1} L_w underflowed to zero")
    return 2.0 * _distance_constant(u.space) * float(
        np.sqrt(np.sum(np.log(s) ** 2)))
