"""Core solvable-group layer: charts, factorization, group law, metric."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import spaces
from cartannet.spaces import (
    CartanBoundError,
    FactorizationError,
    SolvCoords,
    SpaceId,
    hyperbolic,
)
from oracles import metric_at

H2 = SpaceId.so(1, 1)
H3 = SpaceId.so(1, 2)
H5 = SpaceId.so(1, 4)
SL4 = SpaceId.sl(4)
SPACES = [H2, H3, H5, SL4]


def rand_coords(space, rng, scale=1.5):
    return SolvCoords(space, rng.uniform(-scale, scale, space.dim))


class TestSpaceId:
    def test_dimensions(self):
        # oracle: d = 1 + q for r=1; d = n(n+1)/2 - 1 for sl(n)
        assert H2.dim == 2 and H3.dim == 3 and H5.dim == 5
        assert SL4.dim == 9
        assert H3.N == 4 and SL4.N == 4

    def test_hyperbolic_helper(self):
        assert hyperbolic(3) == H3
        assert hyperbolic(5) == H5

    def test_subpaint_and_fiber(self):
        assert H3.subpaint_dim == 2 and H3.fiber_dim == 1
        assert H2.subpaint_dim == 1 and H2.fiber_dim == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            SpaceId.so(0, 1)
        with pytest.raises(ValueError):
            SpaceId.sl(1)


class TestEta:
    def test_signature(self):
        # oracle: eta has r negative and r+q positive eigenvalues
        for space in (H2, H3, H5, SpaceId.so(2, 2)):
            eig = np.linalg.eigvalsh(spaces.build_eta(space).entries)
            assert np.sum(eig < 0) == space.r
            assert np.sum(eig > 0) == space.r + space.q

    def test_omega_orthogonal_change_of_basis(self):
        for space in (H3, H5):
            form = spaces.build_eta(space)
            Om = form.omega
            assert np.allclose(Om @ Om.T, np.eye(space.N), atol=1e-14)
            diag = Om @ form.entries @ Om.T
            assert np.allclose(diag, np.diag(np.diag(diag)), atol=1e-14)


class TestSigma:
    def test_r1_closed_form_h2(self):
        # oracle: hand-computed 3x3 representative at (w1, w2)
        w1, w2 = 0.3, -0.7
        L = spaces.sigma(SolvCoords(H2, [w1, w2])).matrix
        assert np.isclose(L[0, 0], np.exp(w1))
        assert np.isclose(L[-1, -1], np.exp(-w1))
        assert np.isclose(L[0, 1], np.exp(w1) * w2 / np.sqrt(2))
        assert np.isclose(L[1, 2], -w2 / np.sqrt(2))
        assert np.isclose(L[0, 2], -0.25 * np.exp(w1) * w2 ** 2)

    def test_r1_eta_invariance(self):
        # oracle: L^T eta L = eta defines membership in the isometry group
        rng = np.random.default_rng(0)
        for space in (H2, H3, H5):
            eta = spaces.build_eta(space).entries
            for _ in range(20):
                L = spaces.sigma(rand_coords(space, rng)).matrix
                assert np.max(np.abs(L.T @ eta @ L - eta)) < 1e-12

    def test_sl_unit_determinant_and_triangular(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            L = spaces.sigma(rand_coords(SL4, rng)).matrix
            assert abs(np.linalg.det(L) - 1.0) < 1e-10
            assert np.allclose(L, np.triu(L))
            assert np.all(np.diag(L) > 0)

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for space in SPACES + [SpaceId.so(2, 2), SpaceId.sl(3)]:
            for _ in range(20):
                c = rand_coords(space, rng)
                back = spaces.sigma_inv(spaces.sigma(c))
                assert np.max(np.abs(back.values - c.values)) < 1e-11

    def test_product_of_exponentials(self):
        # oracle: sigma(x) = prod_k expm(a_k T_k) in generator order, with
        # a = exp_factors(x); H^11 and H^17 have two-digit middle indices
        rng = np.random.default_rng(7)
        for space in (H3, H5, hyperbolic(11), hyperbolic(17),
                      SpaceId.so(2, 2), SpaceId.so(2, 13), SpaceId.sl(3),
                      SL4):
            gens = spaces.solvable_generators(space).stack
            for _ in range(5):
                c = rand_coords(space, rng, scale=1.0)
                L = np.eye(space.N)
                for a, T in zip(spaces.exp_factors(space, c.values), gens):
                    L = L @ scipy.linalg.expm(a * T)
                assert np.max(np.abs(L - spaces.sigma(c).matrix)) < 1e-12

    def test_origin_is_identity(self):
        for space in SPACES:
            L = spaces.sigma(SolvCoords(space, np.zeros(space.dim))).matrix
            assert np.allclose(L, np.eye(space.N))

    def test_cartan_bound(self):
        with pytest.raises(CartanBoundError):
            spaces.sigma(SolvCoords(H2, [400.0, 0.0]))

    @pytest.mark.parametrize("space", SPACES + [SpaceId.so(2, 3)])
    def test_nan_cartan_refused(self, space):
        # NaN fails every comparison, so a test for |x| > bound lets it
        # through and sigma_matrix returns a NaN matrix
        values = np.zeros((2, space.dim))
        values[1, 0] = np.nan
        with pytest.raises(CartanBoundError,
                           match="not finite or beyond the bound"):
            spaces.sigma_matrix(space, values)

    @pytest.mark.parametrize("space", SPACES + [SpaceId.so(2, 3)])
    def test_inverse_refuses_nan_diagonal(self, space):
        # the Cartan coordinates are read from the log-diagonal: a NaN
        # there is refused with the non-positive entries, not returned
        L = spaces.sigma_matrix(space, np.zeros((2, space.dim)))
        L[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="positive diagonal"):
            spaces.sigma_inv_matrix(space, L)


class TestInverseRefusesWhatSigmaRefuses:
    """``sigma_inv_matrix`` refuses an e^{400}, inf or NaN Cartan entry
    of the diagonal with CartanBoundError, as ``sigma_matrix`` refuses the
    coordinates, and before dividing by the diagonal: the suite turns a
    RuntimeWarning into a failure."""

    CASES = [H5, SpaceId.so(2, 3), SpaceId.sl(3)]

    @staticmethod
    def edited(space, value):
        """sigma_matrix(space, 0) with value on the Cartan diagonal entry
        the inverse reads for the first Cartan coordinate."""
        L = spaces.sigma_matrix(space, np.zeros((2, space.dim)))
        i = spaces._chart_table(space).cart_entry[0]
        L[1, i, i] = value
        return L

    @pytest.mark.parametrize("space", CASES, ids=str)
    def test_beyond_the_bound(self, space):
        with pytest.raises(CartanBoundError, match="beyond the bound"):
            spaces.sigma_inv_matrix(space, self.edited(space, np.exp(400.0)))

    @pytest.mark.parametrize("space", CASES, ids=str)
    def test_inf(self, space):
        with pytest.raises(CartanBoundError, match="not finite"):
            spaces.sigma_inv_matrix(space, self.edited(space, np.inf))

    @pytest.mark.parametrize("space", CASES, ids=str)
    def test_nan(self, space):
        with pytest.raises(CartanBoundError, match="not finite"):
            spaces.sigma_inv_matrix(space, self.edited(space, np.nan))


class TestCholeskyCrout:
    def test_factorization_roundtrip(self):
        rng = np.random.default_rng(3)
        for space in SPACES:
            for _ in range(20):
                L = spaces.sigma(rand_coords(space, rng))
                M = spaces.to_coset(L)
                L2 = spaces.cholesky_crout(M)
                assert np.max(np.abs(L2.matrix - L.matrix)) < 1e-11

    def test_rejects_indefinite(self):
        M = spaces.CosetPoint(H2, np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(FactorizationError):
            spaces.cholesky_crout(M)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        Ls = np.stack([
            spaces.sigma(rand_coords(H3, rng)).matrix for _ in range(5)
        ])
        Ms = Ls @ np.swapaxes(Ls, -1, -2)
        out = spaces.cholesky_crout_matrix(Ms)
        assert np.max(np.abs(out - Ls)) < 1e-12


class TestGroupLaw:
    def test_r1_closed_form_matches_matrices(self):
        # oracle: (u.w)_1 = u1 + w1, (u.w)_sub = w_sub + e^{-w1} u_sub,
        # derived by multiplying the matrix representatives
        rng = np.random.default_rng(5)
        for space in (H2, H3, H5):
            for _ in range(30):
                u, w = rand_coords(space, rng), rand_coords(space, rng)
                uw = spaces.group_product(u, w)
                assert np.isclose(uw.values[0], u.values[0] + w.values[0])
                expect = w.values[1:] + np.exp(-w.values[0]) * u.values[1:]
                assert np.max(np.abs(uw.values[1:] - expect)) < 1e-12
                Lm = spaces.sigma(u).matrix @ spaces.sigma(w).matrix
                assert np.max(np.abs(spaces.sigma(uw).matrix - Lm)) < 1e-12

    def test_inverse_and_associativity(self):
        rng = np.random.default_rng(6)
        for space in (H3, SL4):
            for _ in range(20):
                u, v, w = (rand_coords(space, rng) for _ in range(3))
                lhs = spaces.group_product(spaces.group_product(u, v), w)
                rhs = spaces.group_product(u, spaces.group_product(v, w))
                assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10
                iu = spaces.group_inverse(u)
                assert np.max(np.abs(
                    spaces.group_product(iu, u).values)) < 1e-12

    @pytest.mark.parametrize("args, error", [
        # an input, or the product, beyond the Cartan bound, before any exp
        (((0, 1, 1), (-800, 0, 0)), CartanBoundError),
        (((800, 1, 1),), CartanBoundError),
        (((200, 1, 1), (200, 0, 0)), CartanBoundError),
        # inside the bound, but e^{-w1} u_sub overflows
        (((0, 1e300, 1), (-290, 0, 0)), FactorizationError),
        (((290, 1e300, 1),), FactorizationError),
    ])
    def test_r1_refuses_what_the_matrix_route_refuses(self, args, error):
        # the r=1 closed forms refuse what sigma and sigma_inv refuse, and
        # a non-finite result, without a RuntimeWarning
        op = spaces.group_product if len(args) == 2 else spaces.group_inverse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                op(*(SolvCoords(H3, np.array(a, float)) for a in args))


class TestMetricAndDistance:
    def test_metric_closed_form(self):
        # oracle: G_00 = 1 + |wsub|^2/4, G_0a = w_a/4, G_ab = delta/4
        w = np.array([0.4, 0.9, -0.2])
        G = metric_at(SolvCoords(H3, w))
        assert np.isclose(G[0, 0], 1.0 + 0.25 * (0.9 ** 2 + 0.2 ** 2))
        assert np.isclose(G[0, 1], 0.25 * 0.9)
        assert np.isclose(G[2, 2], 0.25)

    def test_cartan_axis_distance(self):
        # oracle: along the Cartan axis the arc length is exactly t
        for t in (0.1, 0.7, 2.0):
            o = SolvCoords(H3, np.zeros(3))
            p = SolvCoords(H3, [t, 0.0, 0.0])
            assert abs(spaces.coords_distance(o, p) - t) < 1e-12

    def test_distance_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = (rand_coords(H3, rng, 1.0) for _ in range(3))
            dab = spaces.coords_distance(a, b)
            assert abs(dab - spaces.coords_distance(b, a)) < 1e-12
            assert dab <= (spaces.coords_distance(a, c)
                           + spaces.coords_distance(c, b) + 1e-12)

    def test_left_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g, a, b = (rand_coords(H5, rng, 1.0) for _ in range(3))
            d0 = spaces.coords_distance(a, b)
            d1 = spaces.coords_distance(
                spaces.group_product(g, a), spaces.group_product(g, b))
            assert abs(d0 - d1) < 1e-10

    def test_metric_matches_distance_fd(self):
        # oracle: d(p, p + h v)^2 ~ h^2 v^T G v for small h
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(10):
            p = rand_coords(H3, rng, 0.8)
            v = rng.normal(size=3)
            G = metric_at(p)
            q = SolvCoords(H3, p.values + h * v)
            d = spaces.coords_distance(p, q)
            assert np.isclose(d ** 2, h ** 2 * v @ G @ v, rtol=1e-3)


class TestCroutContract:
    SO23 = SpaceId.so(2, 3)

    def coset_stack(self, space, rng, count=6):
        Ls = np.stack([spaces.sigma(rand_coords(space, rng, 1.0)).matrix
                       for _ in range(count)])
        return Ls, Ls @ np.swapaxes(Ls, -1, -2)

    def test_complex_step_derivative(self):
        # oracle: differentiating M = L L^T along a symmetric direction E
        # gives dL L^T + L dL^T = E with dL upper triangular
        rng = np.random.default_rng(11)
        h = 1e-30
        for space in (SL4, H5, self.SO23):
            Ls, Ms = self.coset_stack(space, rng)
            E = rng.normal(size=Ms.shape)
            E = E + np.swapaxes(E, -1, -2)
            out = spaces.cholesky_crout_matrix(Ms + 1j * h * E)
            assert np.max(np.abs(out.real - Ls)) < 1e-12
            dL = out.imag / h
            assert np.array_equal(dL, np.triu(dL))
            dM = dL @ np.swapaxes(Ls, -1, -2) + Ls @ np.swapaxes(dL, -1, -2)
            assert np.max(np.abs(dM - E)) < 1e-12

    def test_one_indefinite_matrix_fails_the_batch(self):
        rng = np.random.default_rng(12)
        for space in (SL4, H5, self.SO23):
            _, Ms = self.coset_stack(space, rng)
            for k in (0, len(Ms) - 1):
                bad = Ms.copy()
                bad[k, 0, 0] = -1.0
                with pytest.raises(FactorizationError):
                    spaces.cholesky_crout_matrix(bad)

    @staticmethod
    def refused(M):
        """cholesky_crout_matrix raises FactorizationError on M and lets
        no RuntimeWarning out."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FactorizationError):
                spaces.cholesky_crout_matrix(M)

    def test_bad_middle_pivot_raises(self):
        # columns are filled from the last: M_ii = -1 leaves the columns
        # after i positive and makes pivot i the first bad one, after
        # which the later columns carry NaN (real) or go on (complex)
        rng = np.random.default_rng(14)
        for space in (SL4, H5, self.SO23):
            _, Ms = self.coset_stack(space, rng)
            i = space.N // 2
            E = rng.normal(size=Ms.shape)
            E = E + np.swapaxes(E, -1, -2)
            for k in (0, 2, len(Ms) - 1):
                bad = Ms.copy()
                bad[k, i, i] = -1.0
                self.refused(bad)  # a stack with one bad matrix
                self.refused(bad[k])  # real
                self.refused(bad + 1e-30j * E)  # complex step
                self.refused(bad[k] + 1e-3j * E[k])  # complex

    def test_zero_pivot_raises(self):
        rng = np.random.default_rng(15)
        for space in (SL4, H5, self.SO23):
            n = space.N
            for i in (0, n // 2, n - 1):
                M = np.eye(n)
                M[i, i] = 0.0
                self.refused(M)
                self.refused(M + 0j)
            _, Ms = self.coset_stack(space, rng)
            Ms[1, n // 2] = Ms[1, :, n // 2] = 0.0  # zero row and column
            self.refused(Ms)

    def test_indefinite_input_warns_nothing(self):
        # -I has every pivot negative and an all-NaN factor in real
        # arithmetic; the NaN is computed under errstate and not returned
        for space in (SL4, H5, self.SO23):
            self.refused(-np.eye(space.N))
            self.refused(np.full((3, space.N, space.N), np.nan))


class TestFarFieldDistance:
    """coords_distance far from the origin against 50-digit references."""

    @staticmethod
    def hyperboloid_distance(mp, x, y):
        # oracle: v = L(e_0 - e_{N-1}) = (e^{w1}(1 + s.s/4), s/sqrt2,
        # -e^{-w1}) lies on <v, v>_eta = -2, and cosh d = -<v1, v2>_eta / 2
        def vec(w):
            w = [mp.mpf(float(c)) for c in w]
            s2 = sum(c * c for c in w[1:])
            mid = [c / mp.sqrt(2) for c in w[1:]]
            return mp.exp(w[0]) * (1 + s2 / 4), mid, -mp.exp(-w[0])
        (a0, am, az), (b0, bm, bz) = vec(x), vec(y)
        inner = a0 * bz + az * b0 + sum(p * q for p, q in zip(am, bm))
        return mp.acosh(-inner / 2)

    @staticmethod
    def sl_distance(mp, space, x, y):
        # oracle: d = sqrt(sum log^2 s) over the singular values s of
        # L_x^{-1} L_y, with L built from the ordered product at 50 digits
        n, ell = space.N, space.N - 1

        def tri(w):
            w = [mp.mpf(float(c)) for c in w]
            diag = [sum(w[:ell]) / 2] + [-c / 2 for c in w[:ell]]
            L = mp.diag([mp.exp(c) for c in diag])
            for pos, (h, k) in enumerate(spaces._sl_root_labels(n)):
                step = mp.eye(n)
                step[k - 1, k - 1 + h] = -w[ell + pos]
                L = L * step
            return L
        s = mp.svd_r(mp.inverse(tri(x)) * tri(y), compute_uv=False)
        return mp.sqrt(sum(mp.log(v) ** 2 for v in s))

    def check(self, space, scale, reference, pairs=20):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        rng = np.random.default_rng(13)
        for _ in range(pairs):
            a, b = (rand_coords(space, rng, scale) for _ in range(2))
            want = float(reference(mp, a.values, b.values))
            got = spaces.coords_distance(a, b)
            assert abs(got - want) <= 1e-11 * want, (space, got, want)
            assert abs(spaces.coords_distance(b, a) - got) <= 1e-11 * want

    @pytest.mark.parametrize("n", [5, 17])
    def test_hyperbolic(self, n):
        self.check(hyperbolic(n), 6.0, self.hyperboloid_distance)

    def test_sl4(self):
        self.check(SL4, 3.0, lambda mp, x, y: self.sl_distance(mp, SL4, x, y))

    def test_underflowed_singular_value_is_typed(self):
        # within the Cartan bound, L_u^{-1} L_w can have e^{-900} on its
        # diagonal, which underflows to 0: a typed error, not d = inf
        u = SolvCoords(SL4, np.r_[np.full(3, 300.0), np.zeros(6)])
        w = SolvCoords(SL4, np.r_[np.full(3, -300.0), np.zeros(6)])
        with pytest.raises(FactorizationError):
            spaces.coords_distance(u, w)

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            spaces.coords_distance(SolvCoords(H3, np.zeros(3)),
                                   SolvCoords(SL4, np.zeros(9)))


class TestClosedFormR1Distance:
    """On r=1 spaces coords_distance is the closed form of
    ``spaces._r1_distance`` (left translation to the origin); solve+SVD
    on sigma_matrix is the reference route here and still serves r >= 2
    and sl."""

    @staticmethod
    def svd_distance(space, a, b):
        Lu, Lw = spaces.sigma_matrix(space, np.stack([a, b]))
        s = np.linalg.svd(np.linalg.solve(Lu, Lw), compute_uv=False)
        return float(np.sqrt(np.sum(np.log(s) ** 2)) / np.sqrt(2.0))

    @pytest.mark.parametrize("n", [5, 17])
    def test_near_pairs_match_reference(self, n):
        # separation 1e-6 far from the origin, where the SVD route loses
        # about half the digits of the singular values near 1
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        space = hyperbolic(n)
        rng = np.random.default_rng(16)
        for _ in range(20):
            a = rng.uniform(-20.0, 20.0, space.dim)
            b = a + 1e-6 * rng.uniform(-1.0, 1.0, space.dim)
            want = float(TestFarFieldDistance.hyperboloid_distance(mp, a, b))
            got = spaces.coords_distance(SolvCoords(space, a),
                                         SolvCoords(space, b))
            assert abs(got - want) <= 1e-14 * want, (got, want)

    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_agrees_with_svd_route(self, n):
        space = hyperbolic(n)
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = rng.uniform(-1.0, 1.0, (2, space.dim))
            want = self.svd_distance(space, a, b)
            got = spaces.coords_distance(SolvCoords(space, a),
                                         SolvCoords(space, b))
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_far_cartan_pair(self):
        # the SVD route underflows e^{-600} here and raises
        bound = spaces.CARTAN_BOUND
        u = SolvCoords(H5, np.r_[-bound, np.zeros(4)])
        w = SolvCoords(H5, np.r_[bound, np.zeros(4)])
        for p, q in ((u, w), (w, u)):
            assert abs(spaces.coords_distance(p, q) - 2 * bound) <= 1e-12

    def test_overflow_raises_without_warning(self):
        o = SolvCoords(H5, np.zeros(5))
        p = SolvCoords(H5, [0.0, 1e200, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a, b in ((o, p), (p, o)):
                with pytest.raises(FactorizationError):
                    spaces.coords_distance(a, b)

    def test_cartan_bound_refused(self):
        o = SolvCoords(H5, np.zeros(5))
        for w1 in (np.nextafter(spaces.CARTAN_BOUND, np.inf),
                   -2.0 * spaces.CARTAN_BOUND):
            p = SolvCoords(H5, np.r_[w1, np.zeros(4)])
            for a, b in ((o, p), (p, o)):
                with pytest.raises(CartanBoundError):
                    spaces.coords_distance(a, b)


@st.composite
def r1_triples(draw):
    """A space H^3, H^5 or H^17 and three points with every coordinate
    within CARTAN_BOUND / 2, so that a product's Cartan coordinate stays
    inside the bound."""
    space = draw(st.sampled_from([hyperbolic(3), hyperbolic(5),
                                  hyperbolic(17)]))
    half = spaces.CARTAN_BOUND / 2
    points = draw(hnp.arrays(float, (3, space.dim),
                             elements=st.floats(-half, half)))
    return space, [SolvCoords(space, p) for p in points]


class TestR1DistanceProperties:
    """Metric properties of the closed form over the whole drawn domain.
    Tolerances are relative to 1 + d; for left invariance they also scale
    with the largest coordinate m of the translated points, since rounding
    g.u to floats moves it by about eps * m in distance."""

    PROPERTY = settings(max_examples=100)

    @PROPERTY
    @given(r1_triples())
    def test_left_invariance(self, case):
        _, (g, u, w) = case
        gu, gw = spaces.group_product(g, u), spaces.group_product(g, w)
        m = max(np.max(np.abs(gu.values)), np.max(np.abs(gw.values)))
        d0 = spaces.coords_distance(u, w)
        d1 = spaces.coords_distance(gu, gw)
        assert abs(d1 - d0) <= 1e-13 * (1.0 + d0) * (1.0 + m), (d0, d1, m)

    @PROPERTY
    @given(r1_triples())
    def test_symmetry(self, case):
        _, (u, w, _) = case
        d = spaces.coords_distance(u, w)
        assert abs(spaces.coords_distance(w, u) - d) <= 1e-13 * (1.0 + d)

    @PROPERTY
    @given(r1_triples())
    def test_triangle_inequality(self, case):
        _, (a, b, c) = case
        dab = spaces.coords_distance(a, b)
        assert dab <= (spaces.coords_distance(a, c)
                       + spaces.coords_distance(c, b) + 1e-13 * (1.0 + dab))


class TestStructureConstants:
    """All commutators go through one least-squares solve; a solve per
    generator pair is the reference."""

    @staticmethod
    def per_pair(gens):
        d = len(gens)
        basis = np.stack([g.reshape(-1) for g in gens], axis=1)
        f = np.zeros((d, d, d))
        for j in range(d):
            for k in range(j + 1, d):
                comm = gens[j] @ gens[k] - gens[k] @ gens[j]
                coef = np.linalg.lstsq(basis, comm.reshape(-1), rcond=None)[0]
                coef[np.abs(coef) < 1e-12] = 0.0
                f[:, j, k], f[:, k, j] = coef, -coef
        return f

    @pytest.mark.parametrize("space", [hyperbolic(17), hyperbolic(9),
                                       SpaceId.sl(5), SpaceId.so(2, 3)],
                             ids=str)
    def test_matches_per_pair_solves(self, space):
        gens = spaces.solvable_generators(space).stack
        f = spaces.structure_constants_from_generators(gens)
        assert np.array_equal(f, self.per_pair(gens))

    def test_commutator_outside_the_span_rejected(self):
        # [E_01, E_12] = E_02 is not in span{E_01, E_12}
        e01, e12 = np.zeros((3, 3)), np.zeros((3, 3))
        e01[0, 1] = e12[1, 2] = 1.0
        with pytest.raises(ValueError):
            spaces.structure_constants_from_generators([e01, e12])
