"""Core solvable-group layer: charts, factorization, group law, metric."""

import numpy as np
import pytest
import scipy.linalg

from cartannet import spaces
from cartannet.spaces import (
    CartanBoundError,
    FactorizationError,
    SolvCoords,
    SpaceId,
    hyperbolic,
)

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
            gens = spaces.solvable_generators(space).generators
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


class TestMetricAndDistance:
    def test_metric_closed_form(self):
        # oracle: G_00 = 1 + |wsub|^2/4, G_0a = w_a/4, G_ab = delta/4
        w = np.array([0.4, 0.9, -0.2])
        G = spaces.metric_at(SolvCoords(H3, w))
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
            G = spaces.metric_at(p)
            q = SolvCoords(H3, p.values + h * v)
            d = spaces.coords_distance(p, q)
            assert np.isclose(d ** 2, h ** 2 * v @ G @ v, rtol=1e-3)


class TestTsProject:
    def test_zeroes_fiber(self):
        c = SolvCoords(H5, [0.3, 0.5, -0.1, 0.2, 0.9])
        out = spaces.ts_project(c)
        assert np.allclose(out.values[:2], c.values[:2])
        assert np.allclose(out.values[2:], 0.0)

    def test_idempotent(self):
        c = SolvCoords(H5, [0.3, 0.5, -0.1, 0.2, 0.9])
        once = spaces.ts_project(c)
        twice = spaces.ts_project(once)
        assert np.array_equal(once.values, twice.values)
