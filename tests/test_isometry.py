"""Isometry actions: paint, fiber rotations, classification."""

import numpy as np
import pytest

from cartannet import isometry, spaces
from cartannet.spaces import SolvCoords, SpaceId
from oracles import classify_element

H2 = SpaceId.so(1, 1)
H3 = SpaceId.so(1, 2)
H5 = SpaceId.so(1, 4)


def rand_coords(space, rng, scale=1.0):
    return SolvCoords(space, rng.uniform(-scale, scale, space.dim))


def rand_orthogonal(rng, n):
    O, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return O


class TestPaint:
    def test_paint_rotate_matches_embedded_action(self):
        rng = np.random.default_rng(0)
        for space in (H3, H5):
            for _ in range(25):
                O = rand_orthogonal(rng, space.subpaint_dim)
                rot = isometry.PaintRotation(space, O)
                p = rand_coords(space, rng)
                direct = isometry.paint_rotate(rot, p).values
                embedded = isometry.isometry_action(
                    isometry.embedded_paint(rot), p).values
                assert np.max(np.abs(direct - embedded)) < 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            isometry.PaintRotation(H3, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_preserves_cartan_coordinate(self):
        rng = np.random.default_rng(1)
        O = rand_orthogonal(rng, 4)
        p = rand_coords(H5, rng)
        out = isometry.paint_rotate(isometry.PaintRotation(H5, O), p)
        assert np.isclose(out.values[0], p.values[0])


class TestFiberRotations:
    def test_generator_count(self):
        # oracle: H^3 has one fiber generator, H^2 none
        assert len(isometry.build_fiber_generators(H3)) == 1
        assert len(isometry.build_fiber_generators(H2)) == 0
        assert len(isometry.build_fiber_generators(H5)) == 3

    def test_generators_are_eta_antisymmetric(self):
        # oracle: compact generators satisfy F^T eta + eta F = 0
        for space in (H3, H5):
            eta = spaces.build_eta(space).entries
            for gen in isometry.build_fiber_generators(space):
                F = gen.matrix
                assert np.max(np.abs(F.T @ eta + eta @ F)) < 1e-12

    def test_mixes_cartan_with_fiber(self):
        # oracle: first-order action from a pure-fiber point moves w1
        gen = isometry.build_fiber_generators(H3)[0]
        p = SolvCoords(H3, [0.0, 0.0, 0.5])
        eps = 1e-6
        g = isometry.fiber_rotation(gen, eps)
        out = isometry.isometry_action(g, p)
        dw1 = (out.values[0] - p.values[0]) / eps
        assert abs(dw1) > 0.1

    def test_fixes_origin(self):
        gen = isometry.build_fiber_generators(H5)[1]
        g = isometry.fiber_rotation(gen, 0.8)
        o = SolvCoords(H5, np.zeros(5))
        assert np.max(np.abs(isometry.isometry_action(g, o).values)) < 1e-12

    def test_periodicity(self):
        # oracle: exp(2 pi F) acts trivially for a compact generator
        gen = isometry.build_fiber_generators(H3)[0]
        g = isometry.fiber_rotation(gen, 2.0 * np.pi)
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = rand_coords(H3, rng)
            out = isometry.isometry_action(g, p)
            assert np.max(np.abs(out.values - p.values)) < 1e-12

    def test_distance_invariance(self):
        rng = np.random.default_rng(3)
        gens = isometry.build_fiber_generators(H5)
        for _ in range(20):
            g = isometry.fiber_rotation(gens[rng.integers(3)],
                                        rng.uniform(-3, 3))
            p, q = rand_coords(H5, rng), rand_coords(H5, rng)
            d0 = spaces.coords_distance(p, q)
            d1 = spaces.coords_distance(
                isometry.isometry_action(g, p),
                isometry.isometry_action(g, q))
            assert abs(d0 - d1) < 1e-10


class TestBiasTranslate:
    """Left translation by u, the geometric analogue of a bias term, is
    the group product u . p."""

    def test_is_left_multiplication(self):
        rng = np.random.default_rng(4)
        u, p = rand_coords(H3, rng), rand_coords(H3, rng)
        out = spaces.group_product(u, p)
        want = spaces.sigma_inv(spaces.TriangularElement(
            H3, spaces.sigma(u).matrix @ spaces.sigma(p).matrix))
        assert np.max(np.abs(out.values - want.values)) < 1e-12

    def test_identity_bias(self):
        rng = np.random.default_rng(5)
        p = rand_coords(H3, rng)
        o = SolvCoords(H3, np.zeros(3))
        assert np.max(np.abs(
            spaces.group_product(o, p).values - p.values)) < 1e-15


class TestClassifyElement:
    def test_solvable(self):
        rng = np.random.default_rng(6)
        L = spaces.sigma(rand_coords(H3, rng)).matrix
        assert classify_element(L, H3).kind == "solvable"

    def test_paint(self):
        rng = np.random.default_rng(7)
        O = rand_orthogonal(rng, 2)
        g = isometry.embedded_paint(isometry.PaintRotation(H3, O)).matrix
        assert classify_element(g, H3).kind == "paint"

    def test_grassmannian(self):
        gen = isometry.build_fiber_generators(H3)[0]
        g = isometry.fiber_rotation(gen, 0.7).matrix
        assert classify_element(g, H3).kind == "grassmannian"

    def test_external_normalized(self):
        g = np.diag([2.0, 1.0, 1.0, 1.0])
        out = classify_element(g, H3)
        assert out.kind == "external"
        assert abs(np.linalg.det(out.matrix) - 1.0) < 1e-12

    def test_sl_family(self):
        # on SL(3)/SO(3) the isometric elements are the orthogonal ones
        space = SpaceId.sl(3)
        rng = np.random.default_rng(9)
        signs = np.diag([1.0, -1.0, -1.0])
        assert classify_element(signs, space).kind == "paint"
        O = rand_orthogonal(rng, 3)
        assert classify_element(O, space).kind == "grassmannian"
        L = spaces.sigma(rand_coords(space, rng)).matrix
        assert classify_element(L, space).kind == "solvable"
        out = classify_element(2.0 * L, space)
        assert out.kind == "external"
        assert abs(np.linalg.det(out.matrix) - 1.0) < 1e-12

    def test_external_cannot_act(self):
        g = classify_element(np.diag([2.0, 1.0, 1.0, 1.0]), H3)
        with pytest.raises(ValueError):
            isometry.isometry_action(g, SolvCoords(H3, np.zeros(3)))


class TestGroupElementTag:
    def test_tag_checked_against_matrix(self):
        # diag(2, 1, 1, 1) is not eta-orthogonal; tagged grassmannian it
        # used to act on (0.3, 0.1, -0.2) as (0.993, 0.1, -0.2)
        with pytest.raises(ValueError):
            isometry.GroupElement(H3, np.diag([2.0, 1.0, 1.0, 1.0]),
                                  "grassmannian")
        # a det-2 matrix is not in SL(4)
        with pytest.raises(ValueError):
            isometry.GroupElement(SpaceId.sl(4), np.diag([2.0, 1.0, 1.0, 1.0]),
                                  "solvable")
        with pytest.raises(ValueError):
            isometry.GroupElement(H3, np.eye(4), "rotation")
        isometry.GroupElement(H3, np.diag([2.0, 1.0, 1.0, 1.0]), "external")
        isometry.GroupElement(SpaceId.sl(4), -np.eye(4), "paint")

    def test_eta_is_built_once_read_only(self):
        eta = spaces.build_eta(H5)
        assert spaces.build_eta(H5) is eta
        assert not eta.entries.flags.writeable
        assert not eta.omega.flags.writeable
