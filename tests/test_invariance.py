"""Property tests of the geometry the batched r=1 kernels must respect:
fiber rotations are isometries, and the layer map is a group
homomorphism, checked row by row on hypothesis-drawn batches against the
single-point distance and group product."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import homo, isometry, spaces
from cartannet.spaces import SolvCoords

PROPERTY = settings(max_examples=30)


def uniform(draw, shape, bound):
    return draw(hnp.arrays(float, shape, elements=st.floats(-bound, bound)))


@st.composite
def point_pairs(draw):
    """(space, u, w, angles): two batches of points on H^5, H^9 or H^17
    with |coords| <= 6, the range the far-field distance tests validate
    against 50-digit references."""
    space = spaces.hyperbolic(draw(st.sampled_from([5, 9, 17])))
    rows = draw(st.integers(1, 4))
    u = uniform(draw, (rows, space.dim), 6.0)
    w = uniform(draw, (rows, space.dim), 6.0)
    angles = uniform(draw, (space.fiber_dim,), np.pi)
    return space, u, w, angles


class TestFiberRotationIsIsometry:
    @PROPERTY
    @given(point_pairs())
    def test_distance_is_invariant(self, case):
        # relative to the distance, floored at 1: below that the distance
        # of two nearby points carries an absolute rounding error
        space, u, w, angles = case
        ru = isometry.fiber_rotate(space, u, angles)
        rw = isometry.fiber_rotate(space, w, angles)
        for a, b, ra, rb in zip(u, w, ru, rw):
            want = spaces.coords_distance(SolvCoords(space, a),
                                          SolvCoords(space, b))
            got = spaces.coords_distance(SolvCoords(space, ra),
                                         SolvCoords(space, rb))
            assert abs(got - want) <= 1e-10 * max(want, 1.0), (got, want)


@st.composite
def homomorphisms(draw):
    """(W, b, u, w) for a layer map H^{1+si} -> H^{1+so} and two batches of
    source points with |coords| <= 3."""
    si, so = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.integers(1, 5))
    W = uniform(draw, (so, si), 1.0)
    b = uniform(draw, (so,), 1.0)
    u = uniform(draw, (rows, 1 + si), 3.0)
    w = uniform(draw, (rows, 1 + si), 3.0)
    return W, b, u, w


class TestHomomorphismLaw:
    @PROPERTY
    @given(homomorphisms())
    def test_batch_respects_group_product(self, case):
        # phi(u . w) = phi(u) . phi(w), the products taken point by point
        W, b, u, w = case
        src = spaces.SpaceId.so(1, W.shape[1])
        tgt = spaces.SpaceId.so(1, W.shape[0])
        products = np.stack([
            spaces.group_product(SolvCoords(src, x), SolvCoords(src, y)).values
            for x, y in zip(u, w)])
        def phi(rows):
            return [homo.r1_homomorphism(W, b, SolvCoords(src, x), tgt).values
                    for x in rows]

        lhs, fu, fw = phi(products), phi(u), phi(w)
        for got, x, y in zip(lhs, fu, fw):
            want = spaces.group_product(SolvCoords(tgt, x),
                                        SolvCoords(tgt, y)).values
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
