"""Batched fiber-rotation kernel against the single-point Crout oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import isometry, spaces
from cartannet.spaces import SolvCoords

SPACES = [spaces.hyperbolic(n) for n in (3, 5, 9, 17)]
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
H = 1e-30  # complex step


def oracle(space, values, angles):
    """isometry_action o fiber_rotation, one generator at a time."""
    coords = SolvCoords(space, values)
    for gen, angle in zip(isometry.build_fiber_generators(space), angles):
        coords = isometry.isometry_action(
            isometry.fiber_rotation(gen, angle), coords)
    return coords.values


@st.composite
def batches(draw, low=-1.0, high=1.0, max_rows=4):
    """(space, values (B, d), angles) with |coords| <= 1 by default."""
    space = draw(st.sampled_from(SPACES))
    rows = draw(st.integers(1, max_rows))
    values = draw(hnp.arrays(float, (rows, space.dim),
                             elements=st.floats(low, high)))
    angles = draw(hnp.arrays(float, (space.fiber_dim,),
                             elements=st.floats(-np.pi, np.pi)))
    return space, values, angles


def hyperboloid(values):
    """(R, P, s) of v = (e^w1 (1 + s.s/4), s/sqrt2, -e^-w1) in the diagonal
    eta basis, with R = v_0 - v_{N-1} and P = v_0 + v_{N-1}."""
    w1, s = values[..., 0], values[..., 1:]
    up = np.exp(w1) * (1.0 + 0.25 * np.sum(s * s, axis=-1))
    down = np.exp(-w1)
    return np.concatenate([(up + down)[..., None], (up - down)[..., None], s],
                          axis=-1)


class TestAgainstOracle:
    @PROPERTY
    @given(batches())
    def test_values_match_crout_pipeline(self, case):
        space, values, angles = case
        got = isometry.fiber_rotate(space, values, angles)
        assert got.shape == values.shape and got.dtype == float
        for row, out in zip(values, got):
            want = oracle(space, row, angles)
            assert np.max(np.abs(out - want)) <= 1e-12
            single = isometry.fiber_rotate(space, row, angles)
            assert single.shape == row.shape
            assert np.max(np.abs(single - want)) <= 1e-12

    @settings(PROPERTY, max_examples=12)
    @given(batches(max_rows=1))
    def test_complex_step_derivatives_match_oracle(self, case):
        # d/dx_k and d/da_k by complex step through both paths
        space, values, angles = case
        for k in range(space.dim):
            z = values.astype(complex)
            z[:, k] += 1j * H
            got = np.imag(isometry.fiber_rotate(space, z, angles)) / H
            for row, d in zip(z, got):
                want = np.imag(oracle(space, row, angles.astype(complex))) / H
                assert np.max(np.abs(d - want)) <= 1e-10 * max(
                    1.0, np.max(np.abs(want)))
        for k in range(space.fiber_dim):
            b = angles.astype(complex)
            b[k] += 1j * H
            got = np.imag(isometry.fiber_rotate(space, values, b)) / H
            for row, d in zip(values, got):
                want = np.imag(oracle(space, row.astype(complex), b)) / H
                assert np.max(np.abs(d - want)) <= 1e-10 * max(
                    1.0, np.max(np.abs(want)))


class TestFarFromOrigin:
    """|w1| in [20, 40], where the Crout pipeline cannot factor gMg^T.

    A point at distance ~40 from the origin has a hyperboloid vector with
    entries near e^40 ~ 2e17, which float64 holds to about 30.  A fiber
    rotation mixes that size into the fiber coordinates, so the
    coordinates of a rotated-and-unrotated point carry that absolute error
    for any float64 implementation.  The round trip is therefore checked on
    the hyperboloid vector, relative to its size."""

    @staticmethod
    def far(values):
        w1 = values[:, 0]
        values = values.copy()
        values[:, 0] = np.where(w1 < 0, -20.0, 20.0) + w1
        return values

    @PROPERTY
    @given(batches(low=-20.0, high=20.0))
    def test_rotate_then_undo_returns_input(self, case):
        space, values, angles = case
        values[:, 1:] /= 20.0
        values = self.far(values)
        out = isometry.fiber_rotate(space, values, angles)
        assert np.all(np.isfinite(out))
        back = out
        for j in reversed(range(space.fiber_dim)):
            undo = np.zeros(space.fiber_dim)
            undo[j] = -angles[j]
            back = isometry.fiber_rotate(space, back, undo)
        v, v_back = hyperboloid(values), hyperboloid(back)
        scale = np.max(np.abs(v), axis=-1, keepdims=True)
        assert np.max(np.abs(v_back - v) / scale) <= 1e-12
        # R = sqrt(2) cosh(distance to the origin) is invariant
        R, R_out = v[:, 0], hyperboloid(out)[:, 0]
        assert np.max(np.abs(R_out / R - 1.0)) <= 1e-12

    def test_crout_pipeline_fails_there(self):
        space = spaces.hyperbolic(5)
        x = np.array([40.0, 0.5, -0.3, 0.2, 0.1])
        a = np.array([0.7, -0.4, 1.2])
        with pytest.raises(spaces.FactorizationError):
            oracle(space, x, a)
        assert np.all(np.isfinite(isometry.fiber_rotate(space, x, a)))


class TestInputChecks:
    @pytest.mark.parametrize("space", [spaces.hyperbolic(2), *SPACES])
    def test_cartan_bound(self, space):
        angles = np.full(space.fiber_dim, 0.3)
        values = np.zeros((3, space.dim))
        values[1, 0] = spaces.CARTAN_BOUND
        isometry.fiber_rotate(space, values, angles)
        for w1 in (np.nextafter(spaces.CARTAN_BOUND, np.inf),
                   -2.0 * spaces.CARTAN_BOUND):
            values[1, 0] = w1
            with pytest.raises(spaces.CartanBoundError):
                isometry.fiber_rotate(space, values, angles)
            with pytest.raises(spaces.CartanBoundError):
                isometry.fiber_rotate(space, values + 1e-30j, angles)

    def test_angle_count(self):
        space = spaces.hyperbolic(5)
        with pytest.raises(ValueError):
            isometry.fiber_rotate(space, np.zeros((2, 5)), np.zeros(2))

    def test_requires_r1(self):
        with pytest.raises(ValueError):
            isometry.fiber_rotate(spaces.SpaceId.sl(3), np.zeros(5), [])
