"""Contract of the chart kernels sigma_matrix / sigma_inv_matrix, for
every family, against the ordered product of one-parameter subgroups."""

import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import spaces
from cartannet.spaces import (
    CARTAN_BOUND,
    CartanBoundError,
    SolvCoords,
    SpaceId,
    TriangularElement,
    hyperbolic,
)

SPACES = [hyperbolic(2), hyperbolic(5), hyperbolic(17), SpaceId.so(2, 2),
          SpaceId.so(2, 3), SpaceId.so(3, 2), SpaceId.sl(3), SpaceId.sl(4),
          SpaceId.sl(5)]
PROPERTY = settings(max_examples=20)
H = 1e-30  # complex step


def cartan_count(space):
    return space.r if space.family == "so" else space.N - 1


def product_of_exponentials(space, x):
    """oracle: sigma(x) = prod_k expm(a_k T_k) with a = exp_factors(x)."""
    L = np.eye(space.N)
    gens = spaces.solvable_generators(space).generators
    for a, T in zip(spaces.exp_factors(space, x), gens):
        L = L @ scipy.linalg.expm(a * T)
    return L


@st.composite
def points(draw, shape=(), scale=1.5):
    space = draw(st.sampled_from(SPACES))
    x = draw(hnp.arrays(float, shape + (space.dim,),
                        elements=st.floats(-scale, scale)))
    return space, x


class TestBatching:
    @PROPERTY
    @given(points(shape=(5, 3)))
    def test_batch_equals_per_point(self, case):
        space, x = case
        L = spaces.sigma_matrix(space, x)
        back = spaces.sigma_inv_matrix(space, L)
        assert L.shape == (5, 3, space.N, space.N)
        assert back.shape == x.shape
        for i in np.ndindex(5, 3):
            single = spaces.sigma(SolvCoords(space, x[i])).matrix
            assert np.max(np.abs(L[i] - single)) <= 1e-15 * np.max(
                np.abs(single))
            one = spaces.sigma_inv(TriangularElement(space, L[i])).values
            assert np.max(np.abs(back[i] - one)) <= 1e-15


class TestRoundTrip:
    @PROPERTY
    @given(points(shape=(4,), scale=2.0))
    def test_sigma_inv_undoes_sigma(self, case):
        space, x = case
        back = spaces.sigma_inv_matrix(space, spaces.sigma_matrix(space, x))
        assert np.max(np.abs(back - x)) <= 1e-12

    @PROPERTY
    @given(points())
    def test_sigma_matches_product_of_exponentials(self, case):
        space, x = case
        want = product_of_exponentials(space, x)
        got = spaces.sigma_matrix(space, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(
            1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("space, blocks", [
        (hyperbolic(5), 1), (SpaceId.sl(4), 4), (SpaceId.so(2, 3), 3)])
    def test_one_block_per_run_of_annihilating_roots(self, space, blocks):
        assert len(spaces._chart_table(space).blocks) == blocks

    def test_table_refuses_a_root_with_nonzero_cube(self, monkeypatch):
        # E01 + E12 + E23 cubes to E03, so expm(aT) != I + aT + a^2 T^2 / 2
        space = SpaceId.sl(4)
        gens, labels = spaces._basis(space)
        gens[-1] = np.eye(4, k=1)
        monkeypatch.setattr(spaces, "_basis", lambda s: (gens, labels))
        # a fresh cache, so that the table is built from the patched basis
        monkeypatch.setattr(spaces, "_chart_table", functools.cache(
            spaces._chart_table.__wrapped__))
        with pytest.raises(AssertionError):
            spaces._chart_table(space)


class TestComplexStep:
    @settings(PROPERTY, max_examples=10)
    @given(points(scale=1.0))
    def test_derivatives_match_product_of_exponentials(self, case):
        # d sigma / d x_k by complex step through the kernel and through
        # the ordered product, and d(sigma_inv o sigma) / d x_k = e_k
        space, x = case
        for k in range(space.dim):
            z = x.astype(complex)
            z[k] += 1j * H
            L = spaces.sigma_matrix(space, z)
            want = np.imag(product_of_exponentials(space, z)) / H
            got = np.imag(L) / H
            assert np.max(np.abs(got - want)) <= 1e-12 * max(
                1.0, np.max(np.abs(want)))
            back = np.imag(spaces.sigma_inv_matrix(space, L)) / H
            assert np.max(np.abs(back - np.eye(space.dim)[k])) <= 1e-12


class TestInputChecks:
    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_cartan_bound(self, space):
        x = np.zeros((3, space.dim))
        for i in range(cartan_count(space)):
            x[1, i] = CARTAN_BOUND
            spaces.sigma_matrix(space, x)
            for bad in (np.nextafter(CARTAN_BOUND, np.inf),
                        -2.0 * CARTAN_BOUND):
                x[1, i] = bad
                with pytest.raises(CartanBoundError):
                    spaces.sigma_matrix(space, x)
                with pytest.raises(CartanBoundError):
                    spaces.sigma_matrix(space, x + 1e-30j)
                with pytest.raises(CartanBoundError):
                    spaces.sigma(SolvCoords(space, x[1]))
            x[1, i] = 0.0

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_non_positive_diagonal(self, space):
        rng = np.random.default_rng(0)
        L = spaces.sigma_matrix(space, rng.uniform(-1, 1, (2, space.dim)))
        for i in range(space.N):
            for value in (0.0, -L[1, i, i]):
                bad = L.copy()
                bad[1, i, i] = value
                with pytest.raises(ValueError):
                    spaces.sigma_inv_matrix(space, bad)
                with pytest.raises(ValueError):
                    spaces.sigma_inv(TriangularElement(space, bad[1]))
