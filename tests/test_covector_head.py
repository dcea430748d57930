"""The head kernel reads a separator as its covector C = (alpha, w, beta)
on the lift Phi = (T, Y2, up) of a point: checked here against the
eta-pairing of the separator's spacelike normal n = (-alpha, sqrt2 w, beta)
with the hyperboloid vector v = (e^{Y1} (1 + |Y2|^2 / 4), Y2 / sqrt2,
-e^{-Y1}), a form built apart from the kernel, on H^2, H^3 and H^5."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, isometry, spaces
from cartannet.spaces import SQRT2

PROPERTY = settings(max_examples=20)


def uniform(draw, shape, bound):
    return draw(hnp.arrays(float, shape, elements=st.floats(-bound, bound)))


@st.composite
def cases(draw, n):
    """An admissible bank of 1-4 separators on H^n, coordinate rows and
    fiber angles of that space."""
    space = spaces.hyperbolic(n)
    K, s = draw(st.integers(1, 4)), space.subpaint_dim
    w = uniform(draw, (K, s), 2.0)
    w[:, 0] = 0.5 + np.abs(w[:, 0])
    alpha = uniform(draw, (K,), 2.0)
    # alpha beta <= |w|^2 / 2, so the margin is at least |w|^2 / 2
    beta = uniform(draw, (K,), 1.0) * np.sum(w * w, axis=1) / (
        2.0 * np.maximum(np.abs(alpha), 1.0))
    bank = classify.SeparatorBank(tuple(
        classify.Separator(a, b, v) for a, b, v in zip(alpha, beta, w)))
    values = uniform(draw, (draw(st.integers(1, 6)), space.dim), 3.0)
    return space, bank, values, uniform(draw, (space.fiber_dim,), np.pi)


def normals(bank):
    """n = (-alpha, sqrt2 w, beta) (K, N) of each separator."""
    head = bank.head
    return np.column_stack([-head["alpha"], SQRT2 * head["w"], head["beta"]])


def hyperboloid(values):
    """v (B, N) of coordinate rows (Y1, Y2), by exp rather than the chart."""
    y1, y2 = values[:, :1], values[:, 1:]
    return np.hstack([np.exp(y1) * (1.0 + 0.25 * np.sum(y2 * y2, axis=1,
                                                        keepdims=True)),
                      y2 / SQRT2, -np.exp(-y1)])


def pairing(space, a, b):
    """<a, b>_eta over the last axis, eta the form of ``space``."""
    return a @ spaces.build_eta(space).entries @ b.T


def h_of(coefs, values):
    """h (B, K) of covectors C at coordinate rows, by the head kernel."""
    return classify._scaled_h(coefs, np.ones(len(coefs)),
                              spaces._to_t_chart(values))[0]


def assert_close(got, want, scale):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 5])
class TestCovectorHead:
    def test_h_is_the_eta_pairing(self, n):
        @PROPERTY
        @given(cases(n))
        def check(case):
            space, bank, values, _ = case
            n_, v = normals(bank), hyperboloid(values)
            want = pairing(space, v, n_)
            # h rounds at the size of its terms, not of h itself
            scale = np.max(np.abs(n_)) * np.max(np.abs(v))
            assert_close(h_of(bank.coefs, values), want, scale)

        check()

    def test_margin_is_half_the_normal_norm(self, n):
        @PROPERTY
        @given(cases(n))
        def check(case):
            space, bank, _, _ = case
            n_ = normals(bank)
            want = 0.5 * np.diagonal(pairing(space, n_, n_))
            assert_close(bank.margins, want, np.max(n_ * n_))
            assert np.all(bank.margins > 0)

        check()

    def test_turned_head_at_the_input_rows(self, n):
        @PROPERTY
        @given(cases(n))
        def check(case):
            space, bank, values, angles = case
            turned, _ = isometry._turn_head(bank.coefs, angles)
            rotated = isometry.fiber_rotate(space, values, angles)
            got = h_of(turned, values)
            want = h_of(bank.coefs, rotated)
            scale = np.max(np.abs(normals(bank))) * max(
                np.max(np.abs(hyperboloid(v))) for v in (values, rotated))
            assert_close(got, want, scale)

        check()


def test_bank_holds_its_covectors_read_only():
    bank = classify.SeparatorBank((
        classify.Separator(0.5, -0.25, np.array([0.3, -0.8])),
        classify.Separator(-1.0, 0.0, np.array([1.0, 2.0]))))
    assert np.array_equal(bank.coefs, [[0.5, 0.3, -0.8, -0.25],
                                       [-1.0, 1.0, 2.0, 0.0]])
    assert np.allclose(bank.margins, [0.855, 5.0], rtol=1e-15, atol=0)
    for array in (bank.coefs, bank.margins, *bank.head.values()):
        assert not array.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bank_head_reads_coordinates_as_the_chart_does(n):
    # the public heads build the lift from the coordinate rows with one
    # copy; they give the bits of the head kernel at the rows of the chart
    # (T, Y2), for a batch, a single point and a SolvCoords point
    @PROPERTY
    @given(cases(n))
    def check(case):
        space, bank, values, _ = case
        norms = classify._norms(bank.margins)
        for p in (values, values[0], spaces.SolvCoords(space, values[0])):
            got = classify._bank_head(bank, p)[0]
            want = classify._scaled_h(bank.coefs, norms,
                                      spaces._to_t_chart(p))[0]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    check()
