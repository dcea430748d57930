"""Separators, signed distances, probability heads and likelihoods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, spaces
from cartannet.spaces import SolvCoords, SpaceId
from oracles import find_surface_point, h_value, head_kernel, sigmoid

H2 = SpaceId.so(1, 1)
H3 = SpaceId.so(1, 2)


def rand_sep(rng, s=2):
    # draw until admissible
    while True:
        alpha, beta = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, s)
        sep = classify.Separator(alpha, beta, w)
        if sep.admissible:
            return sep


class TestHValue:
    def test_linear_reduction(self):
        # oracle: alpha = beta = 0, w = e_j picks out coordinate 1+j
        sep = classify.Separator(0.0, 0.0, np.array([0.0, 1.0]))
        p = SolvCoords(H3, [0.4, 0.7, -0.3])
        assert np.isclose(h_value(sep, p), -0.3)

    def test_origin_value(self):
        sep = classify.Separator(0.4, -0.1, np.array([1.0, 0.0]))
        o = SolvCoords(H3, np.zeros(3))
        assert np.isclose(h_value(sep, o), 0.3)

    def test_full_formula(self):
        a, b = 0.5, -0.25
        w = np.array([0.3, -0.8])
        y = np.array([0.6, 0.2, -0.4])
        sep = classify.Separator(a, b, w)
        want = (a * np.exp(-0.6) + w @ y[1:]
                + b * np.exp(0.6) * (1 + (y[1] ** 2 + y[2] ** 2) / 4))
        assert np.isclose(h_value(sep, SolvCoords(H3, y)), want)

    def test_dimension_mismatch(self):
        sep = classify.Separator(0.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            h_value(sep, SolvCoords(H3, np.zeros(3)))


class TestSignedDistance:
    def test_zero_on_surface(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            sep = rand_sep(rng)
            p = find_surface_point(sep, H3, seed=seed)
            assert abs(classify.signed_distance(sep, p)) < 1e-10

    def test_axis_formula(self):
        # oracle: alpha = beta = 0, |w| = 1, p = (0, c w) gives
        # arcsinh(c / 2), the geodesic distance to the hyperplane
        w = np.array([0.6, 0.8])
        sep = classify.Separator(0.0, 0.0, w)
        for c in (-2.0, 0.3, 1.7):
            p = SolvCoords(H3, np.r_[0.0, c * w])
            assert np.isclose(classify.signed_distance(sep, p),
                              np.arcsinh(c / 2))

    def test_odd_in_parameters(self):
        rng = np.random.default_rng(1)
        sep = rand_sep(rng)
        neg = classify.Separator(-sep.alpha, -sep.beta, -sep.w)
        for _ in range(20):
            p = SolvCoords(H3, rng.uniform(-1, 1, 3))
            d1 = classify.signed_distance(sep, p)
            d2 = classify.signed_distance(neg, p)
            assert np.isclose(d1, -d2)

    def test_degenerate_rejected(self):
        sep = classify.Separator(1.0, 1.0, np.array([0.5, 0.0]))
        with pytest.raises(classify.DegenerateSeparatorError):
            classify.signed_distance(sep, SolvCoords(H3, np.zeros(3)))

    def test_matches_distance_minimization(self):
        # oracle: |signed distance| equals the minimum geodesic distance
        # to sampled points of the surface (H^2, scan over the surface)
        rng = np.random.default_rng(2)
        for _ in range(5):
            sep = rand_sep(rng, s=1)
            p = SolvCoords(H2, rng.uniform(-0.8, 0.8, 2))
            d = abs(classify.signed_distance(sep, p))
            best = np.inf
            for y2 in np.linspace(-24.0, 24.0, 8001):
                q = _surface_point_at(sep, y2)
                if q is None:
                    continue
                best = min(best, spaces.coords_distance(p, SolvCoords(H2, q)))
            assert np.isclose(d, best, atol=1e-3)


def _surface_point_at(sep, y2):
    """Solve h = 0 for Y1 at fixed scalar subPaint value y2 (H^2)."""
    a = sep.beta * (1.0 + 0.25 * y2 ** 2)
    b = float(sep.w[0]) * y2
    c = sep.alpha
    if a == 0.0:
        if b == 0.0:
            return None
        t = -c / b
        return np.array([np.log(t), y2]) if t > 0 else None
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    for t in ((-b + np.sqrt(disc)) / (2 * a), (-b - np.sqrt(disc)) / (2 * a)):
        if t > 0:
            return np.array([np.log(t), y2])
    return None


class TestSigmoids:
    def test_basic_values(self):
        assert sigmoid(0.0) == 0.5

    def test_complement_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, 100)
        assert np.max(np.abs(sigmoid(x)
                             + sigmoid(-x) - 1.0)) < 1e-15

    def test_overflow_safe(self):
        for x in (-1000.0, 1000.0):
            v = sigmoid(x)
            assert np.isfinite(v) and 0.0 <= v <= 1.0

    def test_tilde_identity(self):
        # oracle: sigmoid(sinh(signed_distance)) == sigmoid(normalized h)
        rng = np.random.default_rng(4)
        sep = rand_sep(rng)
        norm = 2 * np.sqrt(sep.w @ sep.w - sep.alpha * sep.beta)
        pts = rng.uniform(-1, 1, (100, 3))
        lhs = sigmoid(np.sinh(classify.signed_distance(sep, pts)))
        rhs = sigmoid(h_value(sep, pts) / norm)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestBinaryHead:
    def test_half_on_surface(self):
        rng = np.random.default_rng(5)
        sep = rand_sep(rng)
        p = find_surface_point(sep, H3, seed=1)
        bank = classify.SeparatorBank((sep,))
        assert np.isclose(classify.softmax_probs(bank, p)[1], 0.5)

    def test_threshold_equals_sign_rule(self):
        rng = np.random.default_rng(6)
        sep = rand_sep(rng)
        pts = rng.uniform(-1.5, 1.5, (200, 3))
        bank = classify.SeparatorBank((sep,))
        by_prob = classify.softmax_probs(bank, pts)[:, 1] > 0.5
        by_sign = h_value(sep, pts) > 0
        assert np.array_equal(by_prob, by_sign)

    def test_nll_on_surface_is_log2(self):
        rng = np.random.default_rng(7)
        sep = rand_sep(rng)
        p = find_surface_point(sep, H3, seed=2)
        pts = p.values[None, :]
        bank = classify.SeparatorBank((sep,))
        for y in (0, 1):
            nll = classify.multiclass_nll(pts, np.array([y]), bank)
            assert np.isclose(nll, np.log(2.0))

    def test_nll_matches_product_form(self):
        rng = np.random.default_rng(8)
        sep = rand_sep(rng)
        pts = rng.uniform(-1, 1, (20, 3))
        y = rng.integers(0, 2, 20)
        bank = classify.SeparatorBank((sep,))
        prob = classify.softmax_probs(bank, pts)[:, 1]
        direct = -np.log(np.prod(np.where(y == 1, prob, 1 - prob)))
        assert np.isclose(classify.multiclass_nll(pts, y, bank), direct,
                          atol=1e-12)

    def test_empty_data(self):
        bank = classify.SeparatorBank((
            classify.Separator(0.0, 0.0, np.array([1.0, 0.0])),))
        with pytest.raises(ValueError):
            classify.multiclass_nll(np.zeros((0, 3)), np.zeros(0), bank)


class TestSoftmaxHead:
    def bank(self, rng, K=3):
        return classify.SeparatorBank(tuple(rand_sep(rng) for _ in range(K)))

    def test_identical_separators_uniform(self):
        rng = np.random.default_rng(9)
        sep = rand_sep(rng)
        bank = classify.SeparatorBank((sep, sep, sep))
        pts = rng.uniform(-1, 1, (10, 3))
        probs = classify.softmax_probs(bank, pts)
        assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-14

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(10)
        bank = self.bank(rng)
        pts = rng.uniform(-2, 2, (50, 3))
        probs = classify.softmax_probs(bank, pts)
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(probs > 0)

    def test_k2_reduces_to_sigmoid(self):
        rng = np.random.default_rng(11)
        s1, s2 = rand_sep(rng), rand_sep(rng)
        bank = classify.SeparatorBank((s1, s2))
        pts = rng.uniform(-1, 1, (30, 3))
        probs = classify.softmax_probs(bank, pts)
        d1 = classify.signed_distance(s1, pts)
        d2 = classify.signed_distance(s2, pts)
        assert np.max(np.abs(probs[:, 0] - sigmoid(d1 - d2))) < 1e-12

    def test_multiclass_nll_uniform(self):
        rng = np.random.default_rng(12)
        sep = rand_sep(rng)
        bank = classify.SeparatorBank((sep, sep, sep, sep))
        pts = rng.uniform(-1, 1, (10, 3))
        y = rng.integers(0, 4, 10)
        nll = classify.multiclass_nll(pts, y, bank)
        assert np.isclose(nll, 10 * np.log(4.0))

    def test_label_out_of_range(self):
        rng = np.random.default_rng(13)
        bank = self.bank(rng, K=2)
        with pytest.raises(ValueError):
            classify.multiclass_nll(np.zeros((1, 3)), np.array([2]), bank)


class TestUnlikelyLabels:
    """Far from a separator the true class can be far less likely than
    1e-12; the loss keeps growing and keeps its gradient there."""

    H = 1e-30  # complex step

    def test_multiclass_far_side(self):
        # d0 = -d1 = arcsinh(Y2 / 2) with Y2 = 1e11; the true class is 1
        pts = np.array([[0.0, 1e11, 0.0]])

        def nll(alpha):
            bank = classify.SeparatorBank((
                classify.Separator(alpha, 0.0, np.array([1.0, 0.0])),
                classify.Separator(0.0, 0.0, np.array([-1.0, 0.0]))))
            return classify.multiclass_nll(pts, np.array([1]), bank)

        d = np.arcsinh(0.5e11)
        assert np.isclose(nll(0.0), np.logaddexp(d, -d) + d, rtol=1e-14)
        # dd0/dalpha = e^{-Y1} / sqrt(4 + h^2) and p0 = 1 to 1e-44
        grad = np.imag(nll(1j * self.H)) / self.H
        assert np.isclose(grad, 1.0 / np.sqrt(4.0 + 1e22), rtol=1e-12)

    def test_binary_far_side(self):
        # d = arcsinh(Y2 / 2) = 30 with the label on the other side
        y2 = 2.0 * np.sinh(30.0)
        pts = np.array([[0.0, y2, 0.0]])

        def nll(alpha):
            bank = classify.SeparatorBank((
                classify.Separator(alpha, 0.0, np.array([1.0, 0.0])),))
            return classify.multiclass_nll(pts, np.array([0]), bank)

        assert np.isclose(nll(0.0), np.logaddexp(0.0, 30.0), rtol=1e-14)
        grad = np.imag(nll(1j * self.H)) / self.H
        assert np.isclose(grad, 1.0 / np.sqrt(4.0 + y2 * y2), rtol=1e-12)


PROPERTY = settings(max_examples=30)


def closed_form_distance(alpha, beta, w, z):
    """arcsinh(h / (2 sqrt(|w|^2 - alpha beta))) of one separator at the
    rows z, with h = alpha e^{-Y1} + <w, Y2> + beta e^{Y1} (1 + |Y2|^2/4)."""
    y1, y2 = z[:, 0], z[:, 1:]
    h = (alpha * np.exp(-y1) + y2 @ w
         + beta * np.exp(y1) * (1.0 + np.sum(y2 * y2, axis=1) / 4.0))
    return np.arcsinh(h / (2.0 * np.sqrt(w @ w - alpha * beta)))


def draw_separator(draw, s):
    """An admissible separator: |w|^2 >= 1/4 and alpha beta <= |w|^2 / 2."""
    w = draw(hnp.arrays(float, s, elements=st.floats(-2.0, 2.0)))
    w[0] = 0.5 + abs(w[0])
    alpha, beta = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    if alpha * beta > 0.5 * (w @ w):
        beta = -beta
    return classify.Separator(alpha, beta, w)


@st.composite
def banks_and_points(draw):
    """A bank of K = 1..5 admissible separators and complex points."""
    K, s = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    bank = classify.SeparatorBank(
        tuple(draw_separator(draw, s) for _ in range(K)))
    real = draw(hnp.arrays(float, (rows, 1 + s),
                           elements=st.floats(-3.0, 3.0)))
    imag = draw(hnp.arrays(float, (rows, 1 + s),
                           elements=st.floats(-0.1, 0.1)))
    labels = draw(hnp.arrays(int, rows, elements=st.integers(0, K - 1)))
    return bank, real + 1j * imag, labels


@st.composite
def inadmissible_banks(draw):
    """A bank with one separator at a drawn position whose margin
    |w|^2 - alpha beta is zero or negative, and real points."""
    bank, z, labels = draw(banks_and_points())
    seps = list(bank.separators)
    s = len(seps[0].w)
    w = draw(hnp.arrays(float, s, elements=st.floats(-2.0, 2.0)))
    beta = draw(st.sampled_from([1.0, -1.0]))
    # alpha beta = sum(w * w) + margin exactly, since beta^2 = 1
    alpha = beta * (float(np.sum(w * w)) + draw(st.floats(0.0, 2.0)))
    seps.insert(draw(st.integers(0, len(seps))),
                classify.Separator(alpha, beta, w))
    return classify.SeparatorBank(tuple(seps)), z.real, labels


class TestStackedHead:
    """The batched head kernel against the closed form of each separator,
    and its admissibility check on every separator of a bank."""

    @PROPERTY
    @given(banks_and_points())
    def test_distances_match_closed_form(self, case):
        bank, z, labels = case
        want = np.stack([closed_form_distance(s.alpha, s.beta, s.w, z)
                         for s in bank.separators], axis=1)
        got = np.arcsinh(head_kernel(bank.head, spaces._to_t_chart(z))[0])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        if len(bank) == 1:  # a bank of one scores (0, d)
            want = np.hstack([np.zeros_like(want), want])
        probs = np.exp(want) / np.sum(np.exp(want), axis=1, keepdims=True)
        assert np.allclose(classify.softmax_probs(bank, z), probs,
                           rtol=1e-12, atol=1e-14)
        nll = np.sum(np.log(np.sum(np.exp(want), axis=1))
                     - want[np.arange(len(z)), labels])
        assert np.isclose(classify.multiclass_nll(z, labels, bank), nll,
                          rtol=1e-12, atol=1e-12)

    @PROPERTY
    @given(inadmissible_banks())
    def test_any_inadmissible_separator_raises(self, case):
        bank, x, labels = case
        with pytest.raises(classify.DegenerateSeparatorError):
            classify.softmax_probs(bank, x)
        with pytest.raises(classify.DegenerateSeparatorError):
            classify.multiclass_nll(x, labels, bank)
        with pytest.raises(classify.DegenerateSeparatorError):
            # the reverse gradient's norms
            classify._norms(classify._read_head(bank.head)[1])


@st.composite
def surface_cases(draw):
    """An admissible separator on H^2..H^6 of one drawn kind: alpha = beta
    = 0, w = 0 (so alpha beta < 0), beta = 0, alpha = 0, or general."""
    s = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["flat", "no-normal", "beta0", "alpha0",
                                 "general"]))
    if kind == "general":
        sep = draw_separator(draw, s)
    else:
        w = draw(hnp.arrays(float, s, elements=st.floats(-2.0, 2.0)))
        w[0] = 0.1 + abs(w[0])
        a = draw(st.floats(-3.0, 3.0))
        b = draw(st.floats(0.01, 3.0))
        sep = {"flat": lambda: classify.Separator(0.0, 0.0, w),
               "no-normal": lambda: classify.Separator(
                   np.sign(a or 1.0) * (abs(a) + 0.01), -np.sign(a or 1.0) * b,
                   np.zeros(s)),
               "beta0": lambda: classify.Separator(a, 0.0, w),
               "alpha0": lambda: classify.Separator(0.0, a, w)}[kind]()
    return sep, spaces.hyperbolic(s + 1), draw(st.integers(0, 2**32 - 1))


class TestSurfaceWitness:
    """``find_surface_point`` on every kind of admissible separator."""

    @PROPERTY
    @given(surface_cases())
    def test_witness_lies_on_the_surface(self, case):
        sep, space, seed = case
        assert sep.admissible
        p = find_surface_point(sep, space, seed=seed)
        assert p.space == space
        assert abs(classify.signed_distance(sep, p)) <= 1e-10
