"""The reverse gradient turns the head, not the batch: the last layer's
fiber rotation G is an isometry, so the head turned by G
(``isometry._turn_head``) gives at the rows that stage reads the class
scores the head gives at the rotated rows.  Its norms and admissibility
check stay the head's own, and the last layer's input keeps its Cartan
bound check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, isometry, net, spaces, train

CS_STEP = 1e-30
PROPERTY = settings(max_examples=8)

LAYERS = {
    "H2": (2,),
    "H3-H2": (3, 2),
    "H5-H3": (5, 3),
    "H17-H9-H5": (17, 9, 5),
}


def uniform(draw, shape, bound):
    return draw(hnp.arrays(float, shape, elements=st.floats(-bound, bound)))


@st.composite
def networks(draw, dims):
    """A config with K = 1 or 3 separators, parameters with random angles,
    translations and heads, and a batch."""
    K = draw(st.sampled_from([1, 3]))
    config = net.NetworkConfig(
        input_dim=3,
        layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in dims),
        task="multiclass" if K > 1 else "binary", K=K if K > 1 else None)
    params = net.init_params(config, seed=draw(st.integers(0, 2**16)))
    params.lam[:] = uniform(draw, params.lam.shape, np.pi)
    for psi, b in zip(params.psis, params.bs):
        psi[:] = uniform(draw, psi.shape, np.pi)
        b[:] = uniform(draw, b.shape, 0.5)
    head = params.head
    head["w"][:] = uniform(draw, head["w"].shape, 2.0)
    head["w"][:, 0] = 0.5 + np.abs(head["w"][:, 0])
    head["alpha"][:] = uniform(draw, (K,), 0.5)
    # beta of either sign, within the admissible margin |w|^2 - alpha beta
    head["beta"][:] = uniform(draw, (K,), 0.2)
    X = uniform(draw, (draw(st.integers(1, 6)), 3), 2.0)
    return config, params, X


def bank_of(head):
    return classify.SeparatorBank(tuple(
        classify.Separator(a, b, w)
        for a, b, w in zip(head["alpha"], head["beta"], head["w"])))


def assert_close(got, want, floor=0.0):
    """Equal to 1e-12 relative, scores to 1e-12 of max(1, |want|): the
    turn rounds h at the size of the head's terms, not of h, which
    cancels to 0 on a separator."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * max(
        floor, np.linalg.norm(want))


class TestTurnedHeadScores:
    @pytest.mark.parametrize("name", list(LAYERS))
    def test_scores_at_unrotated_rows(self, name):
        @PROPERTY
        @given(networks(LAYERS[name]))
        def check(case):
            config, params, X = case
            last = list(net.stages(config, params, X))[-1]
            coefs, margins = classify._read_head(params.head)
            turned, _ = isometry._turn_head(coefs, last.angles)
            u, _ = classify._scaled_h(turned, classify._norms(margins),
                                      last.rows)
            points = net.forward_batch(config, params, X)
            bank = bank_of(params.head)
            assert_close(classify._softmax(classify._scores(u)),
                         classify.softmax_probs(bank, points), 1.0)
            want = np.stack([classify.signed_distance(sep, points)
                             for sep in bank.separators], axis=-1)
            assert_close(np.arcsinh(u), want, 1.0)

        check()


@st.composite
def turns(draw):
    """A head on H^n, angles of its fiber rotation and a cotangent of the
    turned head."""
    space = spaces.hyperbolic(draw(st.sampled_from([3, 5, 9])))
    K, s = draw(st.integers(1, 4)), space.subpaint_dim
    head = {"alpha": uniform(draw, (K,), 2.0),
            "beta": uniform(draw, (K,), 2.0),
            "w": uniform(draw, (K, s), 2.0)}
    grads = {"alpha": uniform(draw, (K,), 1.0),
             "beta": uniform(draw, (K,), 1.0),
             "w": uniform(draw, (K, s), 1.0)}
    return head, uniform(draw, (space.fiber_dim,), np.pi), grads


class TestTurnPullback:
    @PROPERTY
    @given(turns())
    def test_matches_complex_step(self, case):
        head, angles, grads = case

        def loss(head, angles):
            turned, _ = isometry._turn_head(classify._read_head(head)[0],
                                            angles)
            return np.sum(classify._read_head(grads)[0] * turned)

        got_coefs, got_angles = isometry._turn_head_pullback(
            isometry._turn_head(classify._read_head(head)[0], angles)[1],
            classify._read_head(grads)[0])
        got_head = classify._head_of(got_coefs)
        for name, value in head.items():
            want = np.empty(value.shape)
            for idx in np.ndindex(value.shape):
                stepped = {k: v.astype(complex) for k, v in head.items()}
                stepped[name][idx] += 1j * CS_STEP
                want[idx] = np.imag(loss(stepped, angles)) / CS_STEP
            assert_close(got_head[name], want)
        want = np.empty(angles.shape)
        for j in range(len(angles)):
            stepped = angles.astype(complex)
            stepped[j] += 1j * CS_STEP
            want[j] = np.imag(loss(head, stepped)) / CS_STEP
        assert_close(got_angles, want)

    def test_no_fibers_is_the_identity(self):
        head = {"alpha": np.array([0.2]), "beta": np.array([-0.1]),
                "w": np.array([[1.0]])}
        turned, tape = isometry._turn_head(head, np.zeros(0))
        assert turned is head and tape is None


class TestChecksOfTheUnturnedHead:
    @staticmethod
    def one_layer(head, lam=0.3):
        config = net.NetworkConfig(
            input_dim=2, layers=(net.LayerSpec(spaces.hyperbolic(3)),),
            task="binary")
        params = net.init_params(config, seed=0)
        params.Q[:] = 0.5 * np.eye(3, 2)
        params.lam[:] = lam
        for name, value in head.items():
            params.head[name][:] = value
        return config, params

    def test_near_lightlike_head_is_accepted(self):
        # margin 1 - (1 - 2^-40) = 9.1e-13 read from (alpha, beta, w);
        # the turned head's own margin rounds at the size of alpha^2 / 4
        # and reads negative
        config, params = self.one_layer(
            {"w": [[0.6, 0.8]], "alpha": [1e6],
             "beta": [(1.0 - 2.0 ** -40) / 1e6]})
        turned = classify._head_of(isometry._turn_head(
            classify._read_head(params.head)[0], params.lam)[0])
        assert not classify._margin(turned["alpha"], turned["beta"],
                                    turned["w"])[0] > 0
        X = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 2))
        y = np.arange(6) % 2
        got = train.gradient(config, net.flatten(config, params), X, y)
        assert np.all(np.isfinite(got))

    def test_inadmissible_head_is_refused(self):
        config, params = self.one_layer(
            {"w": [[0.6, 0.8]], "alpha": [1.0], "beta": [1.0]})
        X = np.ones((3, 2))
        with pytest.raises(classify.DegenerateSeparatorError):
            train.gradient(config, net.flatten(config, params), X,
                           np.zeros(3, int))

    def test_last_layer_input_beyond_the_bound_is_refused(self):
        # one layer: no fiber stage runs, the injection feeds the head
        config, params = self.one_layer(
            {"w": [[1.0, 0.0]], "alpha": [0.0], "beta": [0.0]})
        params.Q[0] = 2.0 * spaces.CARTAN_BOUND
        X = np.ones((3, 2))
        with pytest.raises(spaces.CartanBoundError):
            train.gradient(config, net.flatten(config, params), X,
                           np.zeros(3, int))
