"""Reverse-mode gradient against complex-step differentiation.

Every stage of the network is complex-analytic, so one complex forward
pass per parameter with step 1e-30 gives each partial derivative to
machine precision (Martins et al. 2003).  That loop is the oracle here:
the reverse-mode gradient and the per-stage vector-Jacobian products must
match it to 1e-12 relative."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, homo, isometry, net, spaces, train
from oracles import _cotangent_to_t_chart

CS_STEP = 1e-30
RTOL = 1e-12
PROPERTY = settings(max_examples=4)

LAYERS = {
    "H2": (2,),
    "H3-H2": (3, 2),
    "H5-H3": (5, 3),
    "H17-H9-H5": (17, 9, 5),
}
TASKS = [("binary", None), ("multiclass", 4), ("regression", None)]


def complex_step_gradient(config, flat, features, labels):
    """One complex forward pass per parameter."""
    x = np.asarray(flat.vector, dtype=float)
    z = x.astype(complex)
    g = np.empty_like(x)
    for i in range(len(x)):
        z[i] += 1j * CS_STEP
        g[i] = np.imag(train.loss_flat(config, z, features, labels)) / CS_STEP
        z[i] = x[i]
    return g


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def read_back_branches(space, values, angles):
    """Which read-back branch (P > 0) each row of fiber_rotate takes:
    P = R - 2 e^{-w1} of the output, R of the input."""
    w1, s = values[:, 0], values[:, 1:]
    R = np.exp(w1) * (1.0 + 0.25 * np.sum(s * s, axis=1)) + np.exp(-w1)
    out = isometry.fiber_rotate(space, values, angles)
    return R - 2.0 * np.exp(-out[:, 0]) > 0


def uniform(draw, shape, bound):
    return draw(hnp.arrays(float, shape, elements=st.floats(-bound, bound)))


@st.composite
def networks(draw, dims, task, K):
    """Config, parameters with nonzero angles, b, alpha and beta, and a
    batch whose first fiber stage takes both read-back branches."""
    config = net.NetworkConfig(
        input_dim=draw(st.integers(2, 5)),
        layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in dims),
        task=task, K=K)
    params = net.init_params(config, seed=draw(st.integers(0, 2**16)))
    params.lam[:] = uniform(draw, params.lam.shape, np.pi)
    for psi, b in zip(params.psis, params.bs):
        psi[:] = uniform(draw, psi.shape, np.pi)
        b[:] = uniform(draw, b.shape, 0.5)
    params.head["alpha"][:] = uniform(draw, (config.n_separators,), 0.3)
    params.head["beta"][:] = uniform(draw, (config.n_separators,), 0.3)
    rows = draw(st.integers(1, 6))
    X = uniform(draw, (rows, config.input_dim), 2.0)
    # two rows with Cartan coordinate +-4 after the injection
    q0 = params.Q[0]
    X = np.concatenate([X, 4.0 * np.stack([q0, -q0]) / (q0 @ q0)])
    if task == "regression":
        y = uniform(draw, (len(X),), 2.0)
    else:
        y = draw(hnp.arrays(int, (len(X),),
                            elements=st.integers(0, (K or 2) - 1)))
    return config, params, X, y


class TestAgainstComplexStep:
    @pytest.mark.parametrize("task,K", TASKS)
    @pytest.mark.parametrize("name", list(LAYERS))
    def test_gradient_matches_oracle(self, name, task, K):
        @PROPERTY
        @given(networks(LAYERS[name], task, K))
        def check(case):
            config, params, X, y = case
            first = config.layers[0].space
            branches = read_back_branches(first, X @ params.Q.T, params.lam)
            if first.fiber_dim:
                assume(branches.any() and not branches.all())
            flat = net.flatten(config, params)
            got = train.gradient(config, flat, X, y)
            assert_close(got, complex_step_gradient(config, flat, X, y))

        check()


@st.composite
def fiber_batches(draw):
    """(space, values, angles, grad); the rows (+-4, 0, ..., 0) take both
    read-back branches unless a rotation sends P through zero."""
    space = draw(st.sampled_from([spaces.hyperbolic(n) for n in (3, 5, 9, 17)]))
    rows = draw(st.integers(1, 5))
    values = uniform(draw, (rows, space.dim), 3.0)
    values = np.concatenate([values, np.zeros((2, space.dim))])
    values[-2:, 0] = (4.0, -4.0)
    angles = uniform(draw, (space.fiber_dim,), np.pi)
    grad = uniform(draw, values.shape, 1.0)
    return space, values, angles, grad


class TestKernelVjps:
    """The stage pullbacks of the chain, run in its chart (T, Y2),
    T = e^{-Y1}, against complex step through the stage forwards."""

    @settings(PROPERTY, max_examples=20)
    @given(fiber_batches())
    def test_fiber_rotate_vjp(self, case):
        # the cotangents are drawn in coordinates, where the rows +-4 do
        # not share a scale: g_T = -g_Y1 / T at the stage's output and
        # g_Y1 = -T g_T at its input
        space, values, angles, grad = case
        branches = read_back_branches(space, values, angles)
        assume(branches.any() and not branches.all())
        t = spaces._to_t_chart(values)
        out, tape = isometry._fiber_forward(space, t, angles)
        g_t, g_angles = isometry._fiber_pullback(
            tape, _cotangent_to_t_chart(out, grad))
        g_values = spaces._cotangent_from_t_chart(t, g_t)
        want_values = np.empty_like(values)
        for k in range(space.dim):
            z = values.astype(complex)
            z[:, k] += 1j * CS_STEP
            d = np.imag(isometry.fiber_rotate(space, z, angles)) / CS_STEP
            want_values[:, k] = np.sum(grad * d, axis=1)
        want_angles = np.empty_like(angles)
        for j in range(space.fiber_dim):
            a = angles.astype(complex)
            a[j] += 1j * CS_STEP
            d = np.imag(isometry.fiber_rotate(space, values, a)) / CS_STEP
            want_angles[j] = np.sum(grad * d)
        assert_close(g_values, want_values)
        assert_close(g_angles, want_angles)

    def test_fiber_rotate_vjp_without_fibers(self):
        space = spaces.hyperbolic(2)
        grad = np.arange(6.0).reshape(3, 2)
        out, tape = isometry._fiber_forward(space, np.ones((3, 2)), np.zeros(0))
        g_t, g_angles = isometry._fiber_pullback(tape, grad)
        assert np.array_equal(g_t, grad) and g_angles.shape == (0,)

    @settings(PROPERTY, max_examples=10)
    @given(st.data())
    def test_homomorphism_vjp(self, data):
        si, so, rows = (data.draw(st.integers(1, 6)) for _ in range(3))
        W = uniform(data.draw, (so, si), 1.0)
        b = uniform(data.draw, (so,), 1.0)
        values = uniform(data.draw, (rows, 1 + si), 3.0)
        grad = uniform(data.draw, (rows, 1 + so), 1.0)
        t = spaces._to_t_chart(values)
        g_t, g_W, g_b = homo._homomorphism_pullback(W, b, t, grad)

        def pullback(z_t, z_W, z_b):
            out = homo._homomorphism_forward(z_W, z_b, z_t)
            return np.imag(np.sum(grad * out)) / CS_STEP

        for got, arg in ((g_t, 0), (g_W, 1), (g_b, 2)):
            want = np.empty(got.shape)
            for idx in np.ndindex(got.shape):
                args = [t.astype(complex), W.astype(complex),
                        b.astype(complex)]
                args[arg][idx] += 1j * CS_STEP
                want[idx] = pullback(*args)
            assert_close(got, want)


class TestErrorsPropagate:
    def config(self):
        return net.NetworkConfig(
            input_dim=3, layers=(net.LayerSpec(spaces.hyperbolic(5)),
                                 net.LayerSpec(spaces.hyperbolic(3))),
            task="multiclass", K=3)

    def test_cartan_bound(self):
        config = self.config()
        params = net.init_params(config, seed=1)
        params.Q[0] = 2.0 * spaces.CARTAN_BOUND
        X = np.ones((4, 3))
        with pytest.raises(spaces.CartanBoundError):
            train.gradient(config, net.flatten(config, params), X,
                           np.zeros(4, int))

    def test_degenerate_separator(self):
        config = self.config()
        params = net.init_params(config, seed=2)
        params.head["w"][1] = 0.0
        params.head["alpha"][1] = params.head["beta"][1] = 1.0
        X = np.ones((4, 3))
        with pytest.raises(classify.DegenerateSeparatorError):
            train.gradient(config, net.flatten(config, params), X,
                           np.zeros(4, int))


class TestSinglePass:
    """Reverse mode runs each stage forward once: every fiber stage's
    Givens chain once, handing its tape to the pullback, and the separator
    head once, its VJP reusing that forward."""

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("name", list(LAYERS))
    def test_one_forward_per_stage(self, name, monkeypatch):
        config = net.NetworkConfig(
            input_dim=3,
            layers=tuple(net.LayerSpec(spaces.hyperbolic(n))
                         for n in LAYERS[name]),
            task="multiclass", K=3)
        flat = net.flatten(config, net.init_params(config, seed=3))
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 3))
        y = np.arange(5) % 3
        want = train.gradient(config, flat, X, y)
        fibers = self.counting(monkeypatch, isometry, "_fiber_forward")
        heads = self.counting(monkeypatch, classify, "_head")
        distances = self.counting(monkeypatch, classify, "signed_distance")
        got = train.gradient(config, flat, X, y)
        assert fibers == [layer.space for layer in config.layers]
        assert len(heads) == 1 and distances == []
        assert np.array_equal(got, want)
