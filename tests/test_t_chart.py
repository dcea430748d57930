"""The chart (T, Y2), T = e^{-Y1}, of the r=1 stage chain.

The chain runs from the injection to the last layer with T in row 0 of
its columns, so a forward pass takes one exp (the injection) and one log
(the output of ``forward_batch``) over the batch, whatever its depth:
the homomorphism is affine in T and each layer's fiber rotations are one
matrix built from the angles alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, isometry, net, spaces

PROPERTY = settings(max_examples=25)
BATCH = 37  # no layer width or parameter count of the networks below

NETS = {
    "H2": (2,),
    "H5-H3": (5, 3),
    "H17-H9-H5": (17, 9, 5),
}


def network(dims, input_dim=4, seed=0):
    config = net.NetworkConfig(
        input_dim=input_dim,
        layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in dims),
        task="multiclass", K=3)
    params = net.init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    params.lam[:] = rng.uniform(-0.5, 0.5, params.lam.shape)
    for psi, b in zip(params.psis, params.bs):
        psi[:] = rng.uniform(-0.5, 0.5, psi.shape)
        b[:] = rng.uniform(-0.3, 0.3, b.shape)
    return config, params


class TestTranscendentalPasses:
    """A guard on the cost of a forward pass: np.exp and np.log each run
    once over the batch, so no stage adds a transcendental pass back."""

    @staticmethod
    def count_batch_calls(monkeypatch, name):
        calls = []
        original = getattr(np, name)

        def counted(x, *args, **kwargs):
            if BATCH in np.shape(x):
                calls.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
        return calls

    @pytest.mark.parametrize("name", list(NETS))
    def test_one_exp_and_one_log(self, name, monkeypatch):
        config, params = network(NETS[name])
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (BATCH, 4))
        want = net.forward_batch(config, params, X)
        exps = self.count_batch_calls(monkeypatch, "exp")
        logs = self.count_batch_calls(monkeypatch, "log")
        got = net.forward_batch(config, params, X)
        assert len(exps) == 1 and len(logs) == 1, (exps, logs)
        assert np.array_equal(got, want)

    def test_softmax_takes_one_exp(self, monkeypatch):
        d = np.random.default_rng(2).normal(size=(BATCH, 4))
        exps = self.count_batch_calls(monkeypatch, "exp")
        logs = self.count_batch_calls(monkeypatch, "log")
        classify._softmax(d)
        assert len(exps) == 1 and logs == []


class TestChain:
    @pytest.mark.parametrize("name", list(NETS))
    def test_stages_yield_t_rows(self, name):
        # the last stage's rows hold T = e^{-Y1} of forward_batch's output
        config, params = network(NETS[name])
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (8, 4))
        for stage in net.stages(config, params, X):
            pass
        t = stage.rotated[0]
        Y = net.forward_batch(config, params, X)
        assert np.allclose(t[:, 0], np.exp(-Y[:, 0]), rtol=1e-14, atol=0)
        assert np.array_equal(t[:, 1:], Y[:, 1:])

    def test_rotation_matrix_is_orthogonal(self):
        angles = np.random.default_rng(4).uniform(-np.pi, np.pi, 15)
        G, partial = isometry._givens_product(np.cos(angles), np.sin(angles))
        assert np.allclose(G @ G.T, np.eye(16), atol=1e-15)
        # row 0 of the partial products, built one rotation at a time
        p = np.eye(16)[0]
        for j, a in enumerate(angles):
            assert np.allclose(partial[j], p, rtol=0, atol=1e-16)
            p = np.cos(a) * p
            p[1 + j] += np.sin(a)
        assert np.allclose(G[0], p, rtol=0, atol=1e-16)


@st.composite
def banks(draw):
    K = draw(st.integers(2, 6))
    s = draw(st.integers(1, 8))
    w = draw(hnp.arrays(float, (K, s), elements=st.floats(-3.0, 3.0)))
    w[:, 0] = 0.5 + np.abs(w[:, 0])
    seps = tuple(classify.Separator(0.0, 0.0, row) for row in w)
    scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    points = draw(hnp.arrays(float, (5, 1 + s),
                             elements=st.floats(-1.0, 1.0))) * scale
    return classify.SeparatorBank(seps), points


class TestSoftmax:
    @PROPERTY
    @given(banks())
    def test_probabilities_sum_to_one(self, case):
        bank, points = case
        probs = classify.softmax_probs(bank, points)
        assert np.all(probs >= 0.0)
        assert np.max(np.abs(np.sum(probs, axis=-1) - 1.0)) <= 1e-12

    def test_complex_inputs_propagate(self):
        d = np.array([[0.3, -1.2, 2.0]]) + 1e-30j * np.array([[1.0, 0.0, 0.0]])
        p = classify._softmax(d)
        real = classify._softmax(d.real)
        assert np.allclose(p.real, real, rtol=1e-15, atol=0)
        # d p_k / d d_0 = p_k ([k = 0] - p_0)
        want = real[0] * (np.array([1.0, 0.0, 0.0]) - real[0, 0])
        assert np.allclose(p.imag[0] / 1e-30, want, rtol=1e-14, atol=0)
