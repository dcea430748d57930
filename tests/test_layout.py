"""The batch layout of the r=1 kernels.

Every batched kernel takes and returns coordinate rows (..., d), and
(..., K) for the separator heads, but computes on their contiguous
transpose, the columns (d, ...).  The network's stage chain keeps its
batches as contiguous columns from the injection to the separator head,
so no stage copies its input.  These tests check that contract: the same
bits and shapes whatever the memory order of the rows and whichever form
a single point comes in, and columns throughout the chain and its
reverse pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, homo, isometry, net, spaces, train
from cartannet.spaces import SolvCoords
from oracles import h_value

PROPERTY = settings(max_examples=25)
DIMS = (2, 3, 5, 9, 17)


def uniform(draw, shape, bound):
    return draw(hnp.arrays(float, shape, elements=st.floats(-bound, bound)))


def admissible_bank(draw, K, s):
    """K separators with |w|^2 >= 1/4 and alpha beta <= |w|^2 / 2."""
    seps = []
    for _ in range(K):
        w = uniform(draw, (s,), 2.0)
        w[0] = 0.5 + abs(w[0])
        alpha, beta = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        if alpha * beta > 0.5 * (w @ w):
            beta = -beta
        seps.append(classify.Separator(alpha, beta, w))
    return classify.SeparatorBank(tuple(seps))


@st.composite
def kernel_cases(draw):
    """A batch of points on H^n with every argument a kernel needs."""
    n = draw(st.sampled_from(DIMS))
    space = spaces.hyperbolic(n)
    s = space.subpaint_dim
    rows = draw(st.integers(2, 6))
    so = draw(st.integers(1, 6))
    K = draw(st.integers(2, 5))
    return {
        "space": space,
        "values": uniform(draw, (rows, n), 2.0),
        "angles": uniform(draw, (space.fiber_dim,), np.pi),
        "grad": uniform(draw, (rows, n), 1.0),
        "W": uniform(draw, (so, s), 1.0),
        "b": uniform(draw, (so,), 1.0),
        "grad_out": uniform(draw, (rows, 1 + so), 1.0),
        "bank": admissible_bank(draw, K, s),
        "labels": np.array(draw(st.lists(st.integers(0, K - 1),
                                         min_size=rows, max_size=rows))),
    }


def fiber_stage(space, t, angles, grad):
    """The chain's fiber stage and its pullback at rows t of the chart
    (T, Y2)."""
    return isometry._fiber_pullback(
        isometry._fiber_forward(space, t, angles)[1], grad)


def nll_pullback(head, t, labels):
    """The NLL's pullback through the head at rows t of the chart
    (T, Y2), its gradient dict flattened to (g_t, g_alpha, g_beta, g_w)."""
    scores, u, saved = classify._class_scores(head, t)
    g_t, g_coefs, g_n2 = classify._scaled_h_vjp(
        u, saved, classify._nll_grad(scores, labels, u.shape[-1]))
    g_head = classify._head_of(
        classify._margin_vjp(classify._coefs(head), g_n2, g_coefs))
    return g_t, g_head["alpha"], g_head["beta"], g_head["w"]


def kernels(c):
    """name -> (f(points, grad, grad_out, labels), takes a single point):
    each kernel under the contract, applied to one layout of its inputs.
    The pullbacks of the stage chain read the points in its chart (T, Y2),
    and the homomorphism's and the head's take batches only, as they
    always have."""
    space, angles, W, b, bank = (c["space"], c["angles"], c["W"], c["b"],
                                 c["bank"])
    sep = bank.separators[0]
    binary = classify.SeparatorBank((sep,))
    t = spaces._to_t_chart
    return {
        "fiber_rotate": (
            lambda p, g, go, y: isometry.fiber_rotate(space, p, angles), True),
        "_fiber_pullback": (
            lambda p, g, go, y: fiber_stage(space, t(p), angles, g), True),
        "_homomorphism_forward": (
            lambda p, g, go, y: homo._homomorphism_forward(W, b, t(p)), True),
        "_homomorphism_pullback": (
            lambda p, g, go, y: homo._homomorphism_pullback(W, b, t(p), go),
            False),
        "h_value": (lambda p, g, go, y: h_value(sep, p), True),
        "signed_distance": (
            lambda p, g, go, y: classify.signed_distance(sep, p), True),
        "softmax_probs": (
            lambda p, g, go, y: classify.softmax_probs(bank, p), True),
        "softmax_probs[binary]": (
            lambda p, g, go, y: classify.softmax_probs(binary, p), True),
        "multiclass_nll[binary]": (
            lambda p, g, go, y: classify.multiclass_nll(p, y % 2, binary),
            True),
        "multiclass_nll": (
            lambda p, g, go, y: classify.multiclass_nll(p, y, bank), True),
        "nll_pullback[binary]": (
            lambda p, g, go, y: nll_pullback(binary.head, t(p), y % 2), False),
        "nll_pullback[multiclass]": (
            lambda p, g, go, y: nll_pullback(bank.head, t(p), y), False),
    }


def as_tuple(out):
    return tuple(np.asarray(o) for o in (out if isinstance(out, tuple)
                                         else (out,)))


def assert_same(got, want):
    got, want = as_tuple(got), as_tuple(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


class TestLayoutContract:
    @PROPERTY
    @given(kernel_cases())
    def test_memory_order_of_rows(self, c):
        # C-ordered rows and Fortran-ordered rows (contiguous columns, the
        # chain's own layout) give the same bits and shapes
        rows = len(c["values"])
        for name, (f, _) in kernels(c).items():
            want = f(c["values"], c["grad"], c["grad_out"], c["labels"])
            got = f(np.asfortranarray(c["values"]),
                    np.asfortranarray(c["grad"]),
                    np.asfortranarray(c["grad_out"]), c["labels"])
            assert_same(got, want)
            first = as_tuple(want)[0]
            if first.ndim:
                assert len(first) == rows, name

    @PROPERTY
    @given(kernel_cases())
    def test_forms_of_a_single_point(self, c):
        # a 1-D point, a (1, d) batch and SolvCoords give the same bits; a
        # point's result has the batch's shape without its leading axis
        space = c["space"]
        x, g, go, y = (c["values"][0], c["grad"][0], c["grad_out"][0],
                       c["labels"][0])
        for name, (f, single) in kernels(c).items():
            batch = f(x[None], g[None], go[None], y[None])
            if not single:
                continue
            point = as_tuple(f(x, g, go, y))
            for p, b in zip(point, as_tuple(batch)):
                # per-point outputs lose the batch axis, sums keep shape
                assert b.shape in (p.shape, (1,) + p.shape), name
                assert np.array_equal(p, b.reshape(p.shape)), name
            if name in ("h_value", "signed_distance", "softmax_probs",
                        "softmax_probs[binary]", "multiclass_nll[binary]",
                        "multiclass_nll"):
                assert_same(f(SolvCoords(space, x), g, go, y), point)
        W, b = c["W"], c["b"]
        if space.subpaint_dim == W.shape[1]:
            via_coords = homo.r1_homomorphism(W, b, SolvCoords(space, x))
            row = homo._homomorphism_forward(
                W, b, spaces._to_t_chart(x[None]))[0]
            row[0] = x[0]  # Y1 passes through as given
            assert_same(via_coords.values, row)


NETS = {
    "H2": (2,),
    "H5-H3": (5, 3),
    "H17-H9-H5": (17, 9, 5),
}


def network(dims, task, K=None, input_dim=4, seed=0):
    config = net.NetworkConfig(
        input_dim=input_dim,
        layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in dims),
        task=task, K=K)
    params = net.init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    params.lam[:] = rng.uniform(-0.5, 0.5, params.lam.shape)
    for psi, b in zip(params.psis, params.bs):
        psi[:] = rng.uniform(-0.5, 0.5, psi.shape)
        b[:] = rng.uniform(-0.3, 0.3, b.shape)
    return config, params


class TestForwardRows:
    """A one-row batch and a wider one run the same chain.  A one-row
    batch reaches BLAS as a matrix-vector product and a wider batch as a
    matrix product, and numpy sums the features of a lone point pairwise,
    so the two agree to rounding, not bit for bit."""

    @pytest.mark.parametrize("name", list(NETS))
    def test_rows_match_single_points(self, name):
        config, params = network(NETS[name], "multiclass", K=3)
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (40, 4))
        batch = net.forward_batch(config, params, X)
        for x, row in zip(X, batch):
            point = net.forward_batch(config, params, x[None])[0]
            assert point.shape == row.shape
            assert np.allclose(point, row, rtol=4e-15, atol=4e-15)

    @pytest.mark.parametrize("name", list(NETS))
    def test_order_of_inputs(self, name):
        config, params = network(NETS[name], "multiclass", K=3)
        X = np.random.default_rng(2).uniform(-1.0, 1.0, (40, 4))
        want = net.forward_batch(config, params, X)
        assert np.array_equal(
            net.forward_batch(config, params, np.asfortranarray(X)), want)


class TestColumnsThroughTheChain:
    """No stage of the chain, forward or reverse, copies or repacks its
    input: each receives rows whose transpose is C-contiguous."""

    @staticmethod
    def watch(monkeypatch, module, name, arg, seen):
        original = getattr(module, name)

        def watched(*args):
            seen.append((name, args[arg].T.flags.c_contiguous))
            return original(*args)

        monkeypatch.setattr(module, name, watched)

    @pytest.mark.parametrize("name", list(NETS))
    def test_forward_stages_get_columns(self, name, monkeypatch):
        config, params = network(NETS[name], "multiclass", K=3)
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (8, 4))
        seen = []
        self.watch(monkeypatch, isometry, "_fiber_forward", 1, seen)
        self.watch(monkeypatch, homo, "_homomorphism_forward", 2, seen)
        for stage in net.stages(config, params, X):
            stage.rotated
        assert [n for n, _ in seen].count("_fiber_forward") == len(NETS[name])
        assert all(ok for _, ok in seen), seen

    @pytest.mark.parametrize("task,K", [("binary", None), ("multiclass", 3),
                                        ("regression", None)])
    @pytest.mark.parametrize("name", list(NETS))
    def test_reverse_pass_carries_columns(self, name, task, K, monkeypatch):
        config, params = network(NETS[name], task, K)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 1.0, (8, 4))
        y = rng.normal(size=8) if task == "regression" else np.arange(8) % (K or 2)
        seen = []
        self.watch(monkeypatch, isometry, "_fiber_forward", 1, seen)
        self.watch(monkeypatch, homo, "_homomorphism_forward", 2, seen)
        self.watch(monkeypatch, isometry, "_fiber_pullback", 1, seen)
        self.watch(monkeypatch, homo, "_homomorphism_pullback", 3, seen)
        train.gradient(config, net.flatten(config, params), X, y)
        names = [n for n, _ in seen]
        # the last layer's rotation turns the head, not the batch
        assert names.count("_fiber_forward") == len(NETS[name]) - 1
        assert names.count("_fiber_pullback") == len(NETS[name]) - 1
        assert all(ok for _, ok in seen), seen
