"""One separator head for every classification task: the binary head is
the softmax over the class scores (0, d), training reads the head as the
stacked arrays of ``params.head``, labels are checked where data enters,
parameters are drawn into the layout's one vector, and fiber rotations
are built in closed form."""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, cli, isometry, net, spaces, train
from oracles import h_value, head_kernel, sigmoid

PROPERTY = settings(max_examples=60)


def softplus_nll(d, labels):
    """The binary NLL as the sum of softplus(d) - y d, with softplus the
    max-shifted log(e^0 + e^d) over the stacked rows (0, d)."""
    z = np.stack([np.zeros_like(d), d])
    shift = np.max(np.real(z), axis=0)
    softplus = shift + np.log(np.sum(np.exp(z - shift), axis=0))
    return np.sum(softplus - labels.astype(float) * d)


@st.composite
def binary_cases(draw):
    """An admissible separator on H^2..H^7, a batch of real points and
    0/1 labels."""
    s, rows = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    w = draw(hnp.arrays(float, s, elements=st.floats(-2.0, 2.0)))
    w[0] = 0.5 + abs(w[0])
    alpha, beta = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    if alpha * beta > 0.5 * (w @ w):
        beta = -beta
    points = draw(hnp.arrays(float, (rows, 1 + s),
                             elements=st.floats(-3.0, 3.0)))
    labels = draw(hnp.arrays(int, rows, elements=st.integers(0, 1)))
    return classify.Separator(alpha, beta, w), points, labels


class TestBinaryIsTheTwoScoreSoftmax:
    @PROPERTY
    @given(binary_cases())
    def test_nll_is_the_softplus_formula_bit_for_bit(self, case):
        sep, points, labels = case
        d = classify.signed_distance(sep, points)
        bank = classify.SeparatorBank((sep,))
        got = classify.multiclass_nll(points, labels, bank)
        assert got.tobytes() == softplus_nll(d, labels).tobytes()

    @PROPERTY
    @given(binary_cases(), st.floats(-0.1, 0.1))
    def test_nll_is_the_softplus_formula_at_complex_points(self, case, eps):
        sep, points, labels = case
        z = points + 1j * eps
        bank = classify.SeparatorBank((sep,))
        got = classify.multiclass_nll(z, labels, bank)
        assert got == softplus_nll(classify.signed_distance(sep, z), labels)

    @PROPERTY
    @given(binary_cases())
    def test_gradient_is_sigmoid_minus_label(self, case):
        sep, points, labels = case
        head = classify.SeparatorBank((sep,)).head
        u, _ = head_kernel(head, spaces._to_t_chart(points))
        scores = classify._scores(u)
        # the NLL's gradient on the one distance, before the head's pullback
        want = sigmoid(np.arcsinh(u)) - labels[:, None]
        got = classify._nll_grad(scores, labels, 1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_prediction_is_the_sign_of_h(self):
        # the argmax of (0, d) is class 1 exactly when h > 0, also where
        # sigmoid(d) rounds to 1/2
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task="binary")
        params = net.init_params(config, seed=0)
        params.Q[:] = np.eye(3, 2)
        params.head["w"][:] = [[1.0, 0.0]]
        X = np.array([[0.0, 1e-17], [0.0, -1e-17], [0.0, 0.5], [0.0, -0.5]])
        h = h_value(classify.Separator(0.0, 0.0, np.array([1.0, 0.0])),
                             net.forward_batch(config, params, X))
        assert sigmoid(h[0] / 2.0) == 0.5
        _, accuracy = train._scores(config, params, X, (h > 0).astype(int))
        assert accuracy == 1.0


class TestLabelChecks:
    BINARY = classify.Separator(0.2, -0.1, np.array([1.0, 0.5]))

    @staticmethod
    def gradient(bank, points, labels):
        """``train.gradient`` of a one-layer network on H^3 whose injection
        is the identity and whose head is ``bank``."""
        K = len(bank)
        config = net.NetworkConfig(
            input_dim=3, layers=(spaces.hyperbolic(3),),
            task="binary" if K == 1 else "multiclass", K=K if K > 1 else None)
        params = net.init_params(config)
        params.Q[:] = np.eye(3)
        for name, value in bank.head.items():
            params.head[name][:] = value
        return train.gradient(config, net.flatten(config, params), points,
                              labels)

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_dataset_refuses_non_finite_labels(self, label):
        with pytest.raises(ValueError, match="non-finite labels"):
            train.Dataset(np.zeros((2, 2)), np.array([0.0, label]),
                          np.array(["train", "test"]))

    @pytest.mark.parametrize("labels", [[0, 2], [0, -1], [0.5, 1.0],
                                        [np.nan, 1.0], [0, 3]])
    def test_binary_head_takes_zero_and_one(self, labels):
        points = np.zeros((2, 3))
        bank = classify.SeparatorBank((self.BINARY,))
        with pytest.raises(ValueError):
            classify.multiclass_nll(points, np.array(labels), bank)
        with pytest.raises(ValueError):
            self.gradient(bank, points, np.array(labels))

    @pytest.mark.parametrize("labels", [[0, 3], [0, -1], [2.5, 1.0],
                                        [np.nan, 0.0]])
    def test_softmax_head_takes_zero_to_k_minus_one(self, labels):
        bank = classify.SeparatorBank((self.BINARY,) * 3)
        points = np.zeros((2, 3))
        with pytest.raises(ValueError):
            classify.multiclass_nll(points, np.array(labels), bank)
        with pytest.raises(ValueError):
            self.gradient(bank, points, np.array(labels))

    def test_integral_floats_are_read_as_integers(self):
        bank = classify.SeparatorBank((self.BINARY,) * 3)
        points = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
        floats, ints = np.array([0.0, 2.0, 1.0]), np.array([0, 2, 1])
        assert (classify.multiclass_nll(points, floats, bank)
                == classify.multiclass_nll(points, ints, bank))
        assert (self.gradient(bank, points, floats).tobytes()
                == self.gradient(bank, points, ints).tobytes())
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task="multiclass", K=3)
        train.check_labels(config, floats)
        regression = net.NetworkConfig(input_dim=2,
                                       layers=(spaces.hyperbolic(3),),
                                       task="regression")
        train.check_labels(regression, np.array([0.5, -7.25]))

    @pytest.mark.parametrize("labels", [[0], [0, 1, 0]])
    def test_labels_must_match_the_batch(self, labels):
        # labels of another length than the 8 rows are refused, not
        # broadcast, by the loss, the gradient and the NLL
        X = np.random.default_rng(0).normal(size=(8, 4))
        layers = (spaces.hyperbolic(5), spaces.hyperbolic(3))
        for task, K in (("binary", None), ("multiclass", 3),
                        ("regression", None)):
            config = net.NetworkConfig(input_dim=4, layers=layers,
                                       task=task, K=K)
            flat = net.flatten(config, net.init_params(config))
            with pytest.raises(ValueError, match="labels of shape"):
                train.loss_flat(config, flat.vector, X, labels)
            with pytest.raises(ValueError, match="labels of shape"):
                train.gradient(config, flat, X, labels)
        bank = classify.SeparatorBank((self.BINARY,) * 3)
        with pytest.raises(ValueError, match="labels of shape"):
            classify.multiclass_nll(np.zeros((8, 3)), labels, bank)

    @pytest.mark.parametrize("task, K, bad", [("binary", None, 2),
                                              ("multiclass", 3, 3),
                                              ("binary", None, 0.5)])
    def test_train_loop_refuses_before_the_first_step(self, task, K, bad):
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task=task, K=K)
        ds = train.gen_synthetic("blobs", n=40, dim=2, seed=0)
        labels = ds.labels.astype(float)
        labels[np.flatnonzero(ds.split == "test")[0]] = bad
        ds = train.Dataset(ds.features, labels, ds.split)
        with mock.patch.object(train, "gradient") as gradient:
            with pytest.raises(ValueError, match="labels must be integers"):
                train.train_loop(train.TrainConfig(epochs=1), config, ds)
        assert gradient.call_count == 0


class TestLabelsCheckedOnce:
    """``train.gradient`` checks its batch's labels; ``train_loop`` checks
    the dataset's once, and its steps do not check them again."""

    @pytest.mark.parametrize("task, K", [("binary", None), ("multiclass", 3)])
    def test_gradient_refuses_label_k(self, task, K):
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task=task, K=K)
        flat = net.flatten(config, net.init_params(config))
        X = np.zeros((3, 2))
        for labels in (np.array([0, 1, K or 2]), np.array([0.0, 1.0, K or 2])):
            with pytest.raises(ValueError, match="labels must be integers"):
                train.gradient(config, flat, X, labels)

    def test_train_loop_checks_once_per_pass(self, monkeypatch):
        # one check of the dataset, then one per epoch for each of the
        # train-loss and test passes, none per step
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task="multiclass", K=4)
        ds = train.gen_synthetic("blobs", n=80, dim=2, seed=0, classes=4)
        calls = []
        original = classify._checked_labels

        def counted(labels, classes):
            calls.append(len(labels))
            return original(labels, classes)

        monkeypatch.setattr(classify, "_checked_labels", counted)
        tc = train.TrainConfig(epochs=2, batch_size=16)
        _, history = train.train_loop(tc, config, ds)
        assert len(history) == 2
        assert calls == [80] + [64, 16] * 2

    def test_train_loop_takes_no_step_on_bad_labels(self):
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task="binary")
        ds = train.gen_synthetic("blobs", n=40, dim=2, seed=0)
        ds.labels[np.flatnonzero(ds.split == "train")[0]] = 2
        with mock.patch.object(train, "_gradient") as gradient:
            with pytest.raises(ValueError, match="labels must be integers"):
                train.train_loop(train.TrainConfig(epochs=1), config, ds)
        assert gradient.call_count == 0


class TestLabelChecksInTheCli:
    """A label the head cannot read exits 2 with one ``error:`` line, and
    nothing is written."""

    @staticmethod
    def write_csv(path, labels):
        rows = [f"{0.1 * i!r},{-0.05 * i!r},{y}" for i, y in enumerate(labels)]
        path.write_text("\n".join(["f0,f1,label"] + rows) + "\n")
        return str(path)

    @pytest.mark.parametrize("task, K, labels", [
        ("multiclass", 3, [0, 1, 2, 3] * 5),
        ("binary", None, [0, 1, 2, 3] * 5),
        ("binary", None, ["0", "0.5", "1", "1"] * 5),
        ("regression", None, ["nan", "1.0", "2.0", "3.0"] * 5),
    ])
    def test_train_exit_2(self, tmp_path, capsys, task, K, labels):
        data = self.write_csv(tmp_path / "data.csv", labels)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({
            "net": {"input_dim": 2, "layers": [3], "task": task, "K": K},
            "train": {"epochs": 1}, "dataset": data}))
        model = tmp_path / "model.json"
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not model.exists() and not list(tmp_path.glob("*.jsonl"))

    def test_eval_exit_2(self, tmp_path, capsys):
        config = net.NetworkConfig(input_dim=2, layers=(spaces.hyperbolic(3),),
                                   task="binary")
        model = tmp_path / "model.json"
        net.save_model(model, config, net.init_params(config))
        data = self.write_csv(tmp_path / "data.csv", [0, 1, 2] * 5)
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"model": str(model), "dataset": data}))
        out = tmp_path / "metrics.json"
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestTrainingReadsStackedArrays:
    @pytest.mark.parametrize("K", [1, 4])
    def test_no_separator_objects_are_built(self, K, monkeypatch):
        built = []
        for cls in (classify.Separator, classify.SeparatorBank):
            original = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__",
                lambda self, original=original: built.append(1) or original(self))
        config = net.NetworkConfig(
            input_dim=3, layers=(spaces.hyperbolic(5), spaces.hyperbolic(3)),
            task="binary" if K == 1 else "multiclass", K=None if K == 1 else K)
        ds = train.gen_synthetic("blobs", n=60, dim=3, seed=1,
                                 classes=max(K, 2))
        tc = train.TrainConfig(learning_rate=0.05, epochs=2, batch_size=16)
        params, history = train.train_loop(tc, config, ds)
        assert len(history) == 2
        train.evaluate(config, params, ds)
        assert built == []


def reference_init(config, seed):
    """Parameter initialization with its own shapes, block by block."""
    rng = np.random.default_rng(seed)
    dims = [layer.space for layer in config.layers]
    s = 1.0 / np.sqrt(config.input_dim)
    blocks = [rng.uniform(-s, s, size=(dims[0].dim, config.input_dim)),
              np.zeros(max(dims[0].subpaint_dim - 1, 0))]
    for a, b in zip(dims, dims[1:]):
        sw = 1.0 / np.sqrt(a.subpaint_dim)
        blocks += [rng.uniform(-sw, sw, size=(b.subpaint_dim, a.subpaint_dim)),
                   np.zeros(b.subpaint_dim), np.zeros(max(b.subpaint_dim - 1, 0))]
    k = config.n_separators
    w = rng.uniform(-1.0, 1.0, size=(k, dims[-1].subpaint_dim))
    blocks += [np.zeros(k), np.zeros(k),
               w / np.linalg.norm(w, axis=1, keepdims=True)]
    return np.concatenate([b.reshape(-1) for b in blocks])


@st.composite
def network_configs(draw):
    chain = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    task = draw(st.sampled_from(["binary", "multiclass", "regression"]))
    return net.NetworkConfig(
        input_dim=draw(st.integers(1, 6)),
        layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in chain),
        task=task, K=draw(st.integers(2, 5)) if task == "multiclass" else None)


class TestInitParams:
    @PROPERTY
    @given(network_configs(), st.integers(0, 2**32 - 1))
    def test_draws_fill_the_layout_vector(self, config, seed):
        params = net.init_params(config, seed=seed)
        vector = net.flatten(config, params).vector
        assert vector.tobytes() == reference_init(config, seed).tobytes()
        # every block is a view of one vector
        blocks = [params.Q, params.lam, *params.Ws, *params.bs, *params.psis,
                  *params.head.values()]
        assert len({id(block.base) for block in blocks}) == 1


@st.composite
def rotations(draw):
    space = spaces.hyperbolic(draw(st.integers(3, 17)))
    gens = isometry.build_fiber_generators(space)
    return gens[draw(st.integers(0, len(gens) - 1))], draw(st.floats(-7.0, 7.0))


class TestClosedFormFiberRotation:
    @PROPERTY
    @given(rotations())
    def test_matches_expm_without_calling_it(self, case):
        gen, angle = case
        want = scipy.linalg.expm(angle * gen.matrix)
        with mock.patch.object(scipy.linalg, "expm",
                               wraps=scipy.linalg.expm) as expm:
            got = isometry.fiber_rotation(gen, angle)
        assert expm.call_count == 0
        assert got.kind == "grassmannian" and got.space == gen.space
        assert np.max(np.abs(got.matrix - want)) <= 1e-13

    @PROPERTY
    @given(rotations())
    def test_generator_cubes_to_its_negative(self, case):
        F = case[0].matrix
        assert np.max(np.abs(F @ F @ F + F)) <= 1e-15
