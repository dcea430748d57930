"""Losses, gradients, SGD loop, synthetic data, CSV persistence."""

import ast
import pathlib

import numpy as np
import pytest

from cartannet import classify, homo, isometry, net, spaces, train
from cartannet.spaces import SolvCoords, SpaceId
from central_difference import central_difference_gradient
from oracles import head_kernel, replay_train_loop, save_csv_writer

H3 = SpaceId.so(1, 2)
H5 = SpaceId.so(1, 4)


def small_config(task="binary", K=None):
    return net.NetworkConfig(input_dim=2, layers=(net.LayerSpec(H3),),
                             task=task, K=K)


def origin_head_params(config, seed=0):
    """Parameters that send every input to the origin and use the
    reference separator (w = e_1, alpha = beta = 0) in the head."""
    params = net.init_params(config, seed=seed)
    flat = net.flatten(config, params)
    params = net.unflatten(config, np.zeros_like(flat.vector))
    for k in range(len(params.head["alpha"])):
        params.head["w"][k][:] = 0.0
        params.head["w"][k][0] = 1.0
    return params


def loss(config, params, features, labels):
    """``train.loss_flat`` at the flat vector of a ParamSet."""
    return train.loss_flat(config, net.flatten(config, params).vector,
                           features, labels)


def layer_inputs(params, x):
    """Per-point oracle of the H5 -> H3 chain: the point each layer's
    fiber stage reads for one input, by the coordinate maps
    ``fiber_rotate`` and ``r1_homomorphism`` one point at a time."""
    p = SolvCoords(H5, params.Q @ x)
    yield p
    p = SolvCoords(H5, isometry.fiber_rotate(H5, p.values, params.lam))
    yield homo.r1_homomorphism(params.Ws[0], params.bs[0], p, H3)


class TestDataset:
    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            train.Dataset(np.zeros((3, 2)), np.zeros(2), np.array(["train"] * 3))

    def test_rejects_nonfinite(self):
        X = np.zeros((2, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError):
            train.Dataset(X, np.zeros(2), np.array(["train", "test"]))

    def test_subset(self):
        ds = train.gen_synthetic("blobs", n=50, dim=2, seed=0)
        tr, te = ds.subset("train"), ds.subset("test")
        assert len(tr) + len(te) == len(ds)
        assert np.all(tr.split == "train") and np.all(te.split == "test")


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            train.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            train.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            train.TrainConfig(batch_size=0)
        # non-finite rates and counts that are not integers, as the CLI
        # refuses them
        for field, value in [("learning_rate", np.nan),
                             ("learning_rate", np.inf),
                             ("learning_rate", -np.inf), ("epochs", 2.5),
                             ("batch_size", 16.0), ("epochs", True),
                             ("batch_size", "16"), ("seed", -1),
                             ("seed", 1.0), ("seed", False), ("seed", "3"),
                             ("seed", None), ("seed", np.int64(-2))]:
            with pytest.raises(ValueError):
                train.TrainConfig(**{field: value})
        assert train.TrainConfig(epochs=np.int64(2)).epochs == 2
        assert train.TrainConfig(seed=np.uint32(7)).seed == 7


class TestLoss:
    def test_binary_reference_is_n_log2(self):
        # oracle: all points at the origin sit on the reference separator,
        # so every probability is 1/2 and the NLL is N log 2
        cfg = small_config("binary")
        params = origin_head_params(cfg)
        X = np.random.default_rng(0).normal(size=(17, 2))
        y = np.random.default_rng(1).integers(0, 2, 17)
        assert np.isclose(loss(cfg, params, X, y), 17 * np.log(2.0))

    def test_multiclass_reference_is_n_logk(self):
        cfg = small_config("multiclass", K=3)
        params = origin_head_params(cfg)
        X = np.random.default_rng(2).normal(size=(11, 2))
        y = np.random.default_rng(3).integers(0, 3, 11)
        assert np.isclose(loss(cfg, params, X, y), 11 * np.log(3.0))

    def test_regression_mse(self):
        cfg = small_config("regression")
        params = origin_head_params(cfg)
        X = np.random.default_rng(4).normal(size=(5, 2))
        y = np.array([1.0, -1.0, 2.0, 0.0, 0.5])
        # every input goes to the origin, which lies on the reference
        # separator, so every prediction is 0 and the loss is the mean
        # square label
        assert np.isclose(loss(cfg, params, X, y), np.mean(y ** 2))


class TestGradient:
    def test_analytic_matches_finite_difference(self):
        # gate: the reverse gradient and central differences of the loss
        # agree to a small relative error
        cfg = small_config("binary")
        flat = net.flatten(cfg, net.init_params(cfg, seed=8))
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, 10)
        ga = train.gradient(cfg, flat, X, y)
        gf = central_difference_gradient(cfg, flat, X, y)
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), 1e-12)
        assert rel < 1e-6

    def test_descent_direction(self):
        cfg = small_config("binary")
        flat = net.flatten(cfg, net.init_params(cfg, seed=10))
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 2, 20)
        g = train.gradient(cfg, flat, X, y)
        before = float(np.real(train.loss_flat(cfg, flat.vector, X, y)))
        stepped = flat.vector - 1e-4 * g
        after = float(np.real(train.loss_flat(cfg, stepped, X, y)))
        assert after < before


class TestProjection:
    def test_admissible_untouched(self):
        cfg = small_config("binary")
        flat = net.flatten(cfg, net.init_params(cfg, seed=13))
        vector = flat.vector.copy()
        assert train._project(net.unflatten(cfg, vector).head) == 0
        assert np.array_equal(vector, flat.vector)

    def test_inadmissible_projected(self):
        cfg = small_config("binary")
        params = net.init_params(cfg, seed=14)
        params.head["w"][0][:] = [0.5, 0.0]
        params.head["alpha"][0] = 2.0
        params.head["beta"][0] = 2.0
        vector = net.flatten(cfg, params).vector
        assert train._project(net.unflatten(cfg, vector).head) == 1
        fixed = net.unflatten(cfg, vector)
        sep = classify.Separator(fixed.head["alpha"][0],
                                 fixed.head["beta"][0], fixed.head["w"][0])
        assert sep.admissible


class TestTrainLoop:
    def blob_dataset(self, n=60, classes=2, seed=0):
        return train.gen_synthetic("blobs", n=n, dim=2, seed=seed,
                                   classes=classes)

    def test_loss_decreases(self):
        ds = self.blob_dataset()
        cfg = small_config("binary")
        tc = train.TrainConfig(learning_rate=0.01, epochs=4, batch_size=16)
        _, history = train.train_loop(tc, cfg, ds)
        assert len(history) == 4
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_deterministic(self):
        ds = self.blob_dataset()
        cfg = small_config("binary")
        tc = train.TrainConfig(learning_rate=0.01, epochs=2, batch_size=16)
        p1, h1 = train.train_loop(tc, cfg, ds)
        p2, h2 = train.train_loop(tc, cfg, ds)
        assert h1 == h2
        assert np.array_equal(net.flatten(cfg, p1).vector,
                              net.flatten(cfg, p2).vector)

    def test_refuses_rows_of_another_width(self):
        # checked with the labels, before the first step
        cfg = small_config("binary")
        wide = train.gen_synthetic("blobs", n=20, dim=3, seed=0)
        for width in (1, 3):
            ds = train.Dataset(wide.features[:, :width], wide.labels,
                               wide.split)
            with pytest.raises(ValueError, match="2 features per row"):
                train.train_loop(train.TrainConfig(epochs=1), cfg, ds)
            with pytest.raises(ValueError, match="2 features per row"):
                train.check_data(cfg, ds)

    def test_history_records(self):
        ds = self.blob_dataset()
        cfg = small_config("binary")
        tc = train.TrainConfig(learning_rate=0.01, epochs=1, batch_size=16)
        _, history = train.train_loop(tc, cfg, ds)
        rec = history[0]
        assert {"epoch", "train_loss", "test_loss", "accuracy"} <= set(rec)

    def test_history_diagnostics(self):
        ds = self.blob_dataset()
        cfg = small_config("binary")
        tc = train.TrainConfig(learning_rate=0.01, epochs=1, batch_size=16)
        params, (rec,) = train.train_loop(tc, cfg, ds)
        # one epoch: the largest batch gradient norm, recomputed in order
        assert rec["grad_norm"] == replay_train_loop(tc, cfg, ds)[1][0][
            "grad_norm"]
        w = params.head["w"][0]
        margin = w @ w - params.head["alpha"][0] * params.head["beta"][0]
        assert rec["min_margin"] == margin > 0
        reg = small_config("regression")
        ds.labels = ds.labels.astype(float)
        _, (rec,) = train.train_loop(tc, reg, ds)
        assert rec["min_margin"] > 0 and rec["grad_norm"] > 0

    def test_history_cartan_fraction(self, monkeypatch):
        # per layer, the largest |Y1| of its fiber stage's input over the
        # train split as a fraction of CARTAN_BOUND, read off the forward
        # pass that gives train_loss: every layer recomputed point by point
        ds = train.gen_synthetic("blobs", n=60, dim=4, seed=2, classes=3)
        cfg = net.NetworkConfig(input_dim=4,
                                layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
                                task="multiclass", K=3)
        tc = train.TrainConfig(learning_rate=0.05, epochs=1, batch_size=16)
        stages = []
        original = isometry._fiber_forward

        def counted(*args):
            stages.append(args[0])
            return original(*args)

        monkeypatch.setattr(isometry, "_fiber_forward", counted)
        params, (rec,) = train.train_loop(tc, cfg, ds)
        monkeypatch.undo()
        tr = ds.subset("train")
        batches = -(-len(tr) // tc.batch_size)
        # a gradient per batch, and then the record's pass of the train
        # and the test split, stacked: each rotates every layer but the
        # last, whose head it turns instead
        assert len(stages) == (batches + 1) * (len(cfg.layers) - 1)
        peaks = np.zeros(len(cfg.layers))
        for x in tr.features:
            for i, p in enumerate(layer_inputs(params, x)):
                peaks[i] = max(peaks[i], abs(p.values[0]))
        assert np.allclose(rec["cartan_fraction"],
                           peaks / spaces.CARTAN_BOUND, rtol=1e-12, atol=0)
        assert all(isinstance(v, float) for v in rec["cartan_fraction"])
        reg = net.NetworkConfig(input_dim=4, layers=(net.LayerSpec(H5),),
                                task="regression")
        ds.labels = ds.labels.astype(float)
        _, history = train.train_loop(
            train.TrainConfig(learning_rate=0.01, epochs=2, batch_size=16),
            reg, ds)
        assert [len(r["cartan_fraction"]) for r in history] == [1, 1]

    def test_history_counts_projections(self):
        # lr 0.3 drives a separator of this run across the admissibility
        # slack in the first epoch; replaying the epoch counts the
        # separators each projection changed
        ds = train.gen_synthetic("blobs", n=80, dim=4, seed=0, classes=4)
        cfg = net.NetworkConfig(input_dim=4,
                                layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
                                task="multiclass", K=4)
        tc = train.TrainConfig(learning_rate=0.3, epochs=2, batch_size=16)
        _, history = train.train_loop(tc, cfg, ds)
        moved = [r["projected"] for r in replay_train_loop(tc, cfg, ds)[1]]
        assert [r["projected"] for r in history] == moved
        assert moved[0] >= 1
        assert all(isinstance(rec["projected"], int) for rec in history)
        rerun = train.train_loop(tc, cfg, ds)[1]
        assert [r["projected"] for r in rerun] == [
            r["projected"] for r in history]

    @pytest.mark.parametrize("lr, data_seed, epochs_run, task, split", [
        pytest.param(0.3, 0, 3, "multiclass", "both", id="0.3-0-3"),
        pytest.param(1000.0, 0, 0, "multiclass", "both", id="1000.0-0-0"),
        pytest.param(1e300, 0, 0, "multiclass", "both", id="1e300-0-0"),
        pytest.param(3.0, 2, 1, "multiclass", "both", id="3.0-2-1"),
        pytest.param(0.01, 0, 3, "regression", "both", id="regression"),
        pytest.param(0.3, 0, 3, "multiclass", "train", id="no-test-rows")])
    def test_matches_the_replay_bit_for_bit(self, lr, data_seed, epochs_run,
                                            task, split):
        # lr 0.3 projects separators; lr 1000 fails in the first epoch and
        # lr 3 in the second, each restoring the start of its epoch; lr
        # 1e300 steps to a finite vector whose squares overflow, and stops
        # at its first step; a regression net, and a dataset whose rows
        # are all train rows
        ds = train.gen_synthetic("blobs", n=80, dim=4, seed=data_seed,
                                 classes=4)
        if task == "regression":
            ds.labels = ds.labels.astype(float)
        if split == "train":
            ds = ds.subset("train")
        cfg = net.NetworkConfig(input_dim=4,
                                layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
                                task=task,
                                K=4 if task == "multiclass" else None)
        tc = train.TrainConfig(learning_rate=lr, epochs=3, batch_size=16)
        params, history = train.train_loop(tc, cfg, ds)
        want_params, want = replay_train_loop(tc, cfg, ds)
        assert len(history) == epochs_run
        assert history == want
        assert (net.flatten(cfg, params).vector.tobytes()
                == net.flatten(cfg, want_params).vector.tobytes())
        if not epochs_run:
            assert (net.flatten(cfg, params).vector.tobytes()
                    == net.flatten(cfg, net.init_params(cfg)).vector.tobytes())
        if lr == 0.3:
            assert sum(r["projected"] for r in history) >= 1
        assert all(("test_loss" in r) == (split == "both") for r in history)

    def test_unpacks_a_fixed_number_of_times(self, monkeypatch):
        # the run packs and unpacks its vectors once, not once per step
        ds = self.blob_dataset()
        cfg = small_config("multiclass", K=2)
        calls = []
        for name in ("flatten", "unflatten"):
            monkeypatch.setattr(net, name, lambda *a, f=getattr(net, name):
                                calls.append(f.__name__) or f(*a))
        runs = []
        for epochs in (1, 3):
            calls.clear()
            tc = train.TrainConfig(learning_rate=0.01, epochs=epochs,
                                   batch_size=16)
            assert len(train.train_loop(tc, cfg, ds)[1]) == epochs
            runs.append((calls.count("flatten"), calls.count("unflatten")))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("w,alpha,beta", [
        ((1e5, 0.0), 1e5, 1.00001e5),
        ((3e5, 4e5), 5e5, 5.0001e5),
    ])
    def test_projection_admissible_at_large_norm(self, w, alpha, beta):
        # at |w|^2 ~ 1e10 an absolute slack of 2e-6 is below the rounding
        # of |w|^2 - alpha beta: shrinking alpha, beta to it gives margins
        # 0.0 and -3.05e-5 here
        cfg = net.NetworkConfig(input_dim=4,
                                layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
                                task="binary")
        params = net.init_params(cfg, seed=0)
        params.head["w"][0] = w
        params.head["alpha"][0] = alpha
        params.head["beta"][0] = beta
        vector = net.flatten(cfg, params).vector
        assert train._project(net.unflatten(cfg, vector).head) == 1
        assert train._margins(net.unflatten(cfg, vector).head)[0] > 0
        head = net.unflatten(cfg, vector).head
        u, _ = head_kernel(head, np.array([[1.0, 0.0, 0.0]]))
        assert np.all(np.isfinite(u))

    def test_projection_keeps_admissible_input(self):
        cfg = small_config("multiclass", K=3)
        flat = net.flatten(cfg, net.init_params(cfg, seed=15))
        vector = flat.vector.copy()
        assert train._project(net.unflatten(cfg, vector).head) == 0
        assert vector.tobytes() == flat.vector.tobytes()

    def test_divergence_guard_returns_finite(self):
        # an absurd learning rate must not crash the loop
        ds = self.blob_dataset()
        cfg = small_config("binary")
        tc = train.TrainConfig(learning_rate=50.0, epochs=3, batch_size=16)
        params, _ = train.train_loop(tc, cfg, ds)
        assert np.all(np.isfinite(net.flatten(cfg, params).vector))

    def test_inadmissible_init_stops_before_a_step(self):
        # |w|^2 - alpha beta = 1 - 4 < 0: the first gradient evaluates the
        # separator outside admissibility, so the loop stops at epoch 0
        ds = train.gen_synthetic("blobs", n=80, dim=4, seed=1)
        cfg = net.NetworkConfig(input_dim=4,
                                layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
                                task="binary")
        init = net.init_params(cfg, seed=0)
        init.head["alpha"][:] = 2.0
        init.head["beta"][:] = 2.0
        init.head["w"][:] = [1.0, 0.0]
        start = net.flatten(cfg, init).vector.copy()
        tc = train.TrainConfig(learning_rate=0.01, epochs=2, batch_size=16)
        params, history = train.train_loop(tc, cfg, ds, init=init)
        assert history == []
        assert np.array_equal(net.flatten(cfg, params).vector, start)

    def test_empty_train_split_rejected(self):
        ds = train.Dataset(np.zeros((2, 2)), np.zeros(2),
                           np.array(["test", "test"]))
        with pytest.raises(ValueError):
            train.train_loop(train.TrainConfig(), small_config("binary"), ds)

    def test_evaluate_keys(self):
        ds = self.blob_dataset()
        cfg = small_config("binary")
        tc = train.TrainConfig(learning_rate=0.01, epochs=1, batch_size=16)
        params, _ = train.train_loop(tc, cfg, ds)
        out = train.evaluate(cfg, params, ds)
        assert set(out) == {"n", "nll", "accuracy"}
        assert 0.0 <= out["accuracy"] <= 1.0

    def test_evaluate_regression_keys(self):
        # the mean squared residual of the signed distance to the head's
        # one separator on the test split
        ds = self.blob_dataset()
        ds.labels = ds.labels.astype(float)
        cfg = small_config("regression")
        params = net.init_params(cfg, seed=1)
        params.head["alpha"][:] = 0.25
        out = train.evaluate(cfg, params, ds)
        assert set(out) == {"n", "mse"}
        test = ds.subset("test")
        points = net.forward_batch(cfg, params, test.features)
        sep = classify.Separator(params.head["alpha"][0],
                                 params.head["beta"][0], params.head["w"][0])
        resid = classify.signed_distance(sep, points) - test.labels
        assert out["n"] == len(test)
        assert np.isclose(out["mse"], np.mean(resid * resid), rtol=1e-12)


class TestSynthetic:
    def test_blobs_balanced_and_split(self):
        ds = train.gen_synthetic("blobs", n=100, dim=3, seed=1, classes=4)
        counts = np.bincount(ds.labels.astype(int))
        assert np.all(counts == 25)
        assert np.sum(ds.split == "test") == 20

    def test_deterministic(self):
        a = train.gen_synthetic("arcs", n=40, dim=2, seed=2)
        b = train.gen_synthetic("arcs", n=40, dim=2, seed=2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kind, classes", [
        ("blobs", 1), ("blobs", 0), ("arcs", 1), ("arcs", 4)])
    def test_refuses_classes_it_cannot_make(self, kind, classes):
        # arcs always makes two classes
        with pytest.raises(ValueError):
            train.gen_synthetic(kind, n=20, dim=2, classes=classes)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train.gen_synthetic("spirals", n=10, dim=2)

    @pytest.mark.parametrize("spread", [-1.0, -1e-300, np.nan, np.inf, 1e308])
    def test_refuses_a_negative_or_overflowing_spread(self, spread):
        # 1e308 times a normal draw overflows: refused, with no warning
        with pytest.raises(ValueError, match="spread"):
            train.gen_synthetic("blobs", n=20, dim=2, spread=spread)

    def test_zero_spread_is_the_means(self):
        ds = train.gen_synthetic("blobs", n=20, dim=2, seed=1, spread=0.0)
        assert len(np.unique(ds.features, axis=0)) == 2

    def test_blobs_separated_means(self):
        ds = train.gen_synthetic("blobs", n=200, dim=2, seed=4, classes=2)
        m0 = ds.features[ds.labels == 0].mean(axis=0)
        m1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 1.0


class TestCsv:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 5, 6, 11, 400])
    def test_split_tags_are_the_per_row_strings(self, tmp_path, n):
        # every fifth row, from the first, is a test row; the tags of a
        # header-only CSV are strings too
        want = np.array(["train" if i % 5 else "test" for i in range(n)],
                        dtype="<U5")
        path = tmp_path / "data.csv"
        train.save_csv(path, train.Dataset(np.zeros((n, 2)), np.zeros(n),
                                           np.zeros(n)))
        for got in (train._split_tags(n), train.load_csv(path).split):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        if n >= 2:
            split = train.gen_synthetic("blobs", n=n, dim=2, seed=1).split
            assert split.tobytes() == want.tobytes()
            assert split.dtype == want.dtype

    def test_roundtrip_bit_identical(self, tmp_path):
        ds = train.gen_synthetic("blobs", n=30, dim=3, seed=4)
        path = tmp_path / "data.csv"
        train.save_csv(path, ds)
        back = train.load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels.astype(int), ds.labels.astype(int))

    def test_float_labels_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = np.array([0.5, -1.25, 3.0, 1e-3, 2.0 / 3.0, -0.0, 7.0, 1e20])
        ds = train.Dataset(rng.normal(size=(8, 2)), labels, ["train"] * 8)
        path = tmp_path / "reg.csv"
        train.save_csv(path, ds)
        back = train.load_csv(path)
        assert back.labels.dtype == float
        assert np.array_equal(back.labels, labels)

    def test_integer_labels_written_as_integers(self, tmp_path):
        ds = train.gen_synthetic("blobs", n=30, dim=2, seed=4, classes=3)
        path = tmp_path / "data.csv"
        train.save_csv(path, ds)
        tokens = [line.rsplit(",", 1)[1]
                  for line in path.read_text().splitlines()[1:]]
        assert tokens == [str(int(y)) for y in ds.labels]
        assert train.load_csv(path).labels.dtype.kind == "i"

    @pytest.mark.parametrize("labels", [
        np.array([0, 3, 1, 2, 0, 1]),
        np.array([0.5, -0.0, 1e300, 5e-324, -2.2250738585072014e-308,
                  1.0 / 3.0]),
        np.array([True, False, True, True, False, False]),
    ], ids=["int", "float", "bool"])
    def test_bytes_match_csv_writer(self, tmp_path, labels):
        features = np.random.default_rng(6).normal(size=(6, 3)) * np.array(
            [1.0, 1e-200, 1e200])
        features[0] = [-0.0, 0.0, 1.7976931348623157e308]
        ds = train.Dataset(features, labels, ["train"] * 6)
        train.save_csv(tmp_path / "a.csv", ds)
        save_csv_writer(tmp_path / "b.csv", ds)
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

    @pytest.mark.parametrize("tokens, want", [
        (["0", "3", "1", "12"], np.array([0, 3, 1, 12])),
        (["-2", "0", "-17", "+4"], np.array([-2, 0, -17, 4])),
        (["0.5", "-1.25", "3.0", "-0.0"], np.array([0.5, -1.25, 3.0, -0.0])),
        (["1e3", "2E-2", "-5e+1", "7"], np.array([1000.0, 0.02, -50.0, 7.0])),
        (["1", "2.5", "-3", "4"], np.array([1.0, 2.5, -3.0, 4.0])),
    ], ids=["int", "negative-int", "float", "exponent", "mixed"])
    def test_label_tokens(self, tmp_path, tokens, want):
        # integer tokens give an int array, any other token a float one
        path = tmp_path / "labels.csv"
        path.write_text("f0,f1,label\n" + "".join(
            f"{i}.5,-1.0,{token}\r\n" for i, token in enumerate(tokens)))
        labels = train.load_csv(path).labels
        assert labels.dtype == want.dtype
        assert np.array_equal(labels, want)
        assert np.array_equal(np.signbit(labels), np.signbit(want))

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            train.load_csv(path)

    #: Rows that are not one number per header field, each on line 4 of
    #: a file whose line 3 is blank.
    MALFORMED = {
        "extra-field": "1.0,2.0,3.0,0",
        "no-label": "1.0,2.0",
        "comment": "# a note",
        "trailing-comment": "1.0,2.0,0 # a note",
        "empty-label": "1.0,2.0,",
    }

    @pytest.mark.parametrize("row", list(MALFORMED.values()),
                             ids=list(MALFORMED))
    def test_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.5,-0.5,1\n\n{row}\n0.5,0.5,0\n")
        with pytest.raises(ValueError, match="^line 4: "):
            train.load_csv(path)

    def test_rows_all_one_field_short(self, tmp_path):
        # every row agrees with every other, but not with the header
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="^line 2: 2 fields"):
            train.load_csv(path)


def benchmark_gate():
    """``SEED_COMMIT_CORRECT`` and ``MARGIN`` of the train-blobs4 workload,
    read from ``bench/workloads.py`` without importing it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench/workloads.py"
    workload = next(node for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.ClassDef)
                    and node.name == "TrainBlobs4")
    return {target.id: ast.literal_eval(node.value)
            for node in workload.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id in ("SEED_COMMIT_CORRECT", "MARGIN")}


class TestBenchmarkGate:
    def test_train_blobs4_accuracy_floor(self, tmp_path):
        # the floor the train-blobs4 benchmark checks on every run, for
        # each of its input seeds: blobs through the CSV round trip,
        # H5 -> H3 with K = 4, lr 0.003, 2 epochs of batches of 32
        gate = benchmark_gate()
        config = net.NetworkConfig(
            input_dim=4, layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
            task="multiclass", K=4)
        path = tmp_path / "blobs4.csv"
        below = []
        for seed, entry in enumerate(gate["SEED_COMMIT_CORRECT"]):
            train.save_csv(path, train.gen_synthetic(
                "blobs", n=400, dim=4, seed=seed, classes=4))
            tc = train.TrainConfig(learning_rate=0.003, epochs=2,
                                   batch_size=32, seed=seed)
            _, history = train.train_loop(tc, config, train.load_csv(path))
            floor = (entry - gate["MARGIN"]) / 80
            if not (len(history) == 2 and history[-1]["accuracy"] >= floor):
                below.append(seed)
        assert len(gate["SEED_COMMIT_CORRECT"]) == 100 and below == []
