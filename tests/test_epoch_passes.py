"""Work per SGD step and per epoch record: the admissibility projection
reads every margin once from the head's views and reports how many
separators it moved, the scores of a split come from one run of the
separator head, and an epoch record takes the train and the test rows
through the chain in one pass, inside the loop's guard, and reads the
head turned by the last layer's rotation, as ``evaluate`` does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, isometry, net, spaces, train

PROPERTY = settings(max_examples=40)
SLACK = train._ADMISSIBLE_SLACK


def config_for(n, K):
    return net.NetworkConfig(
        input_dim=3,
        layers=(net.LayerSpec(spaces.hyperbolic(5)),
                net.LayerSpec(spaces.hyperbolic(n))),
        task="binary" if K == 1 else "multiclass", K=None if K == 1 else K)


def reference_projection(config, flat):
    """The projection as one separator at a time: |w|^2 as ``w @ w``, and
    the crossing ones shrunk or restarted."""
    params = net.unflatten(config, flat.vector.copy())
    alpha, beta, w = params.head["alpha"], params.head["beta"], params.head["w"]
    crossing = [k for k in range(config.n_separators)
                if not float(w[k] @ w[k]) - float(alpha[k] * beta[k]) > SLACK]
    for k in crossing:
        w2, ab = float(w[k] @ w[k]), float(alpha[k] * beta[k])
        if w2 <= 2.0 * SLACK or ab <= 0.0:
            w[k] = np.zeros_like(w[k])
            w[k][0] = 1.0
            alpha[k] = beta[k] = 0.0
            continue
        c = np.sqrt(max(w2 - 2.0 * SLACK, 0.0) / ab)
        alpha[k] *= c
        beta[k] *= c
    return net.flatten(config, params).vector, len(crossing)


@st.composite
def heads(draw):
    """A flat vector whose K separators are admissible, inside the slack,
    exactly on it, past it, or collapsed."""
    n, K = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4))
    config = config_for(n, K)
    params = net.init_params(config, seed=draw(st.integers(0, 9)))
    s = config.last_space.subpaint_dim
    for k in range(K):
        w = draw(hnp.arrays(float, s, elements=st.floats(-2.0, 2.0)))
        alpha = draw(st.floats(-3.0, 3.0))
        kind = draw(st.sampled_from(["free", "slack", "edge", "collapsed"]))
        w2 = float(w @ w)
        if kind == "collapsed":
            w = w * 1e-4
        elif kind in ("slack", "edge") and abs(alpha) > 1e-300:
            # alpha beta = |w|^2 - margin, margin at or around the slack;
            # a smaller alpha would need a beta beyond the finite floats
            margin = SLACK if kind == "edge" else draw(
                st.floats(-2.0 * SLACK, 2.0 * SLACK))
            params.head["beta"][k] = (w2 - margin) / alpha
        else:
            params.head["beta"][k] = draw(st.floats(-3.0, 3.0))
        params.head["w"][k] = w
        params.head["alpha"][k] = alpha
    return config, net.flatten(config, params)


class TestProjection:
    @PROPERTY
    @given(heads())
    def test_matches_one_separator_at_a_time(self, case):
        config, flat = case
        want, moved = reference_projection(config, flat)
        got = flat.vector.copy()
        count = train._project(net.unflatten(config, got).head)
        assert count == moved
        assert got.tobytes() == want.tobytes()
        assert (got.tobytes() == flat.vector.tobytes()) == (moved == 0)

    @PROPERTY
    @given(heads())
    def test_margins_are_the_dot_products(self, case):
        config, flat = case
        head = net.unflatten(config, flat.vector).head
        want = [float(w @ w) - float(a * b) for a, b, w
                in zip(head["alpha"], head["beta"], head["w"])]
        assert train._margins(head).tolist() == want

    def test_one_margin_pass_per_step(self, monkeypatch):
        # one read of the margins per SGD step and one per epoch record;
        # the count of moved separators comes back with the projection
        ds = train.gen_synthetic("blobs", n=80, dim=3, seed=0, classes=4)
        config = config_for(3, 4)
        tc = train.TrainConfig(learning_rate=0.3, epochs=2, batch_size=16)
        calls = []
        original = train._margins
        monkeypatch.setattr(train, "_margins",
                            lambda *a: calls.append(1) or original(*a))
        _, history = train.train_loop(tc, config, ds)
        steps = -(-len(ds.subset("train")) // tc.batch_size)
        assert len(calls) == len(history) * (steps + 1)


class TestScores:
    @pytest.mark.parametrize("K", [1, 4])
    def test_one_head_run_and_the_same_numbers(self, K, monkeypatch):
        ds = train.gen_synthetic("blobs", n=60, dim=3, seed=3,
                                 classes=max(K, 2))
        config = config_for(3, K)
        params = net.init_params(config, seed=4)
        params.head["alpha"][:] = 0.2
        params.head["beta"][:] = -0.1
        X, y = ds.features, ds.labels
        points = net.forward_batch(config, params, X)
        head = params.head
        bank = classify.SeparatorBank(tuple(
            classify.Separator(head["alpha"][k], head["beta"][k], head["w"][k])
            for k in range(config.n_separators)))
        if K == 1:
            loss = classify.multiclass_nll(points, y, bank)
            probs = classify.softmax_probs(bank, points)
            pred = (probs[:, 1] > 0.5).astype(int)
        else:
            loss = classify.multiclass_nll(points, y, bank)
            pred = np.argmax(classify.softmax_probs(bank, points), axis=-1)
        heads = []
        original = classify._scaled_h
        monkeypatch.setattr(classify, "_scaled_h",
                            lambda *a: heads.append(1) or original(*a))
        value, accuracy = train._scores(config, params, X, y)
        assert len(heads) == 1
        assert value == float(loss)
        assert accuracy == float(np.mean(pred == y))


class TestOneRecordPass:
    def test_one_chain_run_per_step_and_per_record(self, monkeypatch):
        ds = train.gen_synthetic("blobs", n=80, dim=3, seed=0, classes=4)
        config = config_for(3, 4)
        tc = train.TrainConfig(learning_rate=0.01, epochs=2, batch_size=16)
        runs = []
        original = net.stages
        monkeypatch.setattr(net, "stages",
                            lambda *a: runs.append(len(a[2])) or original(*a))
        _, history = train.train_loop(tc, config, ds)
        steps = -(-len(ds.subset("train")) // tc.batch_size)
        assert len(history) == tc.epochs
        assert len(runs) == tc.epochs * (steps + 1)
        # each record's one run reads the train rows, then the test rows
        assert runs[steps::steps + 1] == [len(ds)] * tc.epochs

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_a_row_beyond_the_bound_stops_the_run(self, split):
        # one row far outside the Cartan bound, in either split: the run
        # stops in its first epoch and restores that epoch's start, the
        # initial parameters
        ds = train.gen_synthetic("blobs", n=100, dim=4, seed=0, classes=4)
        config = net.NetworkConfig(
            input_dim=4,
            layers=(net.LayerSpec(spaces.hyperbolic(5)),
                    net.LayerSpec(spaces.hyperbolic(3))),
            task="multiclass", K=4)
        row = np.flatnonzero(ds.split == split)[0]
        ds.features[row] *= 1e4
        tc = train.TrainConfig(learning_rate=0.003, epochs=2, batch_size=32)
        start = net.flatten(config, net.init_params(config, seed=tc.seed))
        with pytest.raises(spaces.CartanBoundError):
            net.forward_batch(config, net.unflatten(config, start),
                              ds.features[row])
        params, history = train.train_loop(tc, config, ds)
        assert history == []
        assert (net.flatten(config, params).vector.tobytes()
                == start.vector.tobytes())


class TestOneScoringRoute:
    """The epoch record and ``evaluate`` read the head as the gradient
    does: turned by the last layer's rotation, at that layer's unrotated
    rows."""

    @staticmethod
    def chain_config(*layers):
        return net.NetworkConfig(
            input_dim=4,
            layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in layers),
            task="multiclass", K=4)

    def test_the_record_is_evaluate_bit_for_bit(self, tmp_path):
        # the train-blobs4 run: 400 rows through the CSV round trip, 80 of
        # them test rows, H5 -> H3 with K = 4
        path = tmp_path / "blobs4.csv"
        train.save_csv(path, train.gen_synthetic("blobs", n=400, dim=4,
                                                 seed=0, classes=4))
        ds = train.load_csv(path)
        config = self.chain_config(5, 3)
        tc = train.TrainConfig(learning_rate=0.003, epochs=2, batch_size=32)
        params, history = train.train_loop(tc, config, ds)
        assert len(history) == 2
        got = train.evaluate(config, params, ds)
        assert got["n"] == 80
        assert got["accuracy"] == history[-1]["accuracy"]
        assert got["nll"] == history[-1]["test_loss"] / 80

    @pytest.mark.parametrize("lr", [0.003, 0.3, 3.0])
    def test_cartan_fractions_are_within_the_bound(self, lr):
        # each completed record read its fractions at rows the bound's
        # guards accepted; lr 3 stops in the second epoch
        ds = train.gen_synthetic("blobs", n=80, dim=4, seed=2, classes=4)
        config = self.chain_config(5, 3)
        tc = train.TrainConfig(learning_rate=lr, epochs=3, batch_size=16)
        _, history = train.train_loop(tc, config, ds)
        assert history
        for record in history:
            assert len(record["cartan_fraction"]) == len(config.layers)
            assert all(0.0 <= f <= 1.0 for f in record["cartan_fraction"])

    def test_the_last_layer_is_never_rotated(self, monkeypatch):
        ds = train.gen_synthetic("blobs", n=80, dim=4, seed=0, classes=4)
        config = self.chain_config(9, 5, 3)
        rotated = []
        original = isometry._fiber_forward
        monkeypatch.setattr(isometry, "_fiber_forward",
                            lambda *a: rotated.append(a[0]) or original(*a))
        tc = train.TrainConfig(learning_rate=0.01, epochs=1, batch_size=16)
        params, history = train.train_loop(tc, config, ds)
        assert len(history) == 1
        steps = -(-len(ds.subset("train")) // tc.batch_size)
        inner = [layer.space for layer in config.layers[:-1]]
        # a gradient per step, then the record's one pass
        assert rotated == inner * (steps + 1)
        rotated.clear()
        train.evaluate(config, params, ds)
        assert rotated == inner
