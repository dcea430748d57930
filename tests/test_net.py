"""Network assembly: injection, layer maps, flattening, persistence."""

import json
import weakref

import numpy as np
import pytest

from cartannet import isometry, net, spaces, train
from cartannet.spaces import SolvCoords, SpaceId

H3 = SpaceId.so(1, 2)
H5 = SpaceId.so(1, 4)


def two_layer_config(task="multiclass", K=2):
    return net.NetworkConfig(
        input_dim=4,
        layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
        task=task,
        K=K if task == "multiclass" else None,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            net.NetworkConfig(0, (net.LayerSpec(H3),))
        with pytest.raises(ValueError):
            net.NetworkConfig(2, ())
        with pytest.raises(ValueError):
            net.NetworkConfig(2, (net.LayerSpec(H3),), "multiclass", None)
        with pytest.raises(ValueError):
            net.LayerSpec(SpaceId.sl(3))

    def test_accepts_bare_spaces(self):
        cfg = net.NetworkConfig(2, (H3, H5))
        assert cfg.layers[0].space == H3


class TestFlatten:
    def test_roundtrip_bit_identical(self):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=3)
        flat = net.flatten(cfg, params)
        back = net.unflatten(cfg, flat)
        again = net.flatten(cfg, back)
        assert np.array_equal(flat.vector, again.vector)

    def test_offsets_cover_vector(self):
        cfg = two_layer_config()
        flat = net.flatten(cfg, net.init_params(cfg, seed=0))
        total = sum(int(np.prod(s)) for _, s in flat.layout)
        assert total == len(flat.vector)

    def test_unflatten_zeros(self):
        cfg = two_layer_config()
        total = len(net.flatten(cfg, net.init_params(cfg, 0)).vector)
        p = net.unflatten(cfg, np.zeros(total))
        assert np.all(p.Q == 0) and all(np.all(W == 0) for W in p.Ws)

    def test_layout_stable(self):
        cfg = two_layer_config()
        assert net.layout_for(cfg) == net.layout_for(two_layer_config())

    def test_length_mismatch(self):
        cfg = two_layer_config()
        with pytest.raises(ValueError):
            net.unflatten(cfg, np.zeros(3))

    def test_layout_mismatch_of_equal_length(self):
        # H4 with K=2 and H3 with K=3 both hold 16 parameters at
        # input_dim 1: a vector of one is refused by the other, and the
        # public gradient refuses it too
        h4, h3 = (net.NetworkConfig(1, (net.LayerSpec(SpaceId.so(1, n)),),
                                    task="multiclass", K=k)
                  for n, k in ((3, 2), (2, 3)))
        flat = net.flatten(h4, net.init_params(h4))
        assert len(flat.vector) == len(net.flatten(h3, net.init_params(
            h3)).vector) == 16
        with pytest.raises(ValueError, match="layout"):
            net.unflatten(h3, flat)
        with pytest.raises(ValueError, match="layout"):
            train.gradient(h3, flat, np.ones((2, 1)), [0, 1])
        assert net.unflatten(h3, flat.vector).Q.shape == (3, 1)


def chain(input_dim, layers, Q, lam, W=None, b=None, psi=None):
    """A regression network with the given injection and, for two layers,
    the given transition, so that ``forward_batch`` runs those stages."""
    config = net.NetworkConfig(input_dim, tuple(map(net.LayerSpec, layers)),
                               task="regression")
    params = net.init_params(config)
    params.Q[:], params.lam[:] = Q, lam
    if len(layers) == 2:
        params.Ws[0][:], params.bs[0][:], params.psis[0][:] = W, b, psi
    return config, params


def transition(W, b, psi, source, target):
    """A network whose injection is the identity on ``source``, so that it
    sends a point of ``source`` through one transition to ``target``."""
    return chain(source.dim, (source, target), np.eye(source.dim),
                 np.zeros(source.fiber_dim), W, b, psi)


class TestInject:
    def test_zero_input_maps_to_origin(self):
        Q = np.random.default_rng(0).normal(size=(5, 4))
        out = net.forward_batch(*chain(4, (H5,), Q, np.zeros(3)),
                                np.zeros((1, 4)))[0]
        assert np.max(np.abs(out)) < 1e-12

    def test_zero_angles_is_linear(self):
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(5, 4))
        x = rng.normal(size=4)
        out = net.forward_batch(*chain(4, (H5,), Q, np.zeros(3)), x[None])[0]
        assert np.max(np.abs(out - Q @ x)) < 1e-12

    def test_rejects_nonfinite(self):
        Q = np.zeros((5, 4))
        with pytest.raises(ValueError):
            net.forward_batch(*chain(4, (H5,), Q, np.zeros(3)),
                              np.array([[1.0, np.nan, 0, 0]]))


class TestLayerForward:
    def test_identity_map(self):
        rng = np.random.default_rng(2)
        c = SolvCoords(H3, rng.uniform(-1, 1, 3))
        out = net.forward_batch(*transition(
            np.eye(2), np.zeros(2), np.zeros(1), H3, H3), c.values[None])[0]
        assert np.max(np.abs(out - c.values)) < 1e-12

    def test_zero_angles_equals_homomorphism(self):
        from cartannet import homo
        rng = np.random.default_rng(3)
        W = rng.uniform(-1, 1, (2, 4))
        b = rng.uniform(-1, 1, 2)
        c = SolvCoords(H5, rng.uniform(-1, 1, 5))
        out = net.forward_batch(*transition(W, b, np.zeros(1), H5, H3),
                                c.values[None])[0]
        want = homo.r1_homomorphism(W, b, c)
        assert np.max(np.abs(out - want.values)) < 1e-12

    def test_fiber_stage_preserves_distances(self):
        # oracle: the rotation stage is an isometry, so pairwise distances
        # of two propagated points are unchanged by it
        rng = np.random.default_rng(4)
        p = SolvCoords(H3, rng.uniform(-1, 1, 3))
        q = SolvCoords(H3, rng.uniform(-1, 1, 3))
        psi = np.array([0.9])
        p2, q2 = net.forward_batch(*transition(
            np.eye(2), np.zeros(2), psi, H3, H3), np.stack([p.values, q.values]))
        d0 = spaces.coords_distance(p, q)
        d1 = spaces.coords_distance(SolvCoords(H3, p2), SolvCoords(H3, q2))
        assert abs(d0 - d1) < 1e-10


class TestForward:
    def test_zero_params_map_to_origin(self):
        cfg = two_layer_config()
        total = len(net.flatten(cfg, net.init_params(cfg, 0)).vector)
        p = net.unflatten(cfg, np.zeros(total))
        out = net.forward_batch(cfg, p, np.ones((1, 4)))
        assert np.max(np.abs(out)) < 1e-12

    def test_batch_matches_single(self):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 4))
        batch = net.forward_batch(cfg, params, X)
        for i in range(7):
            single = net.forward_batch(cfg, params, X[i : i + 1])
            assert np.max(np.abs(batch[i] - single[0])) < 1e-12

    def test_finite_jacobian(self):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=7)
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(10):
            x = rng.normal(size=4)
            for j in range(4):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                col = (net.forward_batch(cfg, params, xp)
                       - net.forward_batch(cfg, params, xm)) / (2 * h)
                assert np.all(np.isfinite(col))

    def test_paint_absorption(self):
        # oracle: rotating layer-1 subPaint by O and absorbing O^T into
        # the transition matrix leaves the output unchanged
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=9)
        rng = np.random.default_rng(10)
        O, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        X = rng.normal(size=(5, 4))
        base = net.forward_batch(cfg, params, X)
        rotated = net.unflatten(cfg, net.flatten(cfg, params).vector)
        R = np.eye(5)
        R[1:, 1:] = O
        rotated.Q = R @ params.Q
        rotated.Ws[0] = params.Ws[0] @ O.T
        out = net.forward_batch(cfg, rotated, X)
        assert np.max(np.abs(out - base)) < 1e-10

    def test_zero_rows_zero_target_coordinates(self):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=11)
        params.Ws[0][1, :] = 0.0
        params.bs[0][:] = 0.0
        params.psis[0][:] = 0.0
        X = np.random.default_rng(12).normal(size=(6, 4))
        out = net.forward_batch(cfg, params, X)
        assert np.max(np.abs(out[:, 2])) < 1e-14

    def test_cartan_bound_error(self):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=13)
        params.Q[0, :] = 200.0
        with pytest.raises(spaces.CartanBoundError):
            net.forward_batch(cfg, params, 10.0 * np.ones((1, 4)))


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=14)
        path = tmp_path / "model.json"
        net.save_model(path, cfg, params)
        cfg2, params2 = net.load_model(path)
        assert cfg2 == cfg
        assert np.array_equal(net.flatten(cfg, params).vector,
                              net.flatten(cfg2, params2).vector)

    def test_save_is_deterministic(self, tmp_path):
        cfg = two_layer_config()
        params = net.init_params(cfg, seed=15)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        net.save_model(p1, cfg, params)
        net.save_model(p2, cfg, params)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit", ["format_version", "layout", "v_c"])
    def test_load_refuses_a_foreign_document(self, tmp_path, edit):
        # a document of another format version, whose layout does not
        # match its config, or a regression model stored with the linear
        # read-out v (dim,), c (1,) in place of the separator head, whose
        # parameter count it shares
        cfg = two_layer_config("regression" if edit == "v_c" else "multiclass")
        path = tmp_path / "model.json"
        net.save_model(path, cfg, net.init_params(cfg, seed=16))
        doc = json.loads(path.read_text())
        if edit == "format_version":
            doc["format_version"] = "v0"
        elif edit == "layout":
            doc["layout"][2:4] = reversed(doc["layout"][2:4])  # W0, b0
        else:
            doc["layout"][-3:] = [["v", [H3.dim]], ["c", [1]]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            net.load_model(path)


class TestStageChain:
    """``forward_batch`` runs the shared stage chain: one fiber stage per
    layer, in order, each stage's tape freed before the next one runs."""

    @pytest.mark.parametrize("layers", [(2,), (3, 2), (5, 3), (17, 9, 5)])
    def test_one_fiber_stage_per_layer(self, layers, monkeypatch):
        cfg = net.NetworkConfig(
            input_dim=3,
            layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in layers),
            task="binary")
        params = net.init_params(cfg, seed=1)
        X = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 3))
        want = net.forward_batch(cfg, params, X)
        calls, tapes, live = [], [], []
        original = isometry._fiber_forward

        def counted(space, values, angles):
            # every earlier stage's tape must be gone by now
            live.append(sum(ref() is not None for ref in tapes))
            out = original(space, values, angles)
            calls.append(space)
            if out[1] is not None:  # up, an array only the tape holds
                tapes.append(weakref.ref(out[1][3]))
            return out

        monkeypatch.setattr(isometry, "_fiber_forward", counted)
        got = net.forward_batch(cfg, params, X)
        assert calls == [layer.space for layer in cfg.layers]
        assert live == [0] * len(layers)
        assert np.array_equal(got, want)
