"""End-to-end acceptance gate: algebraic reproductions, geometry oracles,
gradient checks, training targets, and CLI determinism, each with explicit
tolerances and runtime budgets."""

import json
import time

import numpy as np
import pytest
import scipy.optimize

from cartannet import (classify, cli, fixtures, homo, isometry, net, spaces,
                       train)
from cartannet.spaces import SolvCoords, SpaceId
from central_difference import central_difference_gradient
from oracles import (classify_element, find_surface_point, h_value,
                     metric_at, sigmoid)

H2 = SpaceId.so(1, 1)
H3 = SpaceId.so(1, 2)
H5 = SpaceId.so(1, 4)
SL4 = SpaceId.sl(4)


def away(p, i, gap=0.3):
    p[i] = np.sign(p[i] or 1.0) * (abs(p[i]) + gap)


class TestAppendixFamilies:
    def test_families_and_substitution(self):
        t0 = time.monotonic()
        C_inj = homo.build_constraints(homo.r1_mc(1), homo.borel_mc(4))
        C_rest = homo.build_constraints(homo.borel_mc(4), homo.r1_mc(1))
        assert homo.residual(fixtures.W_canonical(), C_inj) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.uniform(-1, 1, 11)
            away(d, 0)
            away(d, 10)
            assert homo.residual(fixtures.W_family_11(d), C_inj) <= 1e-10
        for _ in range(100):
            d = rng.uniform(-1, 1, 12)
            away(d, 7)
            assert homo.residual(fixtures.W_family_12(d), C_inj) <= 1e-10
        cases = [
            (fixtures.restriction_W1, 6, None),
            (fixtures.restriction_W2, 5, 0),
            (fixtures.restriction_W3, 4, None),
            (fixtures.restriction_W7, 4, None),
            (fixtures.restriction_W10, 3, None),
        ]
        for ctor, k, guard in cases:
            for _ in range(100):
                a = rng.uniform(-1, 1, k)
                if guard is not None:
                    away(a, guard)
                assert homo.residual(ctor(a), C_rest) <= 1e-10
        assert np.array_equal(
            fixtures.W_family_12(fixtures.delta_canonical()).W,
            fixtures.W_canonical().W)
        assert time.monotonic() - t0 < 5.0


def pullback_error(sol, phi, src_space, tgt_space, x, h=1e-6):
    """max |E_tgt(phi(x)) J_phi(x) - W E_src(x)| with J by central FD."""
    d_src = src_space.dim
    J = np.zeros((tgt_space.dim, d_src))
    for j in range(d_src):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (phi(xp).values - phi(xm).values) / (2 * h)
    lhs = homo.coframe(tgt_space, phi(x).values) @ J
    rhs = sol.W @ homo.coframe(src_space, x)
    return float(np.max(np.abs(lhs - rhs)))


class TestCoordinateMaps:
    def test_pullback_relation(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(25):
            d = rng.uniform(-1, 1, 14)
            d[0] = np.sign(d[0] or 1) * rng.uniform(0.5, 1.0)
            d[10] = np.sign(d[10] or 1) * rng.uniform(1.1, 1.4)
            sol = fixtures.W_family_11(d[:11])
            x = rng.uniform(-0.5, 0.5, 3)
            worst = max(worst, pullback_error(
                sol, lambda u: fixtures.phi_family_11(d, u), H3, SL4, x))
        for _ in range(25):
            a = rng.uniform(-1, 1, 4)
            sol = fixtures.restriction_W3(a)
            x = rng.uniform(-0.5, 0.5, 9)
            worst = max(worst, pullback_error(
                sol, lambda u: fixtures.phi_restriction_W3(a, u), SL4, H3, x))
        assert worst <= 1e-7

    def test_canonical_embedding_recovered_by_integration(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.uniform(-0.7, 0.7, 3)
            got = homo.integrate_coordinate_map(
                fixtures.W_canonical(), SolvCoords(H3, w))
            assert np.max(np.abs(
                got.values - fixtures.phi_canonical(w).values)) <= 1e-8


class TestBorelStructure:
    def test_sl4_term_set(self):
        # the displayed sl(4) Borel structure: exact spot values plus
        # antisymmetry; the constructor itself asserts that the
        # combinatorial and commutator routes agree entrywise
        t0 = time.monotonic()
        mc = homo.borel_mc(4)
        idx = {(l.h, l.k): i for i, l in enumerate(mc.labels)}
        f = mc.f
        assert f[idx[1, 1], idx[0, 1], idx[1, 1]] == -2.0
        assert f[idx[1, 2], idx[0, 1], idx[1, 2]] == 1.0
        assert f[idx[3, 1], idx[1, 1], idx[2, 2]] == 1.0
        assert f[idx[3, 1], idx[1, 3], idx[2, 1]] == -1.0
        assert np.max(np.abs(f + np.swapaxes(f, 1, 2))) == 0.0
        for n in range(2, 8):
            homo.borel_mc(n)
        assert time.monotonic() - t0 < 10.0


class TestGroupSuite:
    def test_thousand_samples(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(3)
        for space in (H2, H3, H5, SL4):
            eta = (spaces.build_eta(space).entries
                   if space.family == "so" else None)
            for _ in range(1000):
                x = rng.uniform(-1.0, 1.0, space.dim)
                L = spaces.sigma(SolvCoords(space, x))
                assert np.max(np.abs(
                    spaces.sigma_inv(L).values - x)) <= 1e-12
                M = spaces.to_coset(L)
                assert np.max(np.abs(
                    spaces.cholesky_crout(M).matrix - L.matrix)) <= 1e-12
                if space.family == "so":
                    assert np.max(np.abs(
                        L.matrix.T @ eta @ L.matrix - eta)) <= 1e-12
                else:
                    assert abs(np.linalg.det(L.matrix) - 1.0) <= 1e-12
            for _ in range(250):
                u = SolvCoords(space, rng.uniform(-1, 1, space.dim))
                w = SolvCoords(space, rng.uniform(-1, 1, space.dim))
                uw = spaces.group_product(u, w)
                assert np.max(np.abs(
                    spaces.sigma(uw).matrix
                    - spaces.sigma(u).matrix @ spaces.sigma(w).matrix)) \
                    <= 1e-10
                assert np.max(np.abs(spaces.group_product(
                    spaces.group_inverse(u), u).values)) <= 1e-10
        assert time.monotonic() - t0 < 30.0


class TestIsometrySuite:
    def test_distance_invariance_500_actions(self):
        rng = np.random.default_rng(4)
        for k in range(500):
            space = H3 if k % 2 else H5
            gens = isometry.build_fiber_generators(space)
            s = space.subpaint_dim
            O, _ = np.linalg.qr(rng.normal(size=(s, s)))
            g = (spaces.sigma(SolvCoords(
                     space, rng.uniform(-1, 1, space.dim))).matrix
                 @ isometry.embedded_paint(
                     isometry.PaintRotation(space, O)).matrix
                 @ isometry.fiber_rotation(
                     gens[rng.integers(len(gens))],
                     rng.uniform(-2, 2)).matrix)
            elem = classify_element(g, space)
            assert elem.kind != "external"
            p = SolvCoords(space, rng.uniform(-1, 1, space.dim))
            q = SolvCoords(space, rng.uniform(-1, 1, space.dim))
            d0 = spaces.coords_distance(p, q)
            d1 = spaces.coords_distance(isometry.isometry_action(elem, p),
                                        isometry.isometry_action(elem, q))
            assert abs(d0 - d1) <= 1e-8

    def test_paint_equals_embedded_action(self):
        rng = np.random.default_rng(5)
        for k in range(100):
            space = H3 if k % 2 else H5
            s = space.subpaint_dim
            O, _ = np.linalg.qr(rng.normal(size=(s, s)))
            rot = isometry.PaintRotation(space, O)
            p = SolvCoords(space, rng.uniform(-1, 1, space.dim))
            a = isometry.paint_rotate(rot, p).values
            b = isometry.isometry_action(isometry.embedded_paint(rot),
                                         p).values
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_metric_left_invariance(self):
        # pullback of the metric along left translation equals the metric
        rng = np.random.default_rng(6)
        h = 1e-6
        for k in range(50):
            space = H3 if k % 2 else H5
            d = space.dim
            u = SolvCoords(space, rng.uniform(-1, 1, d))
            p = rng.uniform(-1, 1, d)
            J = np.zeros((d, d))
            for j in range(d):
                pp, pm = p.copy(), p.copy()
                pp[j] += h
                pm[j] -= h
                J[:, j] = (
                    spaces.group_product(u, SolvCoords(space, pp)).values
                    - spaces.group_product(u, SolvCoords(space, pm)).values
                ) / (2 * h)
            G_up = metric_at(
                spaces.group_product(u, SolvCoords(space, p)))
            G_p = metric_at(SolvCoords(space, p))
            assert np.max(np.abs(J.T @ G_up @ J - G_p)) <= 1e-8


class TestHomomorphismLaw:
    def test_thousand_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            qs, qt = rng.integers(1, 5, 2)
            src, tgt = SpaceId.so(1, qs), SpaceId.so(1, qt)
            W = rng.uniform(-1, 1, (qt, qs))
            b = rng.uniform(-1, 1, qt)
            u = SolvCoords(src, rng.uniform(-1, 1, src.dim))
            w = SolvCoords(src, rng.uniform(-1, 1, src.dim))
            lhs = homo.r1_homomorphism(W, b, spaces.group_product(u, w))
            rhs = spaces.group_product(homo.r1_homomorphism(W, b, u),
                                       homo.r1_homomorphism(W, b, w))
            assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10

    def test_composition_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            W1 = rng.uniform(-1, 1, (3, 4))
            b1 = rng.uniform(-1, 1, 3)
            W2 = rng.uniform(-1, 1, (2, 3))
            b2 = rng.uniform(-1, 1, 2)
            x = SolvCoords(H5, rng.uniform(-1, 1, 5))
            two = homo.r1_homomorphism(W2, b2, homo.r1_homomorphism(W1, b1, x))
            one = homo.r1_homomorphism(W2 @ W1, b2 + W2 @ b1, x)
            assert np.max(np.abs(two.values - one.values)) <= 1e-12


def _min_surface_distance(sep, p):
    """Numerical minimization of the coset distance over {h = 0} in H^2."""

    def at(y2):
        A = sep.beta * (1.0 + 0.25 * y2 * y2)
        B = float(sep.w[0]) * y2
        C = sep.alpha
        if A == 0.0:
            return [-C / B] if (B != 0.0 and -C / B > 0) else []
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            return []
        r = np.sqrt(disc)
        return [t for t in ((-B + r) / (2 * A), (-B - r) / (2 * A)) if t > 0]

    def f(y2):
        ts = at(y2)
        if not ts:
            return np.inf
        return min(spaces.coords_distance(
            p, SolvCoords(H2, np.array([np.log(t), y2]))) for t in ts)

    grid = np.linspace(-30.0, 30.0, 251)
    coarse = np.array([f(y) for y in grid])
    k = int(np.argmin(coarse))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = scipy.optimize.minimize_scalar(
        f, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-8})
    return min(res.fun, coarse[k])


class TestSeparatorGeometry:
    def rand_sep(self, rng, s=1):
        while True:
            alpha, beta = rng.uniform(-1, 1, 2)
            w = rng.uniform(-1, 1, s)
            sep = classify.Separator(alpha, beta, w)
            if sep.admissible:
                return sep

    def test_signed_distance_matches_minimization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sep = self.rand_sep(rng)
            p = SolvCoords(H2, rng.uniform(-0.8, 0.8, 2))
            d = abs(classify.signed_distance(sep, p))
            assert abs(d - _min_surface_distance(sep, p)) <= 1e-3

    def test_surface_points_have_zero_distance(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            sep = self.rand_sep(rng, s=2)
            p = find_surface_point(sep, H3, seed=seed)
            assert abs(classify.signed_distance(sep, p)) <= 1e-6

    def test_sigma_tilde_identity(self):
        rng = np.random.default_rng(11)
        sep = self.rand_sep(rng, s=2)
        norm = 2.0 * np.sqrt(sep.w @ sep.w - sep.alpha * sep.beta)
        pts = rng.uniform(-1, 1, (100, 3))
        lhs = sigmoid(np.sinh(classify.signed_distance(sep, pts)))
        rhs = sigmoid(h_value(sep, pts) / norm)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestGradientGate:
    def test_twenty_networks_per_block(self):
        rng = np.random.default_rng(12)
        layer_menu = [(H3,), (H2,), (H3, H2), (H5, H3)]
        task_menu = [("binary", None), ("multiclass", 2),
                     ("multiclass", 3), ("regression", None)]
        for k in range(20):
            layers = layer_menu[k % len(layer_menu)]
            task, K = task_menu[k % len(task_menu)]
            cfg = net.NetworkConfig(
                input_dim=int(rng.integers(2, 4)),
                layers=tuple(net.LayerSpec(s) for s in layers),
                task=task, K=K)
            flat = net.flatten(cfg, net.init_params(cfg, seed=k))
            X = rng.normal(size=(6, cfg.input_dim))
            if task == "regression":
                y = rng.normal(size=6)
            else:
                y = rng.integers(0, K or 2, 6)
            ga = train.gradient(cfg, flat, X, y)
            gf = central_difference_gradient(cfg, flat, X, y)
            offset = 0
            for name, shape in flat.layout:
                size = int(np.prod(shape))
                a = ga[offset : offset + size]
                f = gf[offset : offset + size]
                offset += size
                scale = max(np.linalg.norm(a), np.linalg.norm(f), 1e-6)
                assert np.linalg.norm(a - f) / scale <= 1e-4, name


class TestTraining:
    def test_two_class_blobs(self):
        t0 = time.monotonic()
        ds = train.gen_synthetic("blobs", n=400, dim=4, seed=0, classes=2)
        cfg = net.NetworkConfig(
            input_dim=4,
            layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
            task="multiclass", K=2)
        tc = train.TrainConfig(learning_rate=0.01, epochs=15,
                               batch_size=32, seed=0)
        _, history = train.train_loop(tc, cfg, ds)
        assert history[-1]["accuracy"] >= 0.95
        assert time.monotonic() - t0 < 60.0

    def test_four_class_blobs(self):
        t0 = time.monotonic()
        ds = train.gen_synthetic("blobs", n=400, dim=4, seed=0, classes=4)
        cfg = net.NetworkConfig(
            input_dim=4,
            layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
            task="multiclass", K=4)
        tc = train.TrainConfig(learning_rate=0.003, epochs=40,
                               batch_size=32, seed=0)
        _, history = train.train_loop(tc, cfg, ds)
        assert history[-1]["accuracy"] >= 0.90
        assert time.monotonic() - t0 < 60.0

    def test_regression_beats_least_squares(self):
        # y = sin 2x0 + x1^2 / 2 - 1/2 on x ~ U[-2, 2]^2; the test MSE of
        # the signed distance to the head's separator, against linear
        # least squares on the raw inputs over the same split.  Seeds 0-4
        # give 0.39-0.45 against 0.65-0.87, a ratio of at most 0.60.
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        X = rng.uniform(-2.0, 2.0, (400, 2))
        y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 - 0.5
        split = np.array(["train" if i % 5 else "test" for i in range(400)])
        ds = train.Dataset(X, y, split)
        cfg = net.NetworkConfig(
            input_dim=2,
            layers=(net.LayerSpec(H5), net.LayerSpec(H3)),
            task="regression")
        tc = train.TrainConfig(learning_rate=0.01, epochs=200,
                               batch_size=32, seed=0)
        _, history = train.train_loop(tc, cfg, ds)
        tr, te = ds.subset("train"), ds.subset("test")
        coef = np.linalg.lstsq(np.c_[tr.features, np.ones(len(tr))],
                               tr.labels, rcond=None)[0]
        resid = np.c_[te.features, np.ones(len(te))] @ coef - te.labels
        assert len(history) == tc.epochs
        assert history[-1]["test_loss"] <= 0.75 * np.mean(resid * resid)
        assert time.monotonic() - t0 < 60.0


class TestCliDeterminism:
    def test_all_commands_byte_identical(self, tmp_path):
        data = tmp_path / "data.csv"
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(
            {"kind": "blobs", "n": 50, "dim": 2, "classes": 2}))
        solve_cfg = tmp_path / "solve.json"
        solve_cfg.write_text(json.dumps(
            {"source": "r1(1)", "target": "borel_sl(4)", "seeds": 3}))
        assert cli.main(["gen-data", "--config", str(gen_cfg),
                         "--seed", "0", "--out", str(data)]) == 0
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"learning_rate": 0.01, "epochs": 2, "batch_size": 16},
            "dataset": str(data),
        }))
        model = tmp_path / "model.json"
        assert cli.main(["train", "--config", str(train_cfg), "--seed", "0",
                         "--out", str(model)]) == 0
        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(json.dumps(
            {"model": str(model), "dataset": str(data)}))
        jobs = [
            ("verify.json", ["verify", "--scope", "core", "--seed", "1"]),
            ("solve.json", ["solve-homo", "--config", str(solve_cfg),
                            "--seed", "1"]),
            ("data.csv", ["gen-data", "--config", str(gen_cfg),
                          "--seed", "1"]),
            ("model2.json", ["train", "--config", str(train_cfg),
                             "--seed", "1"]),
            ("eval.json", ["eval", "--config", str(eval_cfg)]),
        ]
        for fname, argv in jobs:
            a = tmp_path / ("a_" + fname)
            b = tmp_path / ("b_" + fname)
            assert cli.main(argv + ["--out", str(a)]) == 0
            assert cli.main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), fname
