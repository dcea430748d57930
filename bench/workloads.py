"""The three benchmark workloads.

Each workload builds its inputs from the run seed in ``__init__`` (the
set-up the benchmark times), then repeats ``round`` until the run's time is
up.  A round is a closed loop: one caller, one process, each call waits
for the previous one.  Every operation is checked; a failed operation
counts against ``failed`` and its time is left out of the latency samples,
so a wrong answer never reads as a fast one.  Every timed operation is
followed by a host-speed probe (``hostspeed.Probe.scale``), and its time is
recorded both raw and scaled to the reference host's speed.

- ``train-blobs4``: ``cartannet train`` in-process on the 4-class
  acceptance config.  Operation: one epoch.  Task: one train command.
- ``infer-wide``: classification of persisted points through a persisted
  H^17 -> H^9 -> H^5 model.  Operation: one batch.  Task: one pass over
  the point set.
- ``homo-geometry``: homomorphism solving, coordinate-map integration and
  the single-point oracle path.  Operation: one ``solve_numeric`` call.
  Task: one ``integrate_coordinate_map`` call.  Items: oracle points.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import time

import numpy as np

import hostspeed
from cartannet import classify, cli, fixtures, homo, isometry, net, spaces, train
from cartannet.spaces import SolvCoords, SpaceId

# Errors the library raises for a bad input or a failed numeric step; an
# operation that raises one of these counts as failed.
OP_ERRORS = (ValueError, ArithmeticError)


class SetupError(RuntimeError):
    """The workload's inputs could not be built or did not round-trip."""


@dataclasses.dataclass
class Tally:
    """What a run measured: latencies of successful operations and tasks
    and throughput counts, scaled to the reference host's speed and raw,
    and the failure count."""

    probe: hostspeed.Probe
    op_ms: list = dataclasses.field(default_factory=list)
    task_ms: list = dataclasses.field(default_factory=list)
    items: int = 0
    item_s: float = 0.0
    raw_op_ms: list = dataclasses.field(default_factory=list)
    raw_task_ms: list = dataclasses.field(default_factory=list)
    raw_item_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def fail(self, count, why):
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(why)

    def add_op(self, seconds, scale):
        self.op_ms.append(1000.0 * seconds * scale)
        self.raw_op_ms.append(1000.0 * seconds)

    def add_task(self, seconds, scale):
        self.task_ms.append(1000.0 * seconds * scale)
        self.raw_task_ms.append(1000.0 * seconds)

    def add_item_time(self, seconds, scale):
        self.item_s += seconds * scale
        self.raw_item_s += seconds


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return str(path)


def _quiet(fn, argv):
    """Call a CLI entry point and capture what it writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fn(argv)
    return rc, buf.getvalue()


class TrainBlobs4:
    """``cartannet train`` on blobs n=400, dim=4, H^5 -> H^3, K=4."""

    name = "train-blobs4"
    op, task, item = "epoch", "train command", "training sample"
    EPOCHS = 2
    # Test points (of 80) classified correctly after EPOCHS epochs at the
    # seed commit, for input seeds 0..99; a run uses its seed modulo 100.
    # The final accuracy may fall at most MARGIN points below the entry.
    SEED_COMMIT_CORRECT = (
        61, 41, 67, 41, 57, 56, 55, 34, 49, 72, 41, 70, 55, 41, 41, 51, 60, 62, 62, 61,
        44, 50, 61, 51, 58, 51, 57, 52, 60, 73, 49, 53, 40, 56, 39, 59, 47, 38, 43, 68,
        43, 62, 65, 40, 73, 34, 68, 57, 59, 33, 68, 49, 61, 49, 47, 56, 62, 46, 55, 55,
        61, 77, 55, 50, 44, 28, 77, 50, 34, 42, 50, 66, 51, 76, 46, 57, 48, 67, 60, 53,
        68, 50, 56, 44, 61, 52, 60, 79, 75, 44, 70, 56, 76, 63, 66, 62, 62, 68, 30, 48,
    )
    MARGIN = 4
    TRACE_ROUNDS = 2
    REFERENCE = "small"

    def __init__(self, seed, workdir):
        seed %= len(self.SEED_COMMIT_CORRECT)
        self.seed = seed
        self.accuracy_floor = (self.SEED_COMMIT_CORRECT[seed] - self.MARGIN) / 80
        self.detail = {"input_seed": seed, "accuracy_floor": self.accuracy_floor}
        gen = _write_json(workdir / "gen.json",
                          {"kind": "blobs", "n": 400, "dim": 4, "classes": 4})
        csv_path = str(workdir / "blobs4.csv")
        rc, _ = _quiet(cli.main, ["gen-data", "--config", gen,
                                  "--seed", str(seed), "--out", csv_path])
        if rc != 0:
            raise SetupError(f"gen-data exited with {rc}")
        self.model = workdir / "model.json"
        self.history = workdir / "history.jsonl"
        self.config = _write_json(workdir / "train.json", {
            "net": {"input_dim": 4, "layers": [5, 3], "task": "multiclass",
                    "K": 4},
            "train": {"learning_rate": 0.003, "epochs": self.EPOCHS,
                      "batch_size": 32, "gradient_mode": "analytic"},
            "dataset": csv_path,
            "metrics_out": str(self.history),
        })
        self.n_train = len(train.load_csv(csv_path).subset("train"))
        self.first_model = None

    def round(self, tally):
        argv = ["train", "--config", self.config, "--seed", str(self.seed),
                "--out", str(self.model)]
        t0 = time.perf_counter()
        rc, out = _quiet(cli.main, argv)
        seconds = time.perf_counter() - t0
        scale = tally.probe.scale()
        tally.attempted += self.EPOCHS
        tally.add_item_time(seconds, scale)
        why = self._check(rc, out)
        if why is not None:
            tally.fail(self.EPOCHS, why)
            return
        tally.add_op(seconds / self.EPOCHS, scale)
        tally.add_task(seconds, scale)
        tally.items += self.EPOCHS * self.n_train

    def _check(self, rc, out):
        if rc != 0:
            return f"train exited with {rc}"
        doc = json.loads(out)
        with open(self.history) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        finite = [r for r in records
                  if math.isfinite(r["train_loss"]) and math.isfinite(r["test_loss"])]
        if doc["epochs_run"] != self.EPOCHS or len(finite) != self.EPOCHS:
            return (f"{len(finite)} of {self.EPOCHS} epochs completed "
                    "with a finite loss")
        accuracy = doc["final"]["accuracy"]
        self.detail["final_accuracy"] = accuracy
        if accuracy < self.accuracy_floor:
            return f"final accuracy {accuracy} below {self.accuracy_floor}"
        model = self.model.read_bytes()
        if self.first_model is None:
            self.first_model = model
        elif model != self.first_model:
            return "rerun wrote a different model"
        return None


class InferWide:
    """Batched classification through a persisted H^17 -> H^9 -> H^5 model."""

    name = "infer-wide"
    op, task, item = "batch", "pass over the point set", "point"
    DIMS = (17, 9, 5)
    INPUT_DIM = 16
    K = 4
    BATCH = 2048
    BATCHES = 4
    CHECK_ROWS = 4  # per batch, against the single-point reference
    TRACE_ROUNDS = 4
    REFERENCE = "wide"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        config = net.NetworkConfig(
            input_dim=self.INPUT_DIM,
            layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in self.DIMS),
            task="multiclass", K=self.K)
        params = net.init_params(config, seed=seed)
        params.lam[:] = rng.uniform(-0.5, 0.5, params.lam.shape)
        for psi, b in zip(params.psis, params.bs):
            psi[:] = rng.uniform(-0.5, 0.5, psi.shape)
            b[:] = rng.uniform(-0.3, 0.3, b.shape)
        params.head["alpha"][:] = rng.uniform(-0.3, 0.3, self.K)
        params.head["beta"][:] = rng.uniform(-0.3, 0.3, self.K)
        model = workdir / "model.json"
        net.save_model(model, config, params)
        self.config, self.params = net.load_model(model)
        if self.config != config or not np.array_equal(
                net.flatten(config, params).vector,
                net.flatten(self.config, self.params).vector):
            raise SetupError("model did not round-trip through save/load")
        points = train.gen_synthetic("blobs", n=self.BATCH * self.BATCHES,
                                     dim=self.INPUT_DIM, seed=seed, classes=self.K)
        csv_path = workdir / "points.csv"
        train.save_csv(csv_path, points)
        loaded = train.load_csv(csv_path)
        if not (np.array_equal(loaded.features, points.features)
                and np.array_equal(loaded.labels, points.labels)):
            raise SetupError("points did not round-trip through the CSV")
        self.X = loaded.features
        head = self.params.head
        self.bank = classify.SeparatorBank(tuple(
            classify.Separator(head["alpha"][k], head["beta"][k], head["w"][k])
            for k in range(self.K)))
        self.rows = [np.sort(rng.choice(self.BATCH, self.CHECK_ROWS, replace=False))
                     for _ in range(self.BATCHES)]
        self.seen = {}

    def round(self, tally):
        pass_s, raw_pass_s, pass_ok = 0.0, 0.0, True
        for b in range(self.BATCHES):
            X = self.X[b * self.BATCH:(b + 1) * self.BATCH]
            t0 = time.perf_counter()
            try:
                points = net.forward_batch(self.config, self.params, X)
                probs = classify.softmax_probs(self.bank, points)
                pred = np.argmax(probs, axis=-1)
                error = None
            except OP_ERRORS as exc:
                error = f"batch {b}: {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            scale = tally.probe.scale()
            tally.attempted += 1
            tally.add_item_time(seconds, scale)
            pass_s += seconds * scale
            raw_pass_s += seconds
            why = error or self._check(b, points, probs, pred)
            if why is not None:
                tally.fail(1, why)
                pass_ok = False
                continue
            tally.add_op(seconds, scale)
            tally.items += len(X)
        if pass_ok:
            tally.add_task(raw_pass_s, pass_s / raw_pass_s)

    def _check(self, b, points, probs, pred):
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(probs))):
            return f"batch {b}: non-finite output"
        if np.max(np.abs(np.sum(probs, axis=-1) - 1.0)) > 1e-12:
            return f"batch {b}: probabilities do not sum to 1"
        if pred.shape != (len(probs),) or pred.min() < 0 or pred.max() >= self.K:
            return f"batch {b}: class index out of range"
        rows = self.rows[b]
        got = (points[rows], probs[rows])
        if b in self.seen:
            if not all(np.array_equal(g, s) for g, s in zip(got, self.seen[b])):
                return f"batch {b}: rerun gave a different result"
            return None
        for j, row in enumerate(rows):
            ref_points, ref_probs = self.reference(self.X[b * self.BATCH + row])
            err = max(np.max(np.abs(ref_points - got[0][j])),
                      np.max(np.abs(ref_probs - got[1][j])))
            if not err <= 1e-10:
                return f"batch {b} row {row}: {err:.3g} from the single-point reference"
        self.seen[b] = (got[0].copy(), got[1].copy())
        return None

    def reference(self, x):
        """Single-point forward pass and head, from the oracle functions."""
        config, p = self.config, self.params
        coords = self._rotate(SolvCoords(config.layers[0].space, p.Q @ x), p.lam)
        for i, W in enumerate(p.Ws):
            coords = homo.r1_homomorphism(W, p.bs[i], coords,
                                          config.layers[i + 1].space)
            coords = self._rotate(coords, p.psis[i])
        return coords.values, classify.softmax_probs(self.bank, coords.values)

    @staticmethod
    def _rotate(coords, angles):
        gens = isometry.build_fiber_generators(coords.space)
        for gen, angle in zip(gens, angles):
            coords = isometry.isometry_action(isometry.fiber_rotation(gen, angle),
                                              coords)
        return coords


class HomoGeometry:
    """Homomorphism solving, coordinate-map integration and the
    single-point oracle path; no network code runs here."""

    name = "homo-geometry"
    op, task, item = "solve_numeric call", "integrate_coordinate_map call", "oracle point"
    SOLVE_STARTS = 8
    SOLVE_SEED = 0  # fixed, so the solution set is known in advance
    SOLVE_PAIRS = 4  # per round, for enough latency samples in a run
    # Solution count per branch tag at SOLVE_STARTS and SOLVE_SEED.
    EXPECTED_TAGS = {
        "r1(1)->borel_sl(4)": {"branch-11": 8, "branch-12": 8, "untagged": 8},
        "borel_sl(4)->r1(1)": {"cartan-column-3": 8, "untagged": 8},
    }
    ORACLE_POINTS = 400
    ORACLE_CHUNK = 100  # points timed between two host-speed probes
    TRACE_ROUNDS = 1
    REFERENCE = "small"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        r1, borel = homo.r1_mc(1), homo.borel_mc(4)
        self.systems = {
            "r1(1)->borel_sl(4)": homo.build_constraints(r1, borel),
            "borel_sl(4)->r1(1)": homo.build_constraints(borel, r1),
        }
        self.W = fixtures.W_canonical()
        if homo.residual(self.W, self.systems["r1(1)->borel_sl(4)"]) > 1e-12:
            raise SetupError("W_canonical is not a homomorphism")
        self.spaces = (SpaceId.so(1, 2), SpaceId.so(1, 4), SpaceId.sl(4))
        self.gens = {s: isometry.build_fiber_generators(s) for s in self.spaces[:2]}

    def round(self, tally):
        for _ in range(self.SOLVE_PAIRS):
            self._solve(tally)
        self._integrate(tally)
        self._oracle(tally)

    def _solve(self, tally):
        seconds, scaled, ok = 0.0, 0.0, True
        for label, system in self.systems.items():
            t0 = time.perf_counter()
            try:
                sols = homo.solve_numeric(system, seeds=self.SOLVE_STARTS,
                                          seed=self.SOLVE_SEED)
                error = None
            except OP_ERRORS as exc:
                error = f"{label}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            seconds += dt
            scaled += dt * tally.probe.scale()
            tally.attempted += 1
            why = error or self._check_solutions(label, system, sols)
            if why is not None:
                tally.fail(1, why)
                ok = False
        if ok:
            n = len(self.systems)
            tally.add_op(seconds / n, scaled / seconds)

    def _check_solutions(self, label, system, sols):
        worst = max((homo.residual(s.W, system) for s in sols), default=0.0)
        if not worst <= 1e-10:
            return f"{label}: residual {worst:.3g}"
        tags = dict(collections.Counter(s.branch_tag for s in sols))
        if tags != self.EXPECTED_TAGS[label]:
            return f"{label}: solutions by branch {tags}"
        return None

    def _integrate(self, tally):
        w = self.rng.uniform(-0.5, 0.5, 3)
        t0 = time.perf_counter()
        try:
            got = homo.integrate_coordinate_map(self.W, SolvCoords(self.spaces[0], w))
            err = np.max(np.abs(got.values - fixtures.phi_canonical(w).values))
            why = None if err <= 1e-8 else f"{err:.3g} from phi_canonical"
        except OP_ERRORS as exc:
            why = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        scale = tally.probe.scale()
        tally.attempted += 1
        if why is not None:
            tally.fail(1, f"integration at {w.tolist()}: {why}")
            return
        tally.add_task(seconds, scale)

    def _oracle(self, tally):
        inputs = []
        for k in range(self.ORACLE_POINTS):
            space = self.spaces[k % len(self.spaces)]
            x = self.rng.uniform(-1.0, 1.0, space.dim)
            y = self.rng.uniform(-1.0, 1.0, space.dim)
            if space.is_r1:
                gens = self.gens[space]
                g = (gens[self.rng.integers(len(gens))], self.rng.uniform(-2.0, 2.0))
            else:
                Q, R = np.linalg.qr(self.rng.normal(size=(space.N, space.N)))
                Q = Q * np.sign(np.diag(R))
                if np.linalg.det(Q) < 0:
                    Q[:, 0] = -Q[:, 0]
                g = isometry.GroupElement(space, Q, "grassmannian")
            inputs.append((space, x, y, g))
        for start in range(0, len(inputs), self.ORACLE_CHUNK):
            chunk = inputs[start:start + self.ORACLE_CHUNK]
            good = 0
            t0 = time.perf_counter()
            for space, x, y, g in chunk:
                try:
                    why = self._oracle_point(space, x, y, g)
                except OP_ERRORS as exc:
                    why = f"{type(exc).__name__}: {exc}"
                if why is None:
                    good += 1
                else:
                    tally.fail(1, f"oracle {space}: {why}")
            seconds = time.perf_counter() - t0
            tally.add_item_time(seconds, tally.probe.scale())
            tally.attempted += len(chunk)
            tally.items += good

    @staticmethod
    def _oracle_point(space, x, y, g):
        if isinstance(g, tuple):
            g = isometry.fiber_rotation(*g)
        p, q = SolvCoords(space, x), SolvCoords(space, y)
        L = spaces.sigma(p)
        err = np.max(np.abs(spaces.sigma_inv(L).values - x))
        if not err <= 1e-10:
            return f"chart round trip {err:.3g}"
        err = np.max(np.abs(spaces.cholesky_crout(spaces.to_coset(L)).matrix - L.matrix))
        if not err <= 1e-10:
            return f"Crout round trip {err:.3g}"
        d0 = spaces.coords_distance(p, q)
        d1 = spaces.coords_distance(isometry.isometry_action(g, p),
                                    isometry.isometry_action(g, q))
        if not abs(d0 - d1) <= 1e-8:
            return f"distance changed by {abs(d0 - d1):.3g} under the isometry"
        pq = spaces.sigma(spaces.group_product(p, q)).matrix
        err = np.max(np.abs(pq - L.matrix @ spaces.sigma(q).matrix))
        if not err <= 1e-10:
            return f"group product {err:.3g}"
        return None


WORKLOADS = {w.name: w for w in (TrainBlobs4, InferWide, HomoGeometry)}
