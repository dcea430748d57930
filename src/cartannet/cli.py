"""Command-line interface: verification suites, homomorphism solving,
data generation, training, and evaluation.

All outputs are deterministic for a given seed: JSON documents are written
with sorted keys and contain no timestamps, so reruns are byte-identical.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import classify, fixtures, homo, isometry, net, spaces, train
from .spaces import SolvCoords, SpaceId


def _write_json(path, doc):
    doc = dict(doc)
    doc["format"] = net.FORMAT_VERSION
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_config(path, keys):
    """The JSON object at ``path``, whose keys must be among ``keys``."""
    if path is None:
        raise SystemExit2("--config is required for this command")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON
        raise SystemExit2(f"cannot read config {path}: {exc}")
    return _object(cfg, "the config", keys)


class SystemExit2(Exception):
    """Usage / configuration error (exit code 2)."""


def _integer(value, name):
    """``value`` if it is a JSON integer.  Floats, null, strings and bools
    are refused with exit code 2 rather than coerced."""
    if not spaces._is_integer(value):
        raise SystemExit2(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name):
    """``value`` as a float if it is a finite JSON integer or float.  Null,
    strings, bools, NaN and infinities are refused with exit code 2."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise SystemExit2(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _path(value, name):
    """``value`` if it is a JSON string.  Numbers (which ``open`` would take
    as file descriptors), null and anything else are refused with exit
    code 2."""
    if not isinstance(value, str):
        raise SystemExit2(f"{name} must be a path string, got {value!r}")
    return value


def _writable(path, name):
    """``path`` if its directory exists and is writable and it is not a
    directory itself, checked before any work; else exit 2."""
    folder = os.path.dirname(path) or "."
    if (not os.path.isdir(folder) or not os.access(folder, os.W_OK)
            or os.path.isdir(path)):
        raise SystemExit2(f"cannot write {name} {path!r}")
    return path


def _object(value, name, keys):
    """``value`` if it is a JSON object whose keys are all among ``keys``.
    Anything else exits 2, so a misspelt key is refused before any work
    instead of being ignored in favour of a default."""
    if not isinstance(value, dict):
        raise SystemExit2(f"{name} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise SystemExit2(
            f"unknown key(s) in {name}: {', '.join(map(repr, unknown))}")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_core(seed):
    rng = np.random.default_rng(seed)
    checks = []
    for space in (SpaceId.so(1, 1), SpaceId.so(1, 2), SpaceId.so(1, 4),
                  SpaceId.sl(4), SpaceId.so(2, 3)):
        err = 0.0
        eta = (spaces.build_eta(space).entries
               if space.family == "so" else None)
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5, space.dim)
            c = SolvCoords(space, x)
            L = spaces.sigma(c)
            err = max(err, float(np.max(np.abs(
                spaces.sigma_inv(L).values - x))))
            M = spaces.to_coset(L)
            err = max(err, float(np.max(np.abs(
                spaces.cholesky_crout(M).matrix - L.matrix))))
            err = max(err, abs(float(np.linalg.det(L.matrix)) - 1.0)
                      if space.family == "sl" else 0.0)
            if space.family == "so":
                err = max(err, float(np.max(np.abs(
                    L.matrix.T @ eta @ L.matrix - eta))))
        checks.append((f"roundtrips[{space}]", err, 1e-10))
    # group axioms on an r=1 space
    space = SpaceId.so(1, 3)
    err = 0.0
    for _ in range(50):
        u = SolvCoords(space, rng.uniform(-1, 1, space.dim))
        w = SolvCoords(space, rng.uniform(-1, 1, space.dim))
        uw = spaces.group_product(u, w)
        L = spaces.sigma(u).matrix @ spaces.sigma(w).matrix
        err = max(err, float(np.max(np.abs(spaces.sigma(uw).matrix - L))))
        iu = spaces.group_inverse(u)
        err = max(err, float(np.max(np.abs(
            spaces.group_product(iu, u).values))))
    checks.append(("group-axioms[so(1,4)]", err, 1e-10))
    return checks


def _suite_isometry(seed):
    rng = np.random.default_rng(seed)
    checks = []
    space = SpaceId.so(1, 2)
    gens = isometry.build_fiber_generators(space)
    err_dist, err_paint = 0.0, 0.0
    for _ in range(50):
        g = isometry.fiber_rotation(gens[0], rng.uniform(-2, 2))
        p = SolvCoords(space, rng.uniform(-1, 1, space.dim))
        q = SolvCoords(space, rng.uniform(-1, 1, space.dim))
        d0 = spaces.coords_distance(p, q)
        d1 = spaces.coords_distance(
            isometry.isometry_action(g, p), isometry.isometry_action(g, q))
        err_dist = max(err_dist, abs(d0 - d1))
        O, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        rot = isometry.PaintRotation(space, O)
        a = isometry.paint_rotate(rot, p).values
        b = isometry.isometry_action(isometry.embedded_paint(rot), p).values
        err_paint = max(err_paint, float(np.max(np.abs(a - b))))
    checks.append(("distance-invariance[H3]", err_dist, 1e-8))
    checks.append(("paint-equivalence[H3]", err_paint, 1e-10))
    # the batched r=1 fiber kernel (the chart (T, Y2)) against the
    # single-point closed-form action (the hyperboloid vector): neither
    # refactors a coset matrix, so the check can reach |coords| <= 6,
    # where the Crout pipeline is off by up to 1e2 on H17
    for n in (5, 17):
        space = spaces.hyperbolic(n)
        gens = isometry.build_fiber_generators(space)
        err = 0.0
        for _ in range(50):
            x = rng.uniform(-6, 6, space.dim)
            angles = rng.uniform(-np.pi, np.pi, space.fiber_dim)
            want = SolvCoords(space, x)
            for gen, angle in zip(gens, angles):
                want = isometry.isometry_action(
                    isometry.fiber_rotation(gen, angle), want)
            got = isometry.fiber_rotate(space, x, angles)
            err = max(err, float(np.max(np.abs(got - want.values))))
        checks.append((f"fiber-kernel[H{n}]", err, 1e-10))
    # the closed-form r=1 action against the matrix pipeline
    # sigma -> M -> g M g^T -> Crout -> sigma^{-1}, near the origin where
    # that pipeline is accurate; g mixes a fiber rotation, a paint
    # rotation and a solvable element
    space = spaces.hyperbolic(5)
    gens = isometry.build_fiber_generators(space)
    err = 0.0
    for _ in range(50):
        O, _ = np.linalg.qr(rng.normal(size=(space.subpaint_dim,) * 2))
        g = (isometry.fiber_rotation(gens[rng.integers(len(gens))],
                                     rng.uniform(-np.pi, np.pi)).matrix
             @ isometry.embedded_paint(isometry.PaintRotation(space, O)).matrix
             @ spaces.sigma(SolvCoords(
                 space, rng.uniform(-1, 1, space.dim))).matrix)
        p = SolvCoords(space, rng.uniform(-1, 1, space.dim))
        M = spaces.to_coset(spaces.sigma(p)).matrix
        want = spaces.sigma_inv(spaces.cholesky_crout(
            spaces.CosetPoint(space, g @ M @ g.T)))
        got = isometry.isometry_action(
            isometry.GroupElement(space, g, "grassmannian"), p)
        err = max(err, float(np.max(np.abs(got.values - want.values))))
    checks.append(("action-vs-coset[H5]", err, 1e-10))
    return checks


def _suite_appendix(seed):
    rng = np.random.default_rng(seed)
    checks = []
    src = homo.r1_mc(1)
    tgt = homo.borel_mc(4)
    C_inj = homo.build_constraints(src, tgt)
    C_rest = homo.build_constraints(tgt, src)
    checks.append(("W_canonical", homo.residual(fixtures.W_canonical(), C_inj),
                   1e-12))

    def family_worst(ctor, nparams, system, guard=None):
        worst = 0.0
        for _ in range(25):
            p = rng.uniform(-1.0, 1.0, nparams)
            if guard:
                guard(p)
            worst = max(worst, homo.residual(ctor(p), system))
        return worst

    def away(p, i, gap=0.3):
        p[i] = np.sign(p[i] or 1.0) * (abs(p[i]) + gap)

    checks.append(("W_family_11", family_worst(
        fixtures.W_family_11, 11, C_inj,
        lambda p: (away(p, 0), away(p, 10))), 1e-10))
    checks.append(("W_family_12", family_worst(
        fixtures.W_family_12, 12, C_inj, lambda p: away(p, 7)), 1e-10))
    checks.append(("restriction_W1", family_worst(
        fixtures.restriction_W1, 6, C_rest), 1e-10))
    checks.append(("restriction_W2", family_worst(
        fixtures.restriction_W2, 5, C_rest, lambda p: away(p, 0)), 1e-10))
    checks.append(("restriction_W3", family_worst(
        fixtures.restriction_W3, 4, C_rest), 1e-10))
    checks.append(("restriction_W7", family_worst(
        fixtures.restriction_W7, 4, C_rest), 1e-10))
    checks.append(("restriction_W10", family_worst(
        fixtures.restriction_W10, 3, C_rest), 1e-10))
    eq = np.max(np.abs(
        fixtures.W_family_12(fixtures.delta_canonical()).W
        - fixtures.W_canonical().W))
    checks.append(("W12-canonical-substitution", float(eq), 0.0))
    # the batched coordinate map against the closed-form fixture maps:
    # the canonical embedding, and restriction_W3 with a1 = a3 = 0, where
    # the fixture map has no constant offset
    w = rng.uniform(-0.5, 0.5, (16, 3))
    got = homo.coordinate_map_batch(fixtures.W_canonical(), w)
    want = np.array([fixtures.phi_canonical(p).values for p in w])
    checks.append(("canonical-embedding-integration",
                   float(np.max(np.abs(got - want))), 1e-8))
    a = np.array([0.0, rng.uniform(-1.0, 1.0), 0.0, rng.uniform(-1.0, 1.0)])
    x = rng.uniform(-0.5, 0.5, (16, 9))
    got = homo.coordinate_map_batch(fixtures.restriction_W3(a), x)
    want = np.array([fixtures.phi_restriction_W3(a, p).values for p in x])
    checks.append(("restriction-W3-integration",
                   float(np.max(np.abs(got - want))), 1e-8))
    return checks


_SUITES = {
    "core": _suite_core,
    "isometry": _suite_isometry,
    "appendix": _suite_appendix,
}


def cmd_verify(args):
    scope = args.scope or "all"
    names = list(_SUITES) if scope == "all" else [scope]
    if scope != "all" and scope not in _SUITES:
        raise SystemExit2(f"unknown scope {scope!r}")
    report = []
    ok = True
    for name in names:
        checks = _SUITES[name](args.seed)
        suite_pass = all(res <= tol for _, res, tol in checks)
        ok = ok and suite_pass
        report.append({
            "suite": name,
            "checks": [
                {"name": cname, "max_residual": float(res),
                 "tolerance": tol, "pass": bool(res <= tol)}
                for cname, res, tol in checks
            ],
            "max_residual": float(max(res for _, res, _ in checks)),
            "pass": suite_pass,
        })
    _write_json(args.out, {"suites": report, "pass": ok, "seed": args.seed})
    if not ok:
        failing = [c["name"] for s in report for c in s["checks"]
                   if not c["pass"]]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# solve-homo
# ---------------------------------------------------------------------------


def cmd_solve_homo(args):
    cfg = _load_config(args.config, ("source", "target", "seeds"))
    try:
        source = homo.mc_for_name(cfg["source"])
        target = homo.mc_for_name(cfg["target"])
    except (KeyError, ValueError) as exc:
        raise SystemExit2(f"bad algebra spec: {exc}")
    seeds = cfg.get("seeds", 8)
    if _integer(seeds, "seeds") < 1:
        raise SystemExit2(f"seeds must be an integer >= 1, got {seeds!r}")
    system = homo.build_constraints(source, target)
    sols = homo.solve_numeric(system, seeds=seeds, seed=args.seed)
    _write_json(args.out, {
        "source": source.name,
        "target": target.name,
        "seed": args.seed,
        "solutions": [
            {
                "W": [[float(v) for v in row] for row in s.W],
                "residual": float(s.residual),
                "branch_tag": s.branch_tag,
            }
            for s in sols
        ],
    })
    return 0


# ---------------------------------------------------------------------------
# gen-data / train / eval
# ---------------------------------------------------------------------------


def cmd_gen_data(args):
    cfg = _load_config(args.config,
                       ("kind", "n", "dim", "classes", "spread"))
    try:
        ds = train.gen_synthetic(
            kind=cfg.get("kind", "blobs"),
            n=_integer(cfg["n"], "n"),
            dim=_integer(cfg["dim"], "dim"),
            seed=args.seed,
            classes=_integer(cfg.get("classes", 2), "classes"),
            spread=_number(cfg.get("spread", 0.6), "spread"),
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit2(f"bad gen-data config: {exc}")
    if args.out is None:
        raise SystemExit2("gen-data requires --out")
    train.save_csv(args.out, ds)
    return 0


def _net_config_from(cfg):
    doc = _object(cfg["net"], "net", ("layers", "input_dim", "task", "K"))
    if not isinstance(doc["layers"], list):
        raise SystemExit2(f"net.layers must be a list, got {doc['layers']!r}")
    layers = tuple(
        net.LayerSpec(spaces.hyperbolic(_integer(n, "net.layers entry")))
        for n in doc["layers"]
    )
    return net.NetworkConfig(
        input_dim=_integer(doc["input_dim"], "net.input_dim"),
        layers=layers,
        task=doc.get("task", "multiclass"),
        K=None if doc.get("K") is None else _integer(doc["K"], "net.K"),
    )


def cmd_train(args):
    if args.out is None:
        raise SystemExit2("train requires --out")
    cfg = _load_config(args.config,
                       ("net", "train", "dataset", "metrics_out"))
    try:
        config = _net_config_from(cfg)
        tcfg = _object(cfg.get("train", {}), "train", (
            "learning_rate", "epochs", "batch_size", "gradient_mode"))
        # configs written when there were two gradient modes may still
        # name the one that is left
        if tcfg.get("gradient_mode", "analytic") != "analytic":
            raise SystemExit2("train.gradient_mode must be 'analytic', got "
                              f"{tcfg['gradient_mode']!r}")
        tc = train.TrainConfig(
            learning_rate=_number(tcfg.get("learning_rate", 0.01),
                                  "train.learning_rate"),
            epochs=_integer(tcfg.get("epochs", 20), "train.epochs"),
            batch_size=_integer(tcfg.get("batch_size", 32),
                                "train.batch_size"),
            seed=args.seed,
        )
        dataset = train.load_csv(_path(cfg["dataset"], "dataset"))
        train.check_dataset(config, dataset)
        metrics_path = _writable(_path(
            cfg.get("metrics_out", str(args.out) + ".metrics.jsonl"),
            "metrics_out"), "metrics_out")
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit2(f"bad train config: {exc}")
    params, history = train.train_loop(tc, config, dataset)
    net.save_model(args.out, config, params)
    with open(metrics_path, "w") as fh:
        for rec in history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    final = history[-1] if history else {}
    _write_json(None, {"final": final, "epochs_run": len(history)})
    return 0


def cmd_eval(args):
    cfg = _load_config(args.config, ("model", "dataset"))
    try:
        config, params = net.load_model(_path(cfg["model"], "model"))
        dataset = train.load_csv(_path(cfg["dataset"], "dataset"))
        train.check_data(config, dataset)
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit2(f"bad eval config: {exc}")
    metrics = train.evaluate(config, params, dataset)
    _write_json(args.out, metrics)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _seed(text):
    """A ``--seed`` value: an integer >= 0, the seeds numpy accepts.
    Anything else exits 2 through argparse."""
    message = f"must be an integer >= 0, got {text!r}"
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if seed < 0:
        raise argparse.ArgumentTypeError(message)
    return seed


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing only reads
    it and returns a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="cartannet",
        description="Cartan networks on solvable symmetric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {"--config": {}, "--seed": {"type": _seed, "default": 0},
               "--out": {}, "--scope": {}}
    # each subcommand declares only the flags it reads
    for name, fn, flags in (
        ("verify", cmd_verify, ("--scope", "--seed", "--out")),
        ("solve-homo", cmd_solve_homo, ("--config", "--seed", "--out")),
        ("gen-data", cmd_gen_data, ("--config", "--seed", "--out")),
        ("train", cmd_train, ("--config", "--seed", "--out")),
        ("eval", cmd_eval, ("--config", "--out")),
    ):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out is not None:
            _writable(args.out, "--out")
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (spaces.FactorizationError, spaces.CartanBoundError,
            classify.DegenerateSeparatorError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
