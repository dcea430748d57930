"""Command-line interface: verification suites, homomorphism solving,
data generation, training, and evaluation.

All outputs are deterministic for a given seed: JSON documents are written
with sorted keys and contain no timestamps, so reruns are byte-identical.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
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


def _load_config(path):
    if path is None:
        raise SystemExit2("--config is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read config {path}: {exc}")


class SystemExit2(Exception):
    """Usage / configuration error (exit code 2)."""


def _integer(value, name):
    """``value`` if it is a JSON integer.  Floats, null, strings and bools
    are refused with exit code 2 rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SystemExit2(f"{name} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_core(seed):
    rng = np.random.default_rng(seed)
    checks = []
    for space in (SpaceId.so(1, 1), SpaceId.so(1, 2), SpaceId.so(1, 4),
                  SpaceId.sl(4)):
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
    # the batched r=1 fiber kernel against the single-point Crout pipeline,
    # kept to |coords| <= 1 where that oracle is accurate
    for n in (5, 17):
        space = spaces.hyperbolic(n)
        gens = isometry.build_fiber_generators(space)
        err = 0.0
        for _ in range(50):
            x = rng.uniform(-1, 1, space.dim)
            angles = rng.uniform(-np.pi, np.pi, space.fiber_dim)
            want = SolvCoords(space, x)
            for gen, angle in zip(gens, angles):
                want = isometry.isometry_action(
                    isometry.fiber_rotation(gen, angle), want)
            got = isometry.fiber_rotate(space, x, angles)
            err = max(err, float(np.max(np.abs(got - want.values))))
        checks.append((f"fiber-kernel[H{n}]", err, 1e-10))
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
    w = rng.uniform(-0.5, 0.5, 3)
    got = homo.integrate_coordinate_map(
        fixtures.W_canonical(), SolvCoords(SpaceId.so(1, 2), w))
    err = float(np.max(np.abs(got.values - fixtures.phi_canonical(w).values)))
    checks.append(("canonical-embedding-integration", err, 1e-8))
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
    cfg = _load_config(args.config)
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
    cfg = _load_config(args.config)
    try:
        ds = train.gen_synthetic(
            kind=cfg.get("kind", "blobs"),
            n=_integer(cfg["n"], "n"),
            dim=_integer(cfg["dim"], "dim"),
            seed=args.seed,
            classes=_integer(cfg.get("classes", 2), "classes"),
            spread=float(cfg.get("spread", 0.6)),
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit2(f"bad gen-data config: {exc}")
    if args.out is None:
        raise SystemExit2("gen-data requires --out")
    train.save_csv(args.out, ds)
    return 0


def _net_config_from(cfg):
    doc = cfg["net"]
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
    cfg = _load_config(args.config)
    try:
        config = _net_config_from(cfg)
        tcfg = cfg.get("train", {})
        tc = train.TrainConfig(
            learning_rate=float(tcfg.get("learning_rate", 0.01)),
            epochs=_integer(tcfg.get("epochs", 20), "train.epochs"),
            batch_size=_integer(tcfg.get("batch_size", 32),
                                "train.batch_size"),
            seed=args.seed,
            gradient_mode=tcfg.get("gradient_mode", "analytic"),
            fd_step=float(tcfg.get("fd_step", 1e-5)),
        )
        dataset = train.load_csv(cfg["dataset"])
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit2(f"bad train config: {exc}")
    params, history = train.train_loop(tc, config, dataset)
    net.save_model(args.out, config, params)
    metrics_path = cfg.get("metrics_out", str(args.out) + ".metrics.jsonl")
    with open(metrics_path, "w") as fh:
        for rec in history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    final = history[-1] if history else {}
    _write_json(None, {"final": final, "epochs_run": len(history)})
    return 0


def cmd_eval(args):
    cfg = _load_config(args.config)
    try:
        config, params = net.load_model(cfg["model"])
        dataset = train.load_csv(cfg["dataset"])
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit2(f"bad eval config: {exc}")
    metrics = train.evaluate(config, params, dataset)
    _write_json(args.out, metrics)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cartannet",
        description="Cartan networks on solvable symmetric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("verify", cmd_verify),
        ("solve-homo", cmd_solve_homo),
        ("gen-data", cmd_gen_data),
        ("train", cmd_train),
        ("eval", cmd_eval),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--scope", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
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
