#!/usr/bin/env python3
"""cartannet benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload train-blobs4 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
library's functions from outside and reports the per-layer metrics and
the tracing overhead.  End-to-end times are scaled to the speed of a
reference host (see ``hostspeed.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment, how each metric
was sampled and the raw, unscaled medians.

The package is imported from ``src/`` of the checkout; nothing is
installed.  Scratch files go to ``.bench_build/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes whose set-up is timed, the run's own included; setup_s
# is the median of their set-up times, each scaled by a host-speed probe
# taken right after it.
SETUP_SAMPLES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-blobs4", "infer-wide", "homo-geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, but
    never below the median; returns (value, percentile)."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def _openblas():
    """Configuration and thread count of every OpenBLAS loaded here."""
    import ctypes

    out = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["config"] = config().decode()
                    info["threads"] = threads()
        out.append(info)
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed, load_avg, cpus):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": cpus[-1],
        "cpu_model": _cpu_model(),
        "seed": seed,
        "loadavg_at_start": list(load_avg),
    }


def setup_sample(args):
    """Set-up time of one fresh process, imports plus building the inputs:
    (scaled, raw) seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["raw_setup_s"]


def build(args, workload_cls, workdir, t0):
    """Build the workload and probe the host right after; returns the
    workload, the probe and the (scaled, raw) set-up seconds."""
    import hostspeed

    workload = workload_cls(args.seed, workdir)
    seconds = time.perf_counter() - t0
    probe = hostspeed.Probe(workload.REFERENCE)
    return workload, probe, (seconds * probe.nominal_ms / probe.last_ms, seconds)


def run_rounds(workload, tally, seconds):
    """Repeat rounds until ``seconds`` have passed, at least one round;
    returns how many ran."""
    t0 = time.perf_counter()
    done = 0
    while True:
        workload.round(tally)
        done += 1
        if time.perf_counter() - t0 >= seconds:
            return done


def _median(xs):
    return statistics.median(xs) if xs else None


def untraced(args, workload_cls, workdir, t0):
    from workloads import Tally

    workload, probe, setup = build(args, workload_cls, workdir, t0)
    setup_samples = [setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    tally = Tally(probe)
    rounds = run_rounds(workload, tally, args.seconds)
    op_tail, op_pct = tail(tally.op_ms) if tally.op_ms else (None, None)
    metrics = {
        "setup_s": (_median([s for s, _ in setup_samples]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (tally.items / tally.item_s if tally.items else None, "1/s"),
        "op_ms_p50": (_median(tally.op_ms), "ms"),
        "op_ms_tail": (op_tail, "ms"),
        "task_ms_p50": (_median(tally.task_ms), "ms"),
    }
    detail = {
        "rounds": rounds, "setup_samples_s": [s for s, _ in setup_samples],
        "op": workload.op, "op_samples": len(tally.op_ms),
        "op_tail_percentile": op_pct,
        "task": workload.task, "task_samples": len(tally.task_ms),
        "item": workload.item, "items": tally.items,
        "raw": {
            "setup_samples_s": [r for _, r in setup_samples],
            "setup_s": _median([r for _, r in setup_samples]),
            "items_per_s": tally.items / tally.raw_item_s if tally.items else None,
            "op_ms_p50": _median(tally.raw_op_ms),
            "task_ms_p50": _median(tally.raw_task_ms),
        },
        "reference": {
            "kernel": workload.REFERENCE, "nominal_ms": probe.nominal_ms,
            "probes": len(probe.samples_ms),
            "ms_quartiles": statistics.quantiles(probe.samples_ms, n=4),
        },
        **getattr(workload, "detail", {}),
    }
    return metrics, detail, [tally]


def traced(args, workload_cls, workdir, t0):
    import tracer as tracing
    from workloads import Tally

    tr = tracing.Tracer()
    tr.install()
    try:
        workload, probe, _ = build(args, workload_cls, workdir, t0)
    finally:
        tr.uninstall()
    warm, plain, spanned = Tally(probe), Tally(probe), Tally(probe)
    run_rounds(workload, warm, args.seconds / 2.0)
    # Traced rounds alternate with untraced ones, so that the overhead
    # compares rounds run close together in time.
    for _ in range(workload.TRACE_ROUNDS):
        workload.round(plain)
        tr.install()
        try:
            workload.round(spanned)
        finally:
            tr.uninstall()
    spans_path = BUILD / f"spans-{args.workload}.csv"
    tr.write(spans_path)
    metrics = tracing.per_layer_metrics(tr, spanned.task_ms, plain.task_ms)
    detail = {"absent": tr.absent, "spans": len(tr.span_name),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "untraced_tasks": len(plain.task_ms),
              "traced_tasks": len(spanned.task_ms)}
    return metrics, detail, [warm, plain, spanned]


def main(argv=None):
    t0 = time.perf_counter()
    args = parse_args(argv)
    # Pinned before numpy is imported, so OpenBLAS starts one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The whole run, set-up probes included, stays on one CPU: the vCPUs of
    # a small VM can run at different speeds, and a process that migrates
    # between them changes speed in the middle of an operation.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    src = ROOT / "src"
    if not (src / "cartannet" / "__init__.py").is_file():
        print(f"error: no cartannet package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    load_avg = os.getloadavg()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        if args.setup_only:
            _, _, (scaled, raw) = build(args, workload_cls, workdir, t0)
            print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
            return 0
        run = traced if args.trace else untraced
        metrics, detail, tallies = run(args, workload_cls, workdir, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {name: (value if value is not None and math.isfinite(value) else None, unit)
               for name, (value, unit) in metrics.items()}
    correct = failed == 0 and all(v is not None for v, _ in metrics.values())
    detail.update({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "failed_share": failed / attempted if attempted else None,
        "failures": [f for t in tallies for f in t.failures],
        "env": environment(args.seed, load_avg, cpus),
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
