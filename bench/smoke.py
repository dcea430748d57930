#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the root of a checkout (takes about a minute):

    python3 bench/smoke.py

It checks that
- every workload runs at a tiny length, with and without tracing, and
  prints exactly the metric names and units declared in BENCHMARK.json;
- a deliberately wrong result (a perturbed fixture W, a perturbed network
  output, an unreachable accuracy floor) is counted as failed, and its
  time is kept out of the latency samples;
- a traced function that no longer exists is reported as absent;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_names(problems, spec):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            proc = run_bench(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: not correct: {proc.stdout}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{where}: metrics {printed} != declared {declared}")
            if trace == 0 and not all(
                    isinstance(v["value"], float) and v["value"] > 0
                    for v in result["metrics"].values()):
                problems.append(f"{where}: a metric is missing or not positive")


def check_wrong_results_fail(problems):
    import hostspeed
    import workloads
    from cartannet import homo

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        tmp = Path(tmp)

        wl = workloads.HomoGeometry(0, tmp)
        W = wl.W.W.copy()
        W[3, 1] += 1e-3
        wl.W = homo.HomoMatrix(W=W, source=wl.W.source, target=wl.W.target)
        tally = workloads.Tally(hostspeed.Probe(wl.REFERENCE))
        wl.round(tally)
        if tally.failed != 1 or tally.task_ms:
            problems.append(f"perturbed W: failed={tally.failed}, "
                            f"integration samples={tally.task_ms}")

        wl = workloads.InferWide(0, tmp)
        forward = workloads.net.forward_batch
        workloads.net.forward_batch = lambda *a: forward(*a) * (1.0 + 1e-9)
        try:
            tally = workloads.Tally(hostspeed.Probe(wl.REFERENCE))
            wl.round(tally)
        finally:
            workloads.net.forward_batch = forward
        if tally.failed != wl.BATCHES or tally.op_ms or tally.items:
            problems.append(f"perturbed network output: failed={tally.failed}, "
                            f"batch samples={tally.op_ms}, points={tally.items}")

        wl = workloads.TrainBlobs4(0, tmp)
        wl.accuracy_floor = 1.01
        tally = workloads.Tally(hostspeed.Probe(wl.REFERENCE))
        wl.round(tally)
        if tally.failed != wl.EPOCHS or tally.op_ms or tally.items:
            problems.append(f"unreachable accuracy floor: failed={tally.failed}, "
                            f"epoch samples={tally.op_ms}")


def check_absent_function(problems):
    import tracer

    listed = tracer.FUNCTIONS
    tracer.FUNCTIONS = listed + (("cartannet.net", "renamed_away"),)
    try:
        tr = tracer.Tracer()
        tr.install()
        tr.uninstall()
        metrics = tracer.per_layer_metrics(tr, [1.0], [1.0])
    finally:
        tracer.FUNCTIONS = listed
    if tr.absent != ["net.renamed_away"] or metrics["net.renamed_away.calls"] != (0, "count"):
        problems.append(f"absent function: absent={tr.absent}")


def check_bare_directory(problems):
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "homo-geometry", 0)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        if proc.returncode == 0 or printed_result:
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}")


def main():
    # The in-process checks import the benchmark's modules, as run.py does.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    check_bare_directory(problems)
    check_wrong_results_fail(problems)
    check_absent_function(problems)
    check_names(problems, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
