"""Outside-in tracing: spans around calls into the cartannet modules.

The tracer replaces module attributes with timing wrappers inside the
benchmark's own process; nothing under ``src/`` is edited.  A call made
through the module attribute (``net.forward_batch(...)``) or through the
module's globals (``spaces.sigma`` calling ``r1_matrix``) is recorded.  A
name bound earlier with ``from module import name`` is not.

Spans stay in memory as parallel arrays (name, parent, start, end, work)
and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import functools
import statistics
import time

import numpy as np

# (module path, attribute) of every traced function, grouped by layer.
FUNCTIONS = (
    ("cartannet.train", "gradient"),
    ("cartannet.train", "loss_flat"),
    ("cartannet.train", "train_loop"),
    ("cartannet.train", "load_csv"),
    ("cartannet.train", "project_admissible"),
    ("cartannet.net", "forward_batch"),
    ("cartannet.net", "unflatten"),
    ("cartannet.net", "flatten"),
    ("cartannet.net", "save_model"),
    ("cartannet.net", "load_model"),
    ("cartannet.isometry", "_action_matrix_batch"),
    ("cartannet.isometry", "isometry_action"),
    ("cartannet.isometry", "fiber_rotation"),
    ("cartannet.spaces", "cholesky_crout_matrix"),
    ("cartannet.spaces", "r1_matrix"),
    ("cartannet.spaces", "r1_coords_from_matrix"),
    ("cartannet.spaces", "sl_matrix"),
    ("cartannet.spaces", "sigma"),
    ("cartannet.spaces", "sigma_inv"),
    ("cartannet.spaces", "cholesky_crout"),
    ("cartannet.spaces", "coords_distance"),
    ("cartannet.spaces", "group_product"),
    ("cartannet.classify", "signed_distance"),
    ("cartannet.classify", "softmax_probs"),
    ("cartannet.classify", "multiclass_nll"),
    ("cartannet.homo", "solve_numeric"),
    ("cartannet.homo", "coframe"),
    ("cartannet.homo", "integrate_coordinate_map"),
    ("cartannet.homo", "residual"),
    ("cartannet.homo", "borel_mc"),
    ("cartannet.cli", "main"),
    ("scipy.linalg", "expm"),
)


def _rows(a):
    shape = getattr(a, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _stack_size(a, core):
    shape = getattr(a, "shape", ())
    n = 1
    for s in shape[: max(len(shape) - core, 0)]:
        n *= int(s)
    return n


def _changed(args, result):
    return float(not np.array_equal(args[1].vector, result.vector))


# Work counted per call, from the arguments and the result: name -> f(args, result).
WORK = {
    "net.forward_batch": lambda args, result: _rows(args[2]),
    "isometry._action_matrix_batch": lambda args, result: _stack_size(args[2], 1),
    "spaces.cholesky_crout_matrix": lambda args, result: _stack_size(args[0], 2),
    "homo.solve_numeric": lambda args, result: len(result),
    "train.project_admissible": _changed,
}


def short_name(module_path, attr):
    """Metric prefix of a traced function: ``net.forward_batch``,
    ``scipy.linalg.expm``."""
    if module_path.startswith("cartannet."):
        module_path = module_path[len("cartannet."):]
    return f"{module_path}.{attr}"


def _modules():
    import importlib

    return {path: importlib.import_module(path)
            for path in {m for m, _ in FUNCTIONS} | {"cartannet.fixtures"}}


class Tracer:
    """Records one span per call of each listed function while installed."""

    def __init__(self):
        modules = _modules()
        self.names = []
        self.targets = []  # (module, attr, original, name id)
        self.absent = []
        fixtures = modules["cartannet.fixtures"]
        listed = [(modules[m], m, a) for m, a in FUNCTIONS]
        listed += [(fixtures, "cartannet.fixtures", a)
                   for a in sorted(getattr(fixtures, "__all__", ()))
                   if callable(getattr(fixtures, a, None))]
        for module, path, attr in listed:
            name = short_name(path, attr)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self.targets.append((module, attr, original, len(self.names)))
            self.names.append(name)
        self.name_of = {n: i for i, n in enumerate(self.names)}
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_work = array.array("d")
        self._stack = []
        self._installed = False

    # -- installation ------------------------------------------------------

    def install(self):
        if self._installed:
            return
        for module, attr, original, nid in self.targets:
            setattr(module, attr, self._wrap(original, nid))
        self._installed = True

    def uninstall(self):
        if not self._installed:
            return
        for module, attr, original, _ in self.targets:
            setattr(module, attr, original)
        self._installed = False

    def _wrap(self, fn, nid):
        work = WORK.get(self.names[nid])
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, works = self.span_start, self.span_end, self.span_work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            works.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if work is not None:
                try:
                    works[sid] = work(args, result)
                except (IndexError, AttributeError, TypeError):
                    pass  # signature changed: the call still counts, its work does not
            return result

        return traced

    # -- results -----------------------------------------------------------

    def _has_ancestor(self, sid, nid):
        p = self.span_parent[sid]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def summary(self):
        """Per-function calls, self time (ms), span durations (ms) and work."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        work = [0.0] * n
        durations = [[] for _ in range(n)]
        child = [0.0] * len(self.span_name)
        for sid in range(len(self.span_name)):
            dur = self.span_end[sid] - self.span_start[sid]
            p = self.span_parent[sid]
            if p >= 0:
                child[p] += dur
        for sid in range(len(self.span_name)):
            nid = self.span_name[sid]
            dur = self.span_end[sid] - self.span_start[sid]
            calls[nid] += 1
            self_s[nid] += dur - child[sid]
            work[nid] += self.span_work[sid]
            durations[nid].append(1000.0 * dur)
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": calls[nid], "self_ms": 1000.0 * self_s[nid],
                         "work": work[nid], "durations_ms": durations[nid]}
        return out

    def nested_count(self, inner, outer):
        """Spans of ``inner`` that run inside a span of ``outer``."""
        if inner not in self.name_of or outer not in self.name_of:
            return 0
        i, o = self.name_of[inner], self.name_of[outer]
        return sum(1 for sid in range(len(self.span_name))
                   if self.span_name[sid] == i and self._has_ancestor(sid, o))

    def write(self, path):
        """Write every span as CSV: id, parent, name, start_s, end_s, work."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,work\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid},{self.span_parent[sid]},"
                         f"{self.names[self.span_name[sid]]},"
                         f"{self.span_start[sid]!r},{self.span_end[sid]!r},"
                         f"{self.span_work[sid]!r}\n")


def per_layer_metrics(tracer, traced_task_ms, untraced_task_ms):
    """The per-layer metrics of the traced run: name -> (value, unit)."""
    s = tracer.summary()

    def stat(name, key):
        return s[name][key] if name in s else 0

    def ratio(num, den):
        return num / den if den else 0

    metrics = {}
    for module_path, attr in FUNCTIONS:
        name = short_name(module_path, attr)
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count")
        metrics[f"{name}.self_ms"] = (stat(name, "self_ms"), "ms")
    grad_calls = stat("train.gradient", "calls")
    metrics["train.gradient.ms_p50"] = (
        statistics.median(s["train.gradient"]["durations_ms"]) if grad_calls else 0,
        "ms")
    metrics["train.gradient.forwards_per_call"] = (ratio(
        tracer.nested_count("net.forward_batch", "train.gradient"), grad_calls),
        "count")
    metrics["train.project_admissible.changed_share"] = (ratio(
        stat("train.project_admissible", "work"),
        stat("train.project_admissible", "calls")), "share")
    metrics["net.forward_batch.points"] = (stat("net.forward_batch", "work"), "count")
    metrics["isometry._action_matrix_batch.points"] = (
        stat("isometry._action_matrix_batch", "work"), "count")
    metrics["spaces.cholesky_crout_matrix.matrices"] = (
        stat("spaces.cholesky_crout_matrix", "work"), "count")
    metrics["homo.solve_numeric.solutions"] = (
        stat("homo.solve_numeric", "work"), "count")
    metrics["homo.coframe.per_integration"] = (ratio(
        tracer.nested_count("homo.coframe", "homo.integrate_coordinate_map"),
        stat("homo.integrate_coordinate_map", "calls")), "count")
    metrics["fixtures.self_ms"] = (sum(
        v["self_ms"] for k, v in s.items() if k.startswith("fixtures.")), "ms")
    if traced_task_ms and untraced_task_ms:
        traced = statistics.median(traced_task_ms)
        untraced = statistics.median(untraced_task_ms)
        overhead = (traced - untraced, (traced - untraced) / untraced)
    else:
        overhead = (None, None)
    metrics["trace.overhead_ms"] = (overhead[0], "ms")
    metrics["trace.overhead_share"] = (overhead[1], "share")
    return metrics
