"""Per-layer timing for the traced run, recorded from outside the program.

`instrumented(tracer)` rebinds public functions of the zids modules to
timing wrappers and puts the originals back on exit. Code inside the
package looks those names up through the module at call time, so internal
calls are timed too: `mlp.train` -> `optimizer_step`, `predict` and the
explain model function -> `forward`, `kernel_shap` ->
`enumerate_or_sample_coalitions`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from collections import defaultdict


class Tracer:
    """Durations and counters per span name.

    A span's self time is its total time minus the time of the spans that
    were opened while it was the innermost open span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = defaultdict(list)  # name -> one duration per span
        self.child = defaultdict(float)  # (parent, name) -> seconds
        self.counts = defaultdict(float)
        self.stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.current()
        self.stack.append(name)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self.stack.pop()
            self.credit(name, elapsed, parent)

    def current(self):
        return self.stack[-1] if self.stack else None

    def credit(self, name: str, seconds: float, parent) -> None:
        """Record a finished span of `seconds` opened under `parent`."""
        self.samples[name].append(seconds)
        if parent is not None:
            self.child[(parent, name)] += seconds

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def self_time(self, name: str) -> float:
        covered = sum(s for (parent, _), s in self.child.items() if parent == name)
        return self.total(name) - covered


def _timed(name: str, count=None):
    """Wrapper factory: one span per call, then `count(tracer, args, result)`."""

    def wrap(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    return wrap


def _traced_iter_kdd(tracer: Tracer, fn):
    """Busy time inside next() of the record stream, credited once per pass.

    A span per record would cost more than the parse it measures.
    """

    @functools.wraps(fn)
    def wrapper(stream):
        parent = tracer.current()
        clock = tracer.clock
        records = 0
        busy = 0.0
        it = fn(stream)
        try:
            while True:
                start = clock()
                try:
                    record = next(it)
                except StopIteration:
                    busy += clock() - start
                    return
                busy += clock() - start
                records += 1
                yield record
        finally:
            tracer.credit("dataset.iter_kdd", busy, parent)
            tracer.counts["dataset.iter_kdd.records"] += records

    return wrapper


def _count_forward(tracer, args, result):
    model, x = args[0], args[1]
    rows = len(x)
    macs = sum(a * b for a, b in zip(model.dims[:-1], model.dims[1:]))
    tracer.counts["mlp.forward.rows"] += rows
    tracer.counts["mlp.forward.gflop"] += 2.0 * rows * macs / 1e9
    if "shap.kernel_shap" in tracer.stack:
        tracer.counts["shap.model_rows"] += rows


def _count_step_rows(tracer, args, result):
    tracer.counts["mlp.optimizer_step.rows"] += len(args[1])


def _count_file_bytes(key):
    def count(tracer, args, result):
        tracer.counts[key] += os.path.getsize(args[0])

    return count


def _count_coalitions(tracer, args, result):
    tracer.counts["shap.coalitions.count"] += len(result)


# (module, attribute, wrapper factory). Only names the CLI or the package
# itself reaches through a module attribute can be traced this way.
WRAPPED = (
    ("zids.cli", "cmd_prepare", _timed("cli.prepare")),
    ("zids.cli", "cmd_train", _timed("cli.train")),
    ("zids.cli", "cmd_evaluate", _timed("cli.evaluate")),
    ("zids.cli", "cmd_explain", _timed("cli.explain")),
    ("zids.dataset", "iter_kdd", _traced_iter_kdd),
    ("zids.preprocess", "split_indices", _timed("preprocess.split_indices")),
    ("zids.preprocess", "fit_scaling", _timed("preprocess.scaling")),
    ("zids.preprocess", "apply_scaling", _timed("preprocess.scaling")),
    ("zids.preprocess", "write_container", _timed(
        "preprocess.write_container",
        _count_file_bytes("preprocess.write_container.bytes"))),
    # read_container() calls this too, so one wrapper sees every read.
    ("zids.preprocess", "read_container_columns", _timed(
        "preprocess.read_container",
        _count_file_bytes("preprocess.read_container.bytes"))),
    ("zids.mlp", "train", _timed("mlp.train")),
    ("zids.mlp", "optimizer_step", _timed("mlp.optimizer_step", _count_step_rows)),
    ("zids.mlp", "forward", _timed("mlp.forward", _count_forward)),
    ("zids.mlp", "save", _timed("mlp.io")),
    ("zids.mlp", "load", _timed("mlp.io")),
    ("zids.shap", "kernel_shap", _timed("shap.kernel_shap")),
    ("zids.shap", "enumerate_or_sample_coalitions", _timed(
        "shap.coalitions", _count_coalitions)),
    ("zids.metrics", "confusion", _timed("metrics")),
    ("zids.metrics", "report", _timed("metrics")),
    ("zids.metrics", "render_report", _timed("metrics")),
    ("zids.metrics", "render_confusion_csv", _timed("metrics")),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the WRAPPED functions through `tracer` until the block exits."""
    saved = []
    try:
        for module_name, attr, wrap in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _quantile_ms(samples, q: int) -> float:
    if len(samples) < 2:
        return 1000.0 * sum(samples)
    return 1000.0 * statistics.quantiles(samples, n=100)[q - 1]


# name -> (unit, better); the per_layer list of BENCHMARK.json, in order.
LAYER_METRICS = {
    "dataset.iter_kdd.records": ("count", "lower"),
    "dataset.iter_kdd.s": ("s", "lower"),
    "dataset.iter_kdd.us_per_record": ("us", "lower"),
    "cli.prepare.self_s": ("s", "lower"),
    "cli.train.self_s": ("s", "lower"),
    "cli.evaluate.self_s": ("s", "lower"),
    "cli.explain.self_s": ("s", "lower"),
    "preprocess.split_indices.s": ("s", "lower"),
    "preprocess.scaling.s": ("s", "lower"),
    "preprocess.write_container.s": ("s", "lower"),
    "preprocess.write_container.bytes": ("bytes", "lower"),
    "preprocess.read_container.s": ("s", "lower"),
    "preprocess.read_container.bytes": ("bytes", "lower"),
    "mlp.train.self_s": ("s", "lower"),
    "mlp.optimizer_step.calls": ("count", "lower"),
    "mlp.optimizer_step.rows": ("count", "lower"),
    "mlp.optimizer_step.s": ("s", "lower"),
    "mlp.optimizer_step.p50_ms": ("ms", "lower"),
    "mlp.optimizer_step.p99_ms": ("ms", "lower"),
    "mlp.forward.calls": ("count", "lower"),
    "mlp.forward.rows": ("count", "lower"),
    "mlp.forward.s": ("s", "lower"),
    "mlp.forward.rows_per_s": ("rows/s", "higher"),
    "mlp.forward.gflop": ("GFLOP", "lower"),
    "mlp.io.s": ("s", "lower"),
    "shap.coalitions.count": ("count", "lower"),
    "shap.coalitions.s": ("s", "lower"),
    "shap.kernel_shap.s": ("s", "lower"),
    "shap.kernel_shap.self_s": ("s", "lower"),
    "shap.model_rows": ("count", "lower"),
    "shap.forward_share": ("ratio", "lower"),
    "metrics.s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, iterations: int, cpu_s: float,
                  overhead_s: float) -> dict[str, float]:
    """Per-iteration values of LAYER_METRICS from a tracer that saw
    `iterations` passes of a workload's timed commands. A layer the
    workload does not reach reads 0."""
    t, n = tracer, iterations
    records = t.counts["dataset.iter_kdd.records"]
    parse_s = t.total("dataset.iter_kdd")
    forward_s = t.total("mlp.forward")
    shap_s = t.total("shap.kernel_shap")
    steps = t.samples.get("mlp.optimizer_step", [])
    return {
        "dataset.iter_kdd.records": records / n,
        "dataset.iter_kdd.s": parse_s / n,
        "dataset.iter_kdd.us_per_record": 1e6 * parse_s / records if records else 0.0,
        "cli.prepare.self_s": t.self_time("cli.prepare") / n,
        "cli.train.self_s": t.self_time("cli.train") / n,
        "cli.evaluate.self_s": t.self_time("cli.evaluate") / n,
        "cli.explain.self_s": t.self_time("cli.explain") / n,
        "preprocess.split_indices.s": t.total("preprocess.split_indices") / n,
        "preprocess.scaling.s": t.total("preprocess.scaling") / n,
        "preprocess.write_container.s": t.total("preprocess.write_container") / n,
        "preprocess.write_container.bytes": t.counts["preprocess.write_container.bytes"] / n,
        "preprocess.read_container.s": t.total("preprocess.read_container") / n,
        "preprocess.read_container.bytes": t.counts["preprocess.read_container.bytes"] / n,
        "mlp.train.self_s": t.self_time("mlp.train") / n,
        "mlp.optimizer_step.calls": len(steps) / n,
        "mlp.optimizer_step.rows": t.counts["mlp.optimizer_step.rows"] / n,
        "mlp.optimizer_step.s": sum(steps) / n,
        "mlp.optimizer_step.p50_ms": _quantile_ms(steps, 50),
        "mlp.optimizer_step.p99_ms": _quantile_ms(steps, 99),
        "mlp.forward.calls": t.calls("mlp.forward") / n,
        "mlp.forward.rows": t.counts["mlp.forward.rows"] / n,
        "mlp.forward.s": forward_s / n,
        "mlp.forward.rows_per_s": t.counts["mlp.forward.rows"] / forward_s if forward_s else 0.0,
        "mlp.forward.gflop": t.counts["mlp.forward.gflop"] / n,
        "mlp.io.s": t.total("mlp.io") / n,
        "shap.coalitions.count": t.counts["shap.coalitions.count"] / n,
        "shap.coalitions.s": t.total("shap.coalitions") / n,
        "shap.kernel_shap.s": shap_s / n,
        "shap.kernel_shap.self_s": t.self_time("shap.kernel_shap") / n,
        "shap.model_rows": t.counts["shap.model_rows"] / n,
        "shap.forward_share": (
            t.child[("shap.kernel_shap", "mlp.forward")] / shap_s if shap_s else 0.0
        ),
        "metrics.s": t.total("metrics") / n,
        "process.cpu_s": cpu_s / n,
        "trace.overhead_s": overhead_s,
    }
