"""Self-tests of the benchmark harness; no workload is run."""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Step, Workload  # noqa: E402
from zids import mlp, shap  # noqa: E402
from zids.preprocess import EncodedDataset  # noqa: E402


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_nested_spans():
    # a: 0..10, b: 2..5 inside a, c: 3..4 inside b, d: 6..8 inside a
    tracer = spans.Tracer(clock=_clock(0, 2, 3, 4, 5, 6, 8, 10))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    assert tracer.total("a") == 10
    assert tracer.self_time("a") == 10 - 3 - 2
    assert tracer.self_time("b") == 3 - 1
    assert tracer.self_time("c") == 1
    assert tracer.child[("a", "b")] == 3
    assert tracer.current() is None


def test_stream_busy_time_is_a_child_of_the_consumer():
    tracer = spans.Tracer(clock=itertools.count().__next__)
    traced = spans._traced_iter_kdd(tracer, lambda stream: iter(stream))
    with tracer.span("cli.prepare"):  # starts at tick 0
        assert list(traced(["r1", "r2"])) == ["r1", "r2"]
    # two records and the final StopIteration take one tick each; the span
    # closes at tick 7
    assert tracer.total("dataset.iter_kdd") == 3
    assert tracer.counts["dataset.iter_kdd.records"] == 2
    assert tracer.self_time("cli.prepare") == 7 - 3


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, *_ in spans.WRAPPED
    }


def test_instrumented_restores_every_wrapped_attribute():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Tracer()):
            for (module, attr), fn in originals.items():
                assert getattr(importlib.import_module(module), attr) is not fn
            raise RuntimeError("leave the block early")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_internal_calls_route_through_the_wrappers():
    rng = np.random.default_rng(0)
    data = EncodedDataset(x=rng.random((20, 3), dtype=np.float32),
                          y=rng.integers(0, 2, 20), class_names=["a", "b"],
                          scaling=[])
    model = mlp.init([3, 4, 2], seed=0)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        mlp.train(model, data, data, mlp.TrainConfig(epochs=1, batch_size=8))
        shap.kernel_shap(lambda z: mlp.forward(model, z), data.x[:1], data.x[:4])
    assert tracer.calls("mlp.optimizer_step") == 3
    assert tracer.counts["mlp.optimizer_step.rows"] == 20
    assert tracer.calls("shap.coalitions") == 1
    assert tracer.counts["shap.model_rows"] > 0
    assert tracer.child[("mlp.train", "mlp.forward")] > 0
    assert tracer.child[("shap.kernel_shap", "mlp.forward")] > 0
    values = spans.layer_metrics(tracer, 1, cpu_s=1.0, overhead_s=0.0)
    assert list(values) == list(spans.LAYER_METRICS)
    assert values["mlp.forward.calls"] == tracer.calls("mlp.forward")


def test_failed_commands_and_checks_are_counted_not_raised(tmp_path):
    def raises(setup, out):
        raise KeyError("report.json")

    def unmet(setup, out):
        return ["accuracy below the gate"]

    def fake_cli(argv):
        if argv[0] == "boom":
            raise ValueError("unexpected")
        return 0 if argv[0] == "ok" else 2

    workload = Workload(
        name="fake", scale=1, setup=(),
        steps=(
            Step(("ok",), stage=True, check=raises),
            Step(("ok",), check=unmet),
            Step(("ok",)),
            Step(("exit2",)),
            Step(("boom",)),
        ),
        stage_rows=1,
    )
    it = worker.run_iteration(workload, {}, tmp_path / "setup", tmp_path / "out",
                              fake_cli)
    assert it["failed"] == 4
    assert len(it["problems"]) == 4
    assert "check raised KeyError" in it["problems"][0]


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in spans.LAYER_METRICS.items()
    ]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(
        run.WORKLOADS)
