"""The benchmark (perfbench/) drives the program from outside, by name.
Its tracer wraps dp_la functions by name. A name that no longer resolves is
not an error there: its metrics are left out, and a lost cell-start mark
silently moves where ``setup_s`` ends. So every name it wraps must resolve to
a callable here. Its workloads write configs, and its runner passes
``dp-la run`` arguments, that the program must accept: otherwise every
benchmark run exits 1 and only a benchmark run would show it."""

import dataclasses
import importlib
import json
import sys
import time
import types
from pathlib import Path

import pytest

from dp_la import cli
from dp_la.experiment import load_config

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def _load(name: str) -> types.ModuleType:
    """perfbench/<name>.py executed from its source, so nothing is written
    beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


tracing = _load("tracing")
workloads = _load("workloads")
WRAPPED = sorted({(module, attr) for module, attr, _ in (
    *tracing.TARGETS, *tracing.CELL_START_TARGETS, tracing.DATASET_READY_TARGET)})


@pytest.mark.parametrize("module_name, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner)


# Computed by the benchmark runner around span_metrics, not from the spans alone.
RUNNER_METRICS = {"trace.overhead_s", "trace.uncovered_share"}


def test_traced_sweep_writes_the_same_results_and_every_per_layer_metric(tmp_path):
    """A tiny three-method sweep under the benchmark's Tracer: tracing must not
    change a byte of results.csv, and its spans must yield every per-layer
    metric that BENCHMARK.json declares and span_metrics computes."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"synth": {"n": 400, "d_numeric": 3, "d_categorical": 1,
                            "separation": 1.0, "seed": 5}},
        "epsilons": [1.0, 100.0],
        "seeds": [1],
        "num_teachers": 3,
    }))

    def run(out: Path) -> bytes:
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        return (out / "results.csv").read_bytes()

    untraced = run(tmp_path / "untraced")
    tracer = tracing.Tracer()
    try:
        traced = run(tmp_path / "traced")
    finally:
        tracer.restore()
    assert tracer.missing == []
    assert traced == untraced

    declared = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = tracing.span_metrics(tracer.record())
    assert sorted(declared - RUNNER_METRICS - set(metrics)) == []

    # A traced function reached through a stored reference escapes its
    # wrapper and reads 0, so pin the counts from their formulas.
    seeds, epsilons, teachers = 1, 2, 3
    cells = 3 * epsilons * seeds  # every method
    victim_train = victim_test = 100  # the victim half of n=400, split in two
    expected = {
        # per seed: baseline, shadow, attack and the teachers; per (seed,
        # epsilon): one input- and one objective-perturbation fit
        "model.fit_calls": seeds * (3 + teachers) + seeds * epsilons * 2,
        "pipelines.teachers_trained": seeds * teachers,
        # per epsilon: noisy labels and audit vote fractions on victim_test,
        # audit vote fractions on victim_train
        "pipelines.vote_queries": epsilons * (2 * victim_test + victim_train),
        # per seed: the shadow on both attack parts, the attack classifier,
        # the baseline and each teacher on both victim parts; per cell: the
        # attack on both victim parts; per (seed, epsilon) and fitted method:
        # the model on both victim parts
        "model.predict_calls": seeds * (4 + 2 * teachers) + cells * 2 + seeds * epsilons * 2 * 2,
        "experiment.cells": cells,
        "data.split_calls": seeds,
    }
    assert {name: metrics[name] for name in expected} == expected


def _small(name: str):
    """The workload ``name``, with csv_ingest's table cut to 2000 rows."""
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, n=2000) if name == "csv_ingest" else workload


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_config_loads(tmp_path, name):
    load_config(_small(name).write_inputs(1, tmp_path))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_runner_arguments_parse(tmp_path, monkeypatch, name):
    # run.py imports its siblings by their bare names and puts perfbench/ on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    monkeypatch.setitem(sys.modules, "check", _load("check"))
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    runner = _load("run")
    calls = []

    def child(args, root, log, timeout):
        calls.append(args)
        log.write_text("not started\n", encoding="utf-8")
        return 0.0, 0.0, 1

    monkeypatch.setattr(runner, "run_child", child)
    workload = _small(name)
    config = workload.write_inputs(1, tmp_path / "inputs")
    runner.run_once(0, "mark", workload, config, tmp_path, REPO, time.monotonic() + 60.0)
    [child_args] = calls
    args = cli.build_parser().parse_args(child_args[child_args.index("--") + 1:])
    assert (args.command, args.config) == ("run", str(config))
