"""Tests of the benchmark itself. From the checkout root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import dp_la.cli  # noqa: E402
from check import RESULT_COLUMNS, OutputError, check_outputs  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, run_child  # noqa: E402
from tracing import TARGETS, Tracer, span_metrics  # noqa: E402
from workloads import METHODS, WORKLOADS, Workload  # noqa: E402

TINY = Workload(name="tiny", why="", threads=1, methods=METHODS, epsilons=(1.0,),
                seeds=(1,), n=400, synth=True)
TEACHERS = 10  # what Workload.write_inputs configures


def _sweep(tmp_path: Path, name: str = "out") -> Path:
    config = TINY.write_inputs(7, tmp_path / "inputs")
    out = tmp_path / name
    assert dp_la.cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def _traced_sweep(tmp_path: Path, name: str, targets=TARGETS) -> tuple[Tracer, dict]:
    tracer = Tracer(targets)
    try:
        _sweep(tmp_path, name)
    finally:
        tracer.restore()
    return tracer, span_metrics(tracer.record())


def _alter_digit(text: str) -> str:
    digit = next(i for i, c in enumerate(text) if c.isdigit())
    return text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]


@pytest.mark.parametrize("column", [c for c in RESULT_COLUMNS
                                    if c not in ("method", "wall_time_seconds", "status")])
def test_output_check_rejects_one_altered_digit(tmp_path, column):
    out = _sweep(tmp_path)
    check_outputs(out, TINY)
    results = out / "results.csv"
    lines = results.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    at = RESULT_COLUMNS.index(column)
    fields[at] = _alter_digit(fields[at])
    lines[1] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(OutputError):
        check_outputs(out, TINY)


def test_traced_fit_count_is_cells_times_three_plus_pipeline_fits(tmp_path):
    _, first = _traced_sweep(tmp_path, "first")
    cells = len(TINY.cells)
    # baseline, shadow and attack per cell; one private fit for input and
    # objective perturbation; one per teacher for prediction perturbation
    assert first["model.fit_calls"] == cells * 3 + 1 + 1 + TEACHERS
    assert first["model.epochs"] == first["model.fit_calls"] * 100
    assert first["experiment.cells"] == cells
    _, second = _traced_sweep(tmp_path, "second")
    for name in ("model.fit_calls", "model.fit_distinct_ratio", "mechanisms.substreams",
                 "trace.spans"):
        assert first[name] == second[name]


def test_missing_wrap_target_gives_absent_metric(tmp_path):
    renamed = tuple(("dp_la.model", "_fit_renamed", "model") if t[1] == "_fit" else t
                    for t in TARGETS) + (("dp_la.no_such_module", "f", "data"),)
    tracer, metrics = _traced_sweep(tmp_path, "renamed", renamed)
    assert set(tracer.missing) == {"model._fit_renamed", "no_such_module.f"}
    assert "model.fit_s" not in metrics and "model.us_per_epoch" not in metrics
    assert metrics["model.fit_calls"] == len(TINY.cells) * 3 + 2 + TEACHERS


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    layer_map = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))["map"]
    mapped = [name for entry in layer_map for name in entry["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER_UNITS)


def test_refuses_a_directory_without_the_package(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                           "default_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_run_past_its_deadline_is_killed(tmp_path):
    config = WORKLOADS["trend_grid"].write_inputs(1, tmp_path / "inputs")
    wall, _, code = run_child(["mark", str(tmp_path / "record.json"), "--", "run", "--config",
                               str(config), "--out", str(tmp_path / "out")],
                              BENCH_DIR.parent, tmp_path / "log.txt", timeout=1.0)
    assert code < 0 and wall < 5.0
