import csv
import json
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from dp_la import cli, experiment, mechanisms, model, pipelines
from dp_la.audit import AuditReport
from dp_la.data import CsvSpec, SynthSpec, TabularSchema, synth_generate, write_raw_csv
from dp_la.experiment import (
    CellResult,
    ExperimentConfig,
    SeedTiming,
    SweepCell,
    SweepResults,
    _pipeline_rng,
    _results_table,
    build_seed_context,
    emit_report,
    enumerate_cells,
    load_config,
    load_experiment_dataset,
    run_cell,
    run_sweep,
    summarize,
)
from dp_la.mechanisms import PrivacyBudget, RngState, gaussian_sigma
from dp_la.model import TrainConfig
from dp_la.pipelines import DpMethod, shared_part

SMALL = dict(
    data=SynthSpec(n=400, separation=2.0, seed=7),
    epsilons=(1.0, 100.0),
    seeds=(1, 2),
)


def run_alone(cfg, cell, context):
    """run_cell on ``context`` with its method's shared part built for it alone."""
    rng = _pipeline_rng(RngState(cfg.master_seed), cell.method, cell.seed)
    shared = shared_part(cell.method, context.victim, cfg.train, rng, cfg.num_teachers)
    return run_cell(cfg, cell, context, shared)


def write_config(tmp_path, **overrides):
    doc = {
        "data": {"synth": {"n": 400, "d_numeric": 5, "d_categorical": 2,
                            "separation": 2.0, "seed": 7}},
        "methods": ["objective_perturbation"],
        "epsilons": [1.0, 100.0],
        "seeds": [1, 2],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def synth_files(tmp_path, **synth):
    """``dp-la synth`` of a config whose table is ``SynthSpec(**synth)``; the
    directory it wrote data.csv and schema.json into."""
    out = tmp_path / "s"
    path = write_config(tmp_path, data={"synth": synth})
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
    return out


class TestConfig:
    def test_defaults_match_the_reference_grid(self):
        cfg = ExperimentConfig()
        assert cfg.epsilons == (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.delta == 1e-5
        assert cfg.num_teachers == 10
        assert cfg.methods == tuple(DpMethod)
        assert cfg.train == TrainConfig(lam=1e-4, epochs=100, learning_rate=0.5)

    def test_requires_exactly_one_data_source(self, tmp_path):
        assert ExperimentConfig().data == SynthSpec()
        assert ExperimentConfig(data=CsvSpec("x.csv", "s.json")).data.schema == "s.json"
        path = write_config(tmp_path, data={"synth": {}, "path": "x.csv", "schema": "s.json"})
        with pytest.raises(ValueError, match="exactly one source"):
            load_config(path)

    def test_csv_source_requires_schema(self, tmp_path):
        for data in ({"path": "x.csv"}, {"schema": "s.json"}, {"synth": {}, "schema": "s.json"}):
            with pytest.raises(ValueError, match="exactly one source: .* CSV path with its"):
                load_config(write_config(tmp_path, data=data))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilons=()),
            dict(epsilons=(1.0, 0.5)),
            dict(epsilons=(1.0, 1.0)),
            dict(epsilons=(-1.0,)),
            dict(seeds=()),
            dict(delta=0.0),
            dict(delta=1.0),
            dict(methods=()),
            dict(seeds=(1, 1)),
            dict(methods=(DpMethod.OBJECTIVE_PERTURBATION, DpMethod.OBJECTIVE_PERTURBATION)),
            dict(inner_train_fraction=0.0),
            dict(inner_train_fraction=1.5),
            dict(num_teachers=1),
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(data=None), "data must be SynthSpec | CsvSpec, got None"),
        (dict(data={"synth": {}}), "data must be SynthSpec | CsvSpec, got {'synth': {}}"),
        (dict(data=TrainConfig()), "data must be SynthSpec | CsvSpec, got TrainConfig("),
        (dict(train=None), "train must be TrainConfig, got None"),
        (dict(train={"lam": 0.1}), "train must be TrainConfig, got {'lam': 0.1}"),
        (dict(methods=("input_perturbation",)),
         "methods must be tuple[DpMethod, ...], got ('input_perturbation',)"),
        (dict(methods="input_perturbation"),
         "methods must be tuple[DpMethod, ...], got 'input_perturbation'"),
        (dict(epsilons=5.0), "epsilons must be tuple[float, ...], got 5.0"),
        (dict(seeds=3), "seeds must be tuple[int, ...], got 3"),
    ])
    def test_nested_field_of_wrong_type_rejected(self, kwargs, message):
        # load_config always builds these; a library caller may not
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ExperimentConfig(**kwargs)

    def test_fingerprint_stable_and_sensitive(self):
        a = ExperimentConfig(**SMALL)
        b = ExperimentConfig(**SMALL)
        c = ExperimentConfig(**{**SMALL, "master_seed": 1})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_load_config_round_trip(self, tmp_path):
        path = write_config(tmp_path, delta=1e-6, num_teachers=4,
                            train={"lam": 0.01, "epochs": 10})
        cfg = load_config(path)
        assert cfg.methods == (DpMethod.OBJECTIVE_PERTURBATION,)
        assert cfg.delta == 1e-6
        assert cfg.num_teachers == 4
        assert cfg.train.lam == 0.01 and cfg.train.epochs == 10
        assert cfg.data == SynthSpec(n=400, separation=2.0, seed=7)

    def test_load_config_defaults_are_the_dataclasses(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": {"synth": {}}}))
        assert load_config(path) == ExperimentConfig()

    def test_load_config_without_data_source_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="exactly one"):
            load_config(path)

    def test_canonical_json_pinned(self):
        assert ExperimentConfig().canonical_json() == (
            '{"data":{"d_categorical":2,"d_numeric":5,"n":2000,"seed":7,"separation":1.0},'
            '"delta":1e-05,"epsilons":[0.01,0.1,1.0,10.0,100.0,1000.0,10000.0],'
            '"inner_train_fraction":0.5,"master_seed":0,'
            '"methods":["input_perturbation","objective_perturbation","prediction_perturbation"],'
            '"num_teachers":10,"seeds":[1,2,3,4,5],'
            '"train":{"epochs":100,"lam":0.0001,"learning_rate":0.5}}'
        )
        assert ExperimentConfig().fingerprint() == "5a5fe91812c579f3"
        csv_source = ExperimentConfig(data=CsvSpec("x.csv", "s.json")).canonical_json()
        assert csv_source.startswith('{"data":{"path":"x.csv","schema":"s.json"},"delta":')

    def test_load_config_accepts_every_key_it_reads(self, tmp_path):
        path = write_config(tmp_path, delta=1e-6, num_teachers=4, inner_train_fraction=0.5,
                            master_seed=3,
                            train={"lam": 0.01, "epochs": 10, "learning_rate": 0.25})
        assert load_config(path).master_seed == 3

    @pytest.mark.parametrize("overrides, where", [
        (dict(epsilon=[1.0], master_sead=1), "config: epsilon, master_sead"),
        (dict(data={"synth": {"n": 400}, "schema_path": "s.json"}), "data: schema_path"),
        (dict(data={"synth": {"n": 400, "seperation": 2.0}}), "data.synth: seperation"),
        (dict(train={"epoch": 5}), "train: epoch"),
        (dict(train={"seed": 0}), "train: seed"),
        (dict(threads=1), "config: threads"),
        (dict(output_dir="out"), "config: output_dir"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, overrides, where):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=f"unknown key\\(s\\) in {where}$"):
            load_config(path)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}: unknown key(s) in {where}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        (dict(num_teachers=2.5), "num_teachers must be int, got 2.5"),
        (dict(data={"synth": {"n": "big"}}), "n must be int, got 'big'"),
        (dict(data={"synth": {"separation": "far"}}), "separation must be float, got 'far'"),
        (dict(master_seed="x"), "master_seed must be int, got 'x'"),
        (dict(train={"epochs": 10.0}), "epochs must be int, got 10.0"),
        (dict(delta=True), "delta must be float, got True"),
        (dict(epsilons=[1.0, "10"]), "epsilons must be tuple[float, ...], got (1.0, '10')"),
        (dict(seeds=[1, 2.0]), "seeds must be tuple[int, ...], got (1, 2.0)"),
        (dict(epsilons="1.0"), "epsilons must be a JSON list, got '1.0'"),
        (dict(inner_train_fraction="half"), "inner_train_fraction must be float, got 'half'"),
        (dict(train={"lam": float("nan")}), "lam must be finite, got nan"),
        (dict(epsilons=[1.0, float("inf")]), "epsilons must be finite, got (1.0, inf)"),
        (dict(data={"synth": {"separation": float("inf")}}), "separation must be finite, got inf"),
        (dict(delta=float("-inf")), "delta must be finite, got -inf"),
        (dict(data={"path": "x.csv", "schema": 5}), "schema must be str, got 5"),
        (dict(data={"path": 5, "schema": "s.json"}), "path must be str, got 5"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(path)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"

    @pytest.mark.parametrize("overrides, flags, message", [
        (dict(master_seed=-1), ["run"], "master_seed must be non-negative, got -1"),
        (dict(data={"synth": {"seed": -1}}), ["synth"], "seed must be non-negative, got -1"),
        (dict(data={"synth": {"seed": -1}}), ["run"], "seed must be non-negative, got -1"),
    ])
    def test_negative_seed_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                         overrides, flags, message):
        # flags is the subcommand; synth checks its config with run's loader
        path = write_config(tmp_path, **overrides)

        def no_sweep(config):
            raise AssertionError("run_sweep called for an invalid config")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert cli.main([*flags, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("synth, message", [
        ({"n": 4}, "n must be at least 8, got 4"),
        ({"d_numeric": 0}, "d_numeric must be >= 1, got 0"),
        ({"d_categorical": -1}, "d_categorical must be >= 0, got -1"),
    ])
    def test_synth_range_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                       synth, message):
        path = write_config(tmp_path, data={"synth": synth})

        def no_sweep(config):
            raise AssertionError("run_sweep called for an invalid config")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_method_rejected_before_any_cell_runs(self, tmp_path, capsys,
                                                           monkeypatch):
        path = write_config(tmp_path, methods=["objective_perturbation"] * 2)

        def no_sweep(config):
            raise AssertionError("run_sweep called for an invalid config")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {path}: methods must be distinct\n"

    def test_float_fields_store_json_integers_as_floats(self, tmp_path):
        cfg = load_config(write_config(tmp_path, epsilons=[1, 100], delta=0.001,
                                       train={"lam": 1}))
        assert [type(v) for v in (*cfg.epsilons, cfg.train.lam)] == [float] * 3
        assert '"epsilons":[1.0,100.0]' in cfg.canonical_json()

    def test_integer_and_float_configs_have_one_fingerprint(self):
        ints = ExperimentConfig(epsilons=(1, 10), data=SynthSpec(separation=1))
        floats = ExperimentConfig(epsilons=(1.0, 10.0), data=SynthSpec(separation=1.0))
        assert ints.canonical_json() == floats.canonical_json()
        assert ints.fingerprint() == floats.fingerprint()

    @pytest.mark.parametrize("overrides, key", [
        (dict(data={"synth": {"separation": 10 ** 400}}), "separation"),
        (dict(epsilons=[1.0, 10 ** 400]), "epsilons"),
    ])
    def test_integer_too_large_for_a_float_rejected(self, tmp_path, capsys, overrides, key):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {key} must be finite, got "), err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        (dict(data={"synth": {"n": 10 ** 400}}), f"n must be at most {sys.maxsize}"),
        (dict(data={"synth": {"d_numeric": 10 ** 400}}),
         f"d_numeric must be at most {sys.maxsize}"),
        (dict(data={"synth": {"d_categorical": 10 ** 400}}),
         f"d_categorical must be at most {sys.maxsize}"),
        (dict(num_teachers=10 ** 400), f"num_teachers must be at most {sys.maxsize}"),
        (dict(train={"epochs": 10 ** 400}), f"epochs must be at most {sys.maxsize}"),
        (dict(data={"synth": {"separation": 10 ** 400}}), "separation must be finite"),
    ])
    def test_huge_integer_rejected_with_its_value_abbreviated(self, tmp_path, capsys,
                                                              overrides, message):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {message}, got 1000"), err
        assert len(err) < len(str(path)) + 120, err  # not the 401 digits
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("synth", [{"d_categorical": 10 ** 9}, {"d_numeric": 10 ** 9},
                                       {"n": 10 ** 12}])
    def test_synth_table_larger_than_memory_rejected(self, tmp_path, capsys, synth):
        path = write_config(tmp_path, data={"synth": synth})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {path}: data.synth n, d_numeric and d_categorical "
                              "make a model matrix of "), err
        assert "bytes of memory" in err and not (tmp_path / "out").exists()

    def test_synth_bound_is_the_model_matrix_size(self, monkeypatch):
        matrix = 8 * 400 * (5 + 3 * 2)
        monkeypatch.setattr("dp_la.data._physical_memory", lambda: matrix)
        SynthSpec(n=400, d_numeric=5, d_categorical=2)
        monkeypatch.setattr("dp_la.data._physical_memory", lambda: matrix - 1)
        with pytest.raises(ValueError, match=f"model matrix of {matrix} bytes"):
            SynthSpec(n=400, d_numeric=5, d_categorical=2)

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```json\n", 1)[1]
        path = tmp_path / "config.json"
        path.write_text(block.split("```", 1)[0])
        assert load_config(path).epsilons == (0.01, 0.1, 1, 10, 100, 1000, 10000)


class TestCells:
    def test_enumeration_order(self):
        cfg = ExperimentConfig(
            data=SynthSpec(), epsilons=(0.5, 2.0), seeds=(3, 9),
            methods=(DpMethod.INPUT_PERTURBATION, DpMethod.PREDICTION_PERTURBATION),
        )
        cells = enumerate_cells(cfg)
        assert len(cells) == 2 * 2 * 2
        assert [c.method for c in cells[:4]] == [DpMethod.INPUT_PERTURBATION] * 4
        assert [(c.epsilon, c.seed) for c in cells[:4]] == [(0.5, 3), (0.5, 9), (2.0, 3), (2.0, 9)]


@pytest.fixture(scope="module")
def small_results():
    cfg = ExperimentConfig(**SMALL)
    return cfg, run_sweep(cfg)


class TestRunSweep:

    def test_row_count_and_order(self, small_results):
        cfg, results = small_results
        assert len(results.rows) == 3 * 2 * 2
        coords = [(r.cell.method, r.cell.epsilon, r.cell.seed) for r in results.rows]
        assert coords == [(c.method, c.epsilon, c.seed) for c in enumerate_cells(cfg)]

    def test_all_cells_ok_on_healthy_config(self, small_results):
        _, results = small_results
        assert all(r.status == "ok" for r in results.rows)

    def test_objective_fit_short_of_the_minimiser_fails_its_cell(self):
        # lam = 1e-20 leaves the bias curvature to vanish: every fit stops on
        # the cap or with no descent, and would claim an epsilon it lacks
        cfg = ExperimentConfig(data=SynthSpec(400, 40, 0, 0.35, seed=101),
                               methods=(DpMethod.OBJECTIVE_PERTURBATION,),
                               epsilons=(100.0, 1000.0), seeds=(1, 2, 3, 4, 5),
                               train=TrainConfig(lam=1e-20))
        rows = run_sweep(cfg).rows
        stops = Counter(re.match("failed:ValueError:the objective-perturbation fit stopped on "
                                 r"(\w+) after \d+ iterations", r.status)[1] for r in rows)
        assert stops == {"cap": 7, "no_descent": 3}
        assert all(r.report is None and r.fit_stop is None for r in rows)

    def test_failed_cells_are_contained(self):
        cfg = ExperimentConfig(
            data=SynthSpec(n=400, separation=2.0, seed=7),
            epsilons=(1.0,),
            seeds=(1,),
            train=TrainConfig(lam=0.0),  # objective perturbation requires lam > 0
        )
        results = run_sweep(cfg)
        by_method = {r.cell.method: r for r in results.rows}
        assert by_method[DpMethod.OBJECTIVE_PERTURBATION].status.startswith("failed:")
        assert by_method[DpMethod.OBJECTIVE_PERTURBATION].report is None
        assert by_method[DpMethod.INPUT_PERTURBATION].status == "ok"
        assert by_method[DpMethod.PREDICTION_PERTURBATION].status == "ok"

    def test_each_distinct_model_is_fitted_once(self, monkeypatch):
        fitted = []
        original = model._fit

        def counting_fit(*args, **kwargs):
            result = original(*args, **kwargs)
            # a stack of K tables fits K models
            fitted.append(len(result) if isinstance(result, tuple) else 1)
            return result

        monkeypatch.setattr(model, "_fit", counting_fit)
        cfg = ExperimentConfig(**SMALL)
        results = run_sweep(cfg)
        assert all(r.status == "ok" for r in results.rows)
        seeds, epsilons = len(cfg.seeds), len(cfg.epsilons)
        # per seed: baseline, shadow, attack and the teachers; per (seed, epsilon):
        # one input- and one objective-perturbation fit
        assert sum(fitted) == seeds * (3 + cfg.num_teachers) + seeds * epsilons * 2

    def test_teacher_votes_are_computed_once_per_seed(self, monkeypatch):
        # every budget-free part is built once per (method, seed), not per epsilon
        calls = {"draw_input_noise": 0, "pate_train": 0, "predict": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipelines, name, counting(name, getattr(pipelines, name)))
        cfg = ExperimentConfig(**{**SMALL, "epsilons": (0.1, 1.0, 100.0)})
        results = run_sweep(cfg)
        assert all(r.status == "ok" for r in results.rows)
        # per seed: one noise draw, one ensemble, and each teacher's votes on
        # the victim-test rows (the released labels and the audit's
        # non-members) and the victim-train rows (the audit's members)
        seeds = len(cfg.seeds)
        assert calls == {"draw_input_noise": seeds, "pate_train": seeds,
                         "predict": 2 * cfg.num_teachers * seeds}

    def test_pipeline_streams_are_read_only_by_the_shared_parts(self, monkeypatch):
        # every (method, seed) pipeline substream builds its generator once, in
        # shared_part; cells only scale its draws, and the audit's vote noise
        # stays per cell
        built = Counter()
        original = RngState.generator

        def generator(self):
            built[self._path] += 1
            return original.func(self)

        counted = cached_property(generator)
        counted.__set_name__(RngState, "generator")
        monkeypatch.setattr(RngState, "generator", counted)
        cfg = ExperimentConfig()
        results = run_sweep(cfg)
        assert all(r.status == "ok" for r in results.rows)
        pipeline = [path for path in built if path[0] == "pipeline"]
        assert all(built[path] == 1 for path in pipeline)
        labels = Counter(path[4] for path in pipeline)
        seeds, cells_per_method = len(cfg.seeds), len(cfg.seeds) * len(cfg.epsilons)
        assert {label: labels[label] for label in ("input-noise", "erm-noise", "pate-votes")} \
            == {"input-noise": seeds, "erm-noise": seeds, "pate-votes": seeds}
        assert sum(n for path, n in built.items() if path[-1] == "audit-votes") \
            == cells_per_method

    def test_shared_part_failure_fails_only_its_method_and_seed(self, small_results,
                                                                monkeypatch):
        cfg, healthy = small_results
        failing = _pipeline_rng(RngState(cfg.master_seed), DpMethod.INPUT_PERTURBATION, 2)
        original = pipelines.draw_input_noise

        def draw(train_features, rng):
            if repr(rng) == repr(failing.substream("input-noise")):
                raise ValueError("no noise for this seed")
            return original(train_features, rng)

        monkeypatch.setattr(pipelines, "draw_input_noise", draw)
        results = run_sweep(cfg)
        for row, expected in zip(results.rows, healthy.rows):
            if row.cell.method is DpMethod.INPUT_PERTURBATION and row.cell.seed == 2:
                assert row.status == "failed:ValueError:no noise for this seed"
                assert row.report is None
            else:
                assert row.status == "ok" and row.report == expected.report

    def test_each_budget_is_calibrated_once_per_cell(self, monkeypatch):
        calls = {"gaussian_sigma": 0, "_erm_noise_budget": 0}

        def counting(name):
            original = getattr(pipelines, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipelines, name, counting(name))
        cfg = ExperimentConfig(**SMALL)
        results = run_sweep(cfg)
        assert all(r.status == "ok" for r in results.rows)
        cells_per_method = len(cfg.epsilons) * len(cfg.seeds)
        assert calls == {"gaussian_sigma": cells_per_method, "_erm_noise_budget": cells_per_method}

    def test_default_config_fits_reach_the_minimiser(self, tmp_path):
        cfg = ExperimentConfig()
        results = run_sweep(cfg)
        emit_report(results, tmp_path)
        per_cell = json.loads((tmp_path / "summary.json").read_text())["timings"]["per_cell"]
        assert len(per_cell) == 105
        for entry in per_cell:
            assert entry["status"] == "ok"
            if entry["method"] == DpMethod.PREDICTION_PERTURBATION.value:
                assert entry["fit_iterations"] is None and entry["fit_gradient_norm"] is None
                assert entry["fit_stop"] is None
            else:
                assert entry["fit_gradient_norm"] < 1e-8 and entry["fit_stop"] == "gradient"
                assert 0 < entry["fit_iterations"] < cfg.train.epochs

    def test_sweep_rows_match_standalone_cells(self, small_results):
        cfg, results = small_results
        dataset = load_experiment_dataset(cfg)
        for row in results.rows:
            context = build_seed_context(cfg, dataset, row.cell.seed)
            alone = run_alone(cfg, row.cell, context)
            assert alone.status == row.status == "ok"
            assert row.report == alone.report

    def test_reverse_epsilon_order_gives_identical_rows(self, small_results):
        # cells only read their seed's context, so running a seed's cells
        # last epsilon first (on a fresh context) changes no byte of a row
        cfg, results = small_results
        dataset = load_experiment_dataset(cfg)
        rows = []
        for seed in cfg.seeds:
            context = build_seed_context(cfg, dataset, seed)
            cells = [c for c in enumerate_cells(cfg) if c.seed == seed]
            rows += [run_alone(cfg, cell, context) for cell in reversed(cells)]
        by_cell = {row.cell: row for row in rows}
        reversed_results = SweepResults(tuple(by_cell[r.cell] for r in results.rows),
                                        results.config_fingerprint)
        assert _results_table(reversed_results) == _results_table(results)

    def test_input_noise_is_one_draw_per_seed_scaled_by_sigma(self, monkeypatch):
        # (X~_eps - X) / sigma(eps) is the same standard-normal draw at every
        # epsilon of a seed: the seed's "input-noise" stream, drawn once
        cfg = ExperimentConfig(**{**SMALL, "methods": (DpMethod.INPUT_PERTURBATION,),
                                  "epsilons": (0.1, 1.0, 100.0)})
        noised = []
        original = pipelines.train

        def capture(features, labels, config, linear_term=None):
            noised.append(features)
            return original(features, labels, config, linear_term=linear_term)

        monkeypatch.setattr(pipelines, "train", capture)
        dataset = load_experiment_dataset(cfg)
        for seed in cfg.seeds:
            context = build_seed_context(cfg, dataset, seed)
            X = context.victim.train_features
            rng = _pipeline_rng(RngState(cfg.master_seed), DpMethod.INPUT_PERTURBATION, seed)
            expected = rng.substream("input-noise").generator.standard_normal(X.shape)
            noise = shared_part(DpMethod.INPUT_PERTURBATION, context.victim, cfg.train, rng,
                                cfg.num_teachers)
            noised.clear()
            for cell in (c for c in enumerate_cells(cfg) if c.seed == seed):
                assert run_cell(cfg, cell, context, noise).status == "ok"
            assert len(noised) == len(cfg.epsilons)
            for eps, released in zip(cfg.epsilons, noised):
                sigma = gaussian_sigma(DpMethod.INPUT_PERTURBATION.sensitivity,
                                       PrivacyBudget(eps, cfg.delta))
                np.testing.assert_allclose((released - X) / sigma, expected, rtol=0, atol=1e-9)

    def test_teacher_failure_fails_only_prediction_perturbation(self):
        cfg = ExperimentConfig(**{**SMALL, "num_teachers": 26})  # 100 victim-train rows
        results = run_sweep(cfg)
        for row in results.rows:
            if row.cell.method is DpMethod.PREDICTION_PERTURBATION:
                assert row.report is None
                assert row.status == ("failed:ValueError:num_teachers=26 leaves shards "
                                      "below 4 rows for n=100")
            else:
                assert row.status == "ok"

    def test_seed_context_failure_fails_every_cell_of_the_seed(self):
        cfg = ExperimentConfig(**{**SMALL, "inner_train_fraction": 1.0 - 1e-9})
        results = run_sweep(cfg)
        assert {r.status for r in results.rows} == {
            "failed:ValueError:dataset too small: part 'victim_test' lacks a row of each class"}
        assert [t.seed for t in results.seed_timings] == list(cfg.seeds)

    def test_failed_seed_context_fails_only_its_seed(self, small_results, monkeypatch):
        cfg, healthy = small_results
        original = experiment.build_seed_context

        def build(config, dataset, seed):
            if seed == 2:
                raise ValueError("no context for seed 2")
            return original(config, dataset, seed)

        monkeypatch.setattr(experiment, "build_seed_context", build)
        results = run_sweep(cfg)
        assert [r.cell for r in results.rows] == enumerate_cells(cfg)
        assert [t.seed for t in results.seed_timings] == [1, 2]
        for row, expected in zip(results.rows, healthy.rows):
            if row.cell.seed == 2:
                assert (row.status, row.report, row.wall_time_seconds) == (
                    "failed:ValueError:no context for seed 2", None, 0.0)
            else:
                outcome = (row.status, row.report, row.fit_iterations, row.fit_gradient_norm,
                           row.fit_stop)
                assert outcome == (expected.status, expected.report, expected.fit_iterations,
                                   expected.fit_gradient_norm, expected.fit_stop)

    def test_seed_isolation(self, small_results):
        # every stream is keyed by grid values, so no grid edit disturbs the
        # cells it keeps
        cfg, results = small_results
        base_reports = {(r.cell.method, r.cell.epsilon, r.cell.seed): r.report
                        for r in results.rows}
        edits = [
            {"epsilons": (1.0, 100.0, 1000.0)},  # append an epsilon
            {"epsilons": (0.1, 1.0, 100.0)},  # add a smaller epsilon in front
            {"seeds": (1, 99)},  # replace the second seed
            {"seeds": (3, 1, 2)},  # add a seed in front
            {"seeds": (2,)},  # drop the first seed
        ]
        for edit in edits:
            edited = run_sweep(ExperimentConfig(**{**SMALL, **edit}))
            shared = [row for row in edited.rows
                      if (row.cell.method, row.cell.epsilon, row.cell.seed) in base_reports]
            assert len(shared) >= len(cfg.methods) * len(cfg.epsilons), edit
            for row in shared:
                key = (row.cell.method, row.cell.epsilon, row.cell.seed)
                assert row.report == base_reports[key], (edit, key)

    def test_integer_and_float_epsilons_key_the_same_streams(self, tmp_path):
        # a JSON 1 loads as 1.0, so both key the same audit stream
        methods = [m.value for m in DpMethod]
        for name, epsilons in (("ints", [1, 100]), ("floats", [1.0, 100.0])):
            path = write_config(tmp_path, epsilons=epsilons, methods=methods)
            assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "ints" / "results.csv").read_bytes()
                == (tmp_path / "floats" / "results.csv").read_bytes())


def fabricated_results(values_by_seed, method=DpMethod.OBJECTIVE_PERTURBATION, epsilon=1.0,
                       fail_seeds=()):
    rows = []
    for seed, ul in values_by_seed.items():
        cell = SweepCell(method, epsilon, seed)
        if seed in fail_seeds:
            rows.append(CellResult(cell, None, 0.0, "failed:synthetic"))
            continue
        # utility_loss is acc_nonprivate - 0.0, which is ul bit for bit
        report = AuditReport(acc_private=0.0, acc_nonprivate=ul, true_positives=0,
                             false_positives=0, members=1, nonmembers=1)
        rows.append(CellResult(cell, report, 0.0, "ok"))
    return SweepResults(rows=tuple(rows), config_fingerprint="test")


class TestSummarize:
    def test_median_over_seeds(self):
        results = fabricated_results({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 0.5})
        summary = summarize(results)
        assert summary["groups"][0]["median_utility_loss"] == pytest.approx(0.3)

    def test_single_seed_median_is_value(self):
        summary = summarize(fabricated_results({1: 0.42}))
        assert summary["groups"][0]["median_utility_loss"] == pytest.approx(0.42)

    def test_failed_cells_dropped_from_median(self):
        results = fabricated_results({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 99.0},
                                     fail_seeds=(5,))
        group = summarize(results)["groups"][0]
        assert group["n_ok"] == 4
        assert group["median_utility_loss"] == pytest.approx(0.25)

    def test_even_seed_count_median_is_numpys(self):
        values = {1: 0.1, 2: 0.7, 3: 0.2, 4: 0.30000000000000004}
        group = summarize(fabricated_results(values))["groups"][0]
        assert group["median_utility_loss"] == float(np.median(list(values.values())))

    def test_empty_group_reported_missing(self):
        results = fabricated_results({1: 0.1}, fail_seeds=(1,))
        group = summarize(results)["groups"][0]
        assert group["missing"] is True and group["n_ok"] == 0


class TestEmitReport:
    def test_files_and_shapes(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        results = run_sweep(cfg)
        written = emit_report(results, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"results.csv", "summary.json", "fig_utility_loss.csv",
                         "fig_privacy_leakage.csv", "fig_trr.csv"}
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + len(results.rows)
        assert lines[0] == ("method,epsilon,seed,acc_nonprivate,acc_private,utility_loss,"
                            "tpr,fpr,privacy_leakage,true_revealed_records,trr_rate,"
                            "wall_time_seconds,status")
        fig = (tmp_path / "out" / "fig_utility_loss.csv").read_text().splitlines()
        assert fig[0] == "epsilon,input_perturbation,objective_perturbation,prediction_perturbation"
        assert len(fig) == 1 + len(cfg.epsilons)

    def test_refuses_overwrite_without_force(self, tmp_path):
        results = fabricated_results({1: 0.1})
        emit_report(results, tmp_path)
        with pytest.raises(FileExistsError, match="force"):
            emit_report(results, tmp_path)
        emit_report(results, tmp_path, force=True)

    def test_summary_json_round_trips(self, tmp_path):
        results = fabricated_results({1: 0.1, 2: 0.2})
        emit_report(results, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config_fingerprint"] == "test"
        assert doc["groups"][0]["n_ok"] == 2
        assert "environment" in doc and "timings" in doc

    def test_environment_stamp_spawns_no_process(self, tmp_path, monkeypatch):
        # platform.platform() runs `uname -p` in a subprocess for its processor field
        def spawning():
            raise AssertionError("platform.platform() spawns a process")

        monkeypatch.setattr("dp_la.experiment.platform.platform", spawning)
        results = fabricated_results({1: 0.1})
        emit_report(results, tmp_path)
        environment = json.loads((tmp_path / "summary.json").read_text())["environment"]
        assert environment == {"python": platform.python_version(), "numpy": np.__version__,
                               "system": platform.system(), "release": platform.release(),
                               "machine": platform.machine()}

    def test_timings_add_per_seed_to_per_cell(self, tmp_path):
        results = fabricated_results({1: 0.1, 2: 0.2})
        results = SweepResults(results.rows, results.config_fingerprint,
                               (SeedTiming(1, 0.25), SeedTiming(2, 0.5)))
        emit_report(results, tmp_path)
        timings = json.loads((tmp_path / "summary.json").read_text())["timings"]
        assert timings["per_seed"] == [{"seed": 1, "wall_time_seconds": 0.25},
                                       {"seed": 2, "wall_time_seconds": 0.5}]
        assert timings["total_wall_time_seconds"] == 0.75

    def test_sweep_reports_one_timing_per_seed(self, small_results):
        cfg, results = small_results
        assert [t.seed for t in results.seed_timings] == list(cfg.seeds)
        assert all(t.wall_time_seconds > 0 for t in results.seed_timings)

    def test_output_bytes_are_pinned(self, tmp_path):
        # an ok row, a failed row whose status needs quoting, and a (method,
        # epsilon) group with no ok row, which each figure leaves blank
        obj, pred = DpMethod.OBJECTIVE_PERTURBATION, DpMethod.PREDICTION_PERTURBATION
        rows = (
            CellResult(SweepCell(obj, 1.0, 1), AuditReport(
                acc_private=0.7, acc_nonprivate=0.9, true_positives=1, false_positives=0,
                members=3, nonmembers=3), 0.5, "ok"),
            CellResult(SweepCell(obj, 1.0, 2), None, 0.0, 'failed:ValueError:a, "b"\nc'),
            CellResult(SweepCell(obj, 10.0, 1), None, 0.0, "failed:RuntimeError:x"),
            CellResult(SweepCell(pred, 1.0, 1), AuditReport(
                acc_private=0.5, acc_nonprivate=0.75, true_positives=2, false_positives=1,
                members=4, nonmembers=4), 0.5, "ok"),
        )
        emit_report(SweepResults(rows, "test"), tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == (
            b"method,epsilon,seed,acc_nonprivate,acc_private,utility_loss,tpr,fpr,"
            b"privacy_leakage,true_revealed_records,trr_rate,wall_time_seconds,status\n"
            b"objective_perturbation,1,1,0.9,0.7,0.2,0.333333333333,0,0.333333333333,1,"
            b"0.333333333333,,ok\n"
            b'objective_perturbation,1,2,,,,,,,,,,"failed:ValueError:a, ""b""\nc"\n'
            b"objective_perturbation,10,1,,,,,,,,,,failed:RuntimeError:x\n"
            b"prediction_perturbation,1,1,0.75,0.5,0.25,0.5,0.25,0.25,2,0.5,,ok\n")
        assert (tmp_path / "fig_trr.csv").read_bytes() == (
            b"epsilon,objective_perturbation,prediction_perturbation\n"
            b"1,0.333333333333,0.5\n"
            b"10,,\n")

    def test_no_temporary_file_left_behind(self, tmp_path):
        results = fabricated_results({1: 0.1})
        written = emit_report(results, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
        emit_report(results, tmp_path, force=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)


class TestCli:
    def test_run_success_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_run_never_loads_numpy_ma(self, tmp_path):
        # numpy.ma's import is a one-time cost of np.unique and np.median,
        # which the sweep path does not call
        cfg_path = write_config(tmp_path, methods=[m.value for m in DpMethod])
        out = str(tmp_path / "out")
        script = ("import sys\nfrom dp_la import cli\n"
                  f"code = cli.main(['run', '--config', {str(cfg_path)!r}, '--out', {out!r}])\n"
                  "assert code == 0, code\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_missing_config_exit_one(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", out]) == 1
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exit_one(self, tmp_path):
        path = write_config(tmp_path, epsilons=[2.0, 1.0])
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_failed_cell_exit_two(self, tmp_path):
        path = write_config(tmp_path, train={"lam": 0.0})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_refused_overwrite_exit_one(self, tmp_path):
        argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 1
        assert cli.main([*argv, "--force"]) == 0

    def test_refused_overwrite_runs_no_sweep(self, tmp_path, monkeypatch, capsys):
        argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        before = (tmp_path / "out" / "results.csv").read_bytes()

        def no_sweep(config):
            raise AssertionError("run_sweep called for a refused run")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert "refusing to overwrite fig_privacy_leakage.csv, fig_trr.csv" in capsys.readouterr().err
        assert (tmp_path / "out" / "results.csv").read_bytes() == before

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_onto_or_under_a_file_runs_no_sweep(self, tmp_path, monkeypatch, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path)

        def no_sweep(config):
            raise AssertionError("run_sweep called for an output under a file")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert cli.main(["run", "--config", str(path), "--out", str(taken / below)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {taken} is not a directory")

    def test_master_seed_changes_results(self, tmp_path):
        # the config is the only place a run's seed is set
        for name, master_seed in (("o1", 0), ("o2", 123), ("o3", 123)):
            path = write_config(tmp_path, master_seed=master_seed)
            assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        a, b, c = ((tmp_path / d / "results.csv").read_bytes() for d in ("o1", "o2", "o3"))
        assert a != b and b == c

    def test_synth_writes_the_configs_table(self, tmp_path):
        path = write_config(tmp_path, data={"synth": {"n": 100, "d_numeric": 3, "seed": 3}})
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        raw, schema = synth_generate(load_config(path).data)
        write_raw_csv(raw, schema, tmp_path / "data.csv")
        schema.to_json(tmp_path / "schema.json")
        for name in ("data.csv", "schema.json"):
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_synth_of_a_csv_config_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, data={"path": "x.csv", "schema": "s.json"})
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: {path}: data must be a synth block for dp-la synth, "
                       "not a CSV path\n")
        assert not (tmp_path / "s").exists()

    def test_synth_table_larger_than_memory_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dp_la.data._physical_memory", lambda: 8 * 100 * (5 + 3 * 2) - 1)
        path = write_config(tmp_path, data={"synth": {"n": 100}})
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {path}: data.synth n, d_numeric and d_categorical "
                              f"make a model matrix of {8 * 100 * 11} bytes"), err
        assert not (tmp_path / "s").exists()

    def test_synth_csv_gives_the_synth_configs_results(self, tmp_path):
        # one config run as it is, and run on the CSV + schema synth wrote from it
        methods = [m.value for m in DpMethod]
        path = write_config(tmp_path, methods=methods)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "from_synth")]) == 0
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        path = write_config(tmp_path, methods=methods,
                            data={"path": str(tmp_path / "s" / "data.csv"),
                                  "schema": str(tmp_path / "s" / "schema.json")})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "from_csv")]) == 0
        for name in ("results.csv", "fig_utility_loss.csv", "fig_privacy_leakage.csv",
                     "fig_trr.csv"):
            assert ((tmp_path / "from_synth" / name).read_bytes()
                    == (tmp_path / "from_csv" / name).read_bytes()), name

    @pytest.mark.parametrize("missing", ["data", "schema"])
    def test_missing_input_file_exit_one(self, tmp_path, capsys, missing):
        synth_dir = synth_files(tmp_path, n=100)
        files = {"data": synth_dir / "data.csv", "schema": synth_dir / "schema.json"}
        files[missing].unlink()
        path = write_config(tmp_path, data={"path": str(files["data"]),
                                            "schema": str(files["schema"])})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_overlong_csv_field_exit_one(self, tmp_path, capsys):
        synth_dir = synth_files(tmp_path, n=100)
        data = synth_dir / "data.csv"
        header, first, *rest = data.read_text().splitlines()
        cells = first.split(",")
        cells[0] = "9" * 200_000
        data.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        path = write_config(tmp_path, data={"path": str(data),
                                            "schema": str(synth_dir / "schema.json")})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"config error: {data}: line 2: field larger than "
                                           "field limit (131072)\n")

    @pytest.mark.parametrize("broken", ["schema", "config", "config_bytes", "data"])
    def test_unreadable_input_error_names_its_file(self, tmp_path, capsys, broken):
        synth_dir = synth_files(tmp_path, n=400)
        data, schema = synth_dir / "data.csv", synth_dir / "schema.json"
        path = write_config(tmp_path, data={"path": str(data), "schema": str(schema)})
        if broken == "schema":
            schema.write_text("{bad json")
        elif broken == "config":
            path.write_text("{bad json")
        elif broken == "config_bytes":
            path.write_bytes(b"\xff" + path.read_bytes())
        else:
            lines = data.read_bytes().split(b"\n")
            lines[300] = lines[300].replace(b",", b",\xe9", 1)  # a Latin-1 byte on line 301
            data.write_bytes(b"\n".join(lines))
        named = {"schema": schema, "data": data}.get(broken, path)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}: "), err
        if broken == "data":
            assert err.startswith(f"config error: {data}: not UTF-8 after line "), err

    @pytest.mark.parametrize("broken, message", [
        ("config", "config must be a JSON object"),
        ("methods", "methods must be one of 'input_perturbation', 'objective_perturbation', "
                    "'prediction_perturbation', got 'bogus'"),
        ("columns", "schema columns must be a list"),
        ("kind", "schema column 0 kind must be one of 'numeric', 'categorical', 'target', "
                 "'drop', got 'numerc'"),
    ])
    def test_bad_value_error_names_its_file(self, tmp_path, capsys, broken, message):
        synth_dir = synth_files(tmp_path, n=100)
        schema = synth_dir / "schema.json"
        path = write_config(tmp_path, data={"path": str(synth_dir / "data.csv"),
                                            "schema": str(schema)})
        doc = json.loads(schema.read_text())
        if broken == "config":
            path.write_text("[1]")
        elif broken == "methods":
            write_config(tmp_path, methods=["bogus"])
        elif broken == "columns":
            schema.write_text(json.dumps({**doc, "columns": "x0"}))
        else:
            doc["columns"][0]["kind"] = "numerc"
            schema.write_text(json.dumps(doc))
        named = schema if broken in ("columns", "kind") else path
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {named}: {message}\n"

    @pytest.mark.parametrize("positive, matched", [(["POS"], "no"), (["neg", "pos"], "every")])
    def test_single_class_target_rejected_before_any_seed(self, tmp_path, capsys, monkeypatch,
                                                          positive, matched):
        synth_dir = synth_files(tmp_path, n=400)
        schema = synth_dir / "schema.json"
        schema.write_text(json.dumps({**json.loads(schema.read_text()),
                                      "positive_labels": positive}))
        path = write_config(tmp_path, data={"path": str(synth_dir / "data.csv"),
                                            "schema": str(schema)})

        def no_seed(config, dataset, seed):
            raise AssertionError("a seed ran for a single-class target")

        monkeypatch.setattr(experiment, "build_seed_context", no_seed)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: target column 'outcome' has one class: its positive_labels "
            f"{positive} match {matched} row\n")
        assert not (tmp_path / "out").exists()

    def test_synth_onto_a_file_exit_one(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        path = write_config(tmp_path)
        assert cli.main(["synth", "--config", str(path), "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_synth_subcommand(self, tmp_path):
        out = synth_files(tmp_path, n=100, d_numeric=3, d_categorical=1, separation=1.5, seed=3)
        assert (out / "data.csv").exists() and (out / "schema.json").exists()

    def test_second_synth_into_one_directory_exit_one(self, tmp_path, capsys):
        out = synth_files(tmp_path, n=100)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        path = write_config(tmp_path, data={"synth": {"n": 200}})
        capsys.readouterr()
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: refusing to overwrite data.csv, schema.json in {out}\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("failing", ["data", "schema"])
    def test_synth_write_that_raises_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                                    failing):
        # a half-written file and the other, whole one are both left out
        def half_written(*args):
            args[-1].write_text("x0,x1\n0.5,")
            raise OSError("No space left on device")

        if failing == "data":
            monkeypatch.setattr(cli, "write_raw_csv", half_written)
        else:
            monkeypatch.setattr(TabularSchema, "to_json", half_written)
        path = write_config(tmp_path, data={"synth": {"n": 100}})
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == "config error: No space left on device\n"
        assert list((tmp_path / "s").iterdir()) == []

    def test_check_dp_subcommand(self, capsys):
        assert cli.main(["check-dp", "--epsilon", "0.5", "--trials", "20000"]) == 0
        assert capsys.readouterr().out == ("epsilon=0.5 trials=20000 eligible_bins=6\n"
                                           "max_ratio=1.716855 bound=1.978466 passed=True\n")

    def test_check_dp_failure_exits_two(self, capsys, monkeypatch):
        # half the calibrated scale is the noise of twice the budget
        scale = mechanisms.laplace_scale
        monkeypatch.setattr(mechanisms, "laplace_scale", lambda *a: scale(*a) / 2)
        assert cli.main(["check-dp", "--epsilon", "0.5", "--trials", "20000"]) == 2
        assert capsys.readouterr().out.endswith(
            "max_ratio=2.809924 bound=1.978466 passed=False\n")

    @pytest.mark.parametrize("argv, code", [
        (["run"], 1),
        (["bogus"], 1),
        (["check-dp", "--epsilon", "1", "--seed", "abc"], 1),
        (["audit", "--config", "c.json"], 1),
        (["check-dp", "--epsilon", "1", "--trials", "20000", "--bins", "40"], 1),
        (["run", "--help"], 0),
        (["run", "--config", "c.json"], 1),
        (["run", "--config", "c.json", "--out", "o", "--seed", "1"], 1),
        (["synth", "--n", "400", "--out", "o"], 1),
        (["run", "--conf", "c.json", "--o", "out", "--thr", "1"], 1),
        (["synth", "--con", "c.json", "--o", "s"], 1),
        (["check-dp", "--eps", "1", "--tri", "20000"], 1),
    ], ids=["run-without-config", "unknown-subcommand", "seed-not-an-int", "audit", "bins",
            "help", "run-without-out", "run-seed", "synth-table-flag", "run-prefixes",
            "synth-prefixes", "check-dp-prefixes"])
    def test_usage_error_exit_one(self, tmp_path, monkeypatch, capsys, argv, code):
        # argparse's own exit code 2 would read as a failed sweep cell
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert (err if code else out).startswith("usage: dp-la")
        assert list(tmp_path.iterdir()) == []

    def test_csv_data_source(self, tmp_path):
        synth_dir = synth_files(tmp_path, n=400, separation=2.0)
        cfg_path = write_config(
            tmp_path,
            data={"path": str(synth_dir / "data.csv"), "schema": str(synth_dir / "schema.json")},
        )
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out_csv")]) == 0
        text = (tmp_path / "out_csv" / "results.csv").read_text()
        assert text.count("\n") == 1 + 1 * 2 * 2

    def test_quoted_crlf_twin_gives_the_same_results(self, tmp_path):
        # the plain file is split by the byte path, its twin by csv.reader
        synth_dir = synth_files(tmp_path, n=400, separation=2.0)
        plain, twin = synth_dir / "data.csv", synth_dir / "twin.csv"
        with open(plain, newline="", encoding="utf-8") as src, \
                open(twin, "w", newline="", encoding="utf-8") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))
        assert b'"' not in plain.read_bytes() and b'"\r\n' in twin.read_bytes()
        results = []
        for data_path in (plain, twin):
            out = tmp_path / f"out_{data_path.stem}"
            cfg_path = write_config(
                tmp_path, data={"path": str(data_path), "schema": str(synth_dir / "schema.json")})
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]


def test_dataset_loading_matches_between_synth_and_emitted_csv(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    ds = load_experiment_dataset(cfg)
    assert ds.n_rows == 400
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
