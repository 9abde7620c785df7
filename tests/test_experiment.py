import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dp_la import cli, model, pipelines
from dp_la.audit import AuditReport
from dp_la.experiment import (
    CellResult,
    ExperimentConfig,
    SeedTiming,
    SweepCell,
    SweepResults,
    SynthSpec,
    _pipeline_rng,
    _results_csv_lines,
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
    synth=SynthSpec(n=400, separation=2.0, seed=7),
    epsilons=(1.0, 100.0),
    seeds=(1, 2),
)


def run_alone(cfg, cell, context):
    """run_cell on ``context`` with its method's shared part built for it alone."""
    rng = _pipeline_rng(RngState(cfg.master_seed), cell.method, cell.seed)
    shared = shared_part(cell.method, context.victim, cfg.train, rng, cfg.num_teachers)
    return run_cell(cfg, cell, context, shared, rng)


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


class TestConfig:
    def test_defaults_match_the_reference_grid(self):
        cfg = ExperimentConfig()
        assert cfg.epsilons == (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.delta == 1e-5
        assert cfg.num_teachers == 10
        assert cfg.methods == tuple(DpMethod)
        assert cfg.train == TrainConfig(lam=1e-4, epochs=100, learning_rate=0.5)

    def test_requires_exactly_one_data_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(synth=None)
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(data_path="x.csv", schema_path="s.json", synth=SynthSpec())

    def test_csv_source_requires_schema(self):
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig(data_path="x.csv", synth=None)
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig(schema_path="s.json")

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
            dict(threads=0),
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
        assert cfg.synth.n == 400

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
            '{"data_path":null,"delta":1e-05,'
            '"epsilons":[0.01,0.1,1.0,10.0,100.0,1000.0,10000.0],'
            '"inner_train_fraction":0.5,"master_seed":0,'
            '"methods":["input_perturbation","objective_perturbation","prediction_perturbation"],'
            '"num_teachers":10,"schema_path":null,"seeds":[1,2,3,4,5],'
            '"synth":{"d_categorical":2,"d_numeric":5,"n":2000,"seed":7,"separation":1.0},'
            '"train":{"epochs":100,"lam":0.0001,"learning_rate":0.5}}'
        )
        assert ExperimentConfig().fingerprint() == "9315722f4ac962c8"

    def test_load_config_accepts_every_key_it_reads(self, tmp_path):
        path = write_config(tmp_path, delta=1e-6, num_teachers=4, inner_train_fraction=0.5,
                            master_seed=3, output_dir="o", threads=2,
                            train={"lam": 0.01, "epochs": 10, "learning_rate": 0.25})
        cfg = load_config(path)
        assert (cfg.master_seed, cfg.output_dir, cfg.threads) == (3, "o", 2)

    @pytest.mark.parametrize("overrides, where", [
        (dict(epsilon=[1.0], master_sead=1), "config: epsilon, master_sead"),
        (dict(data={"synth": {"n": 400}, "schema_path": "s.json"}), "data: schema_path"),
        (dict(data={"synth": {"n": 400, "seperation": 2.0}}), "data.synth: seperation"),
        (dict(train={"epoch": 5}), "train: epoch"),
        (dict(train={"seed": 0}), "train: seed"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, overrides, where):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=f"unknown key\\(s\\) in {where}$"):
            load_config(path)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert f"config error: unknown key(s) in {where}" in capsys.readouterr().err

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
        (dict(output_dir=1), "output_dir must be str, got 1"),
        (dict(train={"lam": float("nan")}), "lam must be finite, got nan"),
        (dict(epsilons=[1.0, float("inf")]), "epsilons must be finite, got (1.0, inf)"),
        (dict(data={"synth": {"separation": float("inf")}}), "separation must be finite, got inf"),
        (dict(delta=float("-inf")), "delta must be finite, got -inf"),
        (dict(data={"path": "x.csv", "schema": 5}), "data.schema must be str | None, got 5"),
        (dict(data={"path": 5, "schema": "s.json"}), "data.path must be str | None, got 5"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("overrides, flags, message", [
        (dict(master_seed=-1), [], "master_seed must be non-negative, got -1"),
        ({}, ["--seed", "-1"], "master_seed must be non-negative, got -1"),
        (dict(data={"synth": {"seed": -1}}), [], "seed must be non-negative, got -1"),
    ])
    def test_negative_seed_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                         overrides, flags, message):
        path = write_config(tmp_path, **overrides)

        def no_sweep(config):
            raise AssertionError("run_sweep called for an invalid config")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert cli.main(["run", "--config", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_repeated_method_rejected_before_any_cell_runs(self, tmp_path, capsys,
                                                           monkeypatch):
        path = write_config(tmp_path, methods=["objective_perturbation"] * 2)

        def no_sweep(config):
            raise AssertionError("run_sweep called for an invalid config")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "config error: methods must be distinct\n"

    def test_float_fields_take_json_integers_unconverted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, epsilons=[1, 100], delta=0.001,
                                       train={"lam": 1}))
        assert cfg.epsilons == (1, 100) and cfg.train.lam == 1
        assert '"epsilons":[1,100]' in cfg.canonical_json()

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```json\n", 1)[1]
        path = tmp_path / "config.json"
        path.write_text(block.split("```", 1)[0])
        assert load_config(path).epsilons == (0.01, 0.1, 1, 10, 100, 1000, 10000)


class TestCells:
    def test_enumeration_order(self):
        cfg = ExperimentConfig(
            synth=SynthSpec(), epsilons=(0.5, 2.0), seeds=(3, 9),
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

    def test_failed_cells_are_contained(self):
        cfg = ExperimentConfig(
            synth=SynthSpec(n=400, separation=2.0, seed=7),
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

    def test_thread_count_does_not_change_results(self, small_results, tmp_path):
        cfg, results = small_results
        threaded = run_sweep(ExperimentConfig(**{**SMALL, "threads": 4}))
        a = emit_report(results, summarize(results), tmp_path / "a")
        b = emit_report(threaded, summarize(threaded), tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()

    def test_each_distinct_model_is_fitted_once(self, monkeypatch):
        calls = []
        original = model._fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "_fit", counting_fit)
        cfg = ExperimentConfig(**SMALL)
        results = run_sweep(cfg)
        assert all(r.status == "ok" for r in results.rows)
        seeds, epsilons = len(cfg.seeds), len(cfg.epsilons)
        # per seed: baseline, shadow, attack and the teachers; per (seed, epsilon):
        # one input- and one objective-perturbation fit
        assert len(calls) == seeds * (3 + cfg.num_teachers) + seeds * epsilons * 2

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
        emit_report(results, summarize(results), tmp_path)
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
        assert _results_csv_lines(reversed_results) == _results_csv_lines(results)

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
                assert run_cell(cfg, cell, context, noise, rng).status == "ok"
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
        # JSON 1 and 1.0 load unconverted; the audit stream is keyed by float(epsilon)
        methods = [m.value for m in DpMethod]
        for name, epsilons in (("ints", [1, 100]), ("floats", [1.0, 100.0])):
            path = write_config(tmp_path, epsilons=epsilons, methods=methods,
                                output_dir=str(tmp_path / name))
            assert cli.main(["run", "--config", str(path)]) == 0
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
        written = emit_report(results, summarize(results), tmp_path / "out")
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
        emit_report(results, summarize(results), tmp_path)
        with pytest.raises(FileExistsError, match="force"):
            emit_report(results, summarize(results), tmp_path)
        emit_report(results, summarize(results), tmp_path, force=True)

    def test_summary_json_round_trips(self, tmp_path):
        results = fabricated_results({1: 0.1, 2: 0.2})
        emit_report(results, summarize(results), tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config_fingerprint"] == "test"
        assert doc["groups"][0]["n_ok"] == 2
        assert "environment" in doc and "timings" in doc

    def test_timings_add_per_seed_to_per_cell(self, tmp_path):
        results = fabricated_results({1: 0.1, 2: 0.2})
        results = SweepResults(results.rows, results.config_fingerprint,
                               (SeedTiming(1, 0.25), SeedTiming(2, 0.5)))
        emit_report(results, summarize(results), tmp_path)
        timings = json.loads((tmp_path / "summary.json").read_text())["timings"]
        assert timings["per_seed"] == [{"seed": 1, "wall_time_seconds": 0.25},
                                       {"seed": 2, "wall_time_seconds": 0.5}]
        assert timings["total_wall_time_seconds"] == 0.75

    def test_sweep_reports_one_timing_per_seed(self, small_results):
        cfg, results = small_results
        assert [t.seed for t in results.seed_timings] == list(cfg.seeds)
        assert all(t.wall_time_seconds > 0 for t in results.seed_timings)

    def test_no_temporary_file_left_behind(self, tmp_path):
        results = fabricated_results({1: 0.1})
        written = emit_report(results, summarize(results), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
        emit_report(results, summarize(results), tmp_path, force=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)


class TestCli:
    def test_run_success_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_run_never_loads_numpy_ma(self, tmp_path):
        # numpy.ma's import is a one-time cost of np.unique and np.median,
        # which the sweep path does not call
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"),
                                methods=[m.value for m in DpMethod])
        script = ("import sys\nfrom dp_la import cli\n"
                  f"code = cli.main(['run', '--config', {str(cfg_path)!r}])\n"
                  "assert code == 0, code\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_missing_config_exit_one(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_config_exit_one(self, tmp_path):
        path = write_config(tmp_path, epsilons=[2.0, 1.0])
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_failed_cell_exit_two(self, tmp_path):
        path = write_config(tmp_path, train={"lam": 0.0},
                            output_dir=str(tmp_path / "out"))
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_refused_overwrite_exit_one(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["run", "--config", str(path)]) == 0
        assert cli.main(["run", "--config", str(path)]) == 1
        assert cli.main(["run", "--config", str(path), "--force"]) == 0

    def test_refused_overwrite_runs_no_sweep(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["run", "--config", str(path)]) == 0
        before = (tmp_path / "out" / "results.csv").read_bytes()

        def no_sweep(config):
            raise AssertionError("run_sweep called for a refused run")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "refusing to overwrite fig_privacy_leakage.csv, fig_trr.csv" in capsys.readouterr().err
        assert (tmp_path / "out" / "results.csv").read_bytes() == before

    def test_master_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2, out3 = (str(tmp_path / d) for d in ("o1", "o2", "o3"))
        assert cli.main(["run", "--config", str(path), "--out", out1]) == 0
        assert cli.main(["run", "--config", str(path), "--out", out2, "--seed", "123"]) == 0
        assert cli.main(["run", "--config", str(path), "--out", out3, "--seed", "123"]) == 0
        a = (tmp_path / "o1" / "results.csv").read_bytes()
        b = (tmp_path / "o2" / "results.csv").read_bytes()
        c = (tmp_path / "o3" / "results.csv").read_bytes()
        assert a != b and b == c

    @pytest.mark.parametrize("missing", ["data", "schema"])
    def test_missing_input_file_exit_one(self, tmp_path, capsys, missing):
        synth_dir = tmp_path / "s"
        assert cli.main(["synth", "--n", "100", "--out", str(synth_dir)]) == 0
        files = {"data": synth_dir / "data.csv", "schema": synth_dir / "schema.json"}
        files[missing].unlink()
        path = write_config(tmp_path, data={"path": str(files["data"]),
                                            "schema": str(files["schema"])},
                            output_dir=str(tmp_path / "out"))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_synth_onto_a_file_exit_one(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert cli.main(["synth", "--n", "100", "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_synth_subcommand(self, tmp_path):
        out = tmp_path / "synth"
        assert cli.main(["synth", "--n", "100", "--numeric", "3", "--categorical", "1",
                         "--separation", "1.5", "--seed", "3", "--out", str(out)]) == 0
        assert (out / "data.csv").exists() and (out / "schema.json").exists()

    def test_check_dp_subcommand(self, capsys):
        assert cli.main(["check-dp", "--epsilon", "0.5", "--trials", "20000"]) == 0
        assert "passed=True" in capsys.readouterr().out

    def test_audit_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["audit", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        first = run_sweep(load_config(path)).rows[0].report
        assert f"utility_loss: {first.utility_loss:.4f}\n" in out
        assert f"privacy_leakage: {first.privacy_leakage:.4f}\n" in out

    def test_csv_data_source(self, tmp_path):
        synth_dir = tmp_path / "s"
        assert cli.main(["synth", "--n", "400", "--separation", "2.0", "--out", str(synth_dir)]) == 0
        cfg_path = write_config(
            tmp_path,
            data={"path": str(synth_dir / "data.csv"), "schema": str(synth_dir / "schema.json")},
            output_dir=str(tmp_path / "out_csv"),
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "out_csv" / "results.csv").read_text()
        assert text.count("\n") == 1 + 1 * 2 * 2


def test_dataset_loading_matches_between_synth_and_emitted_csv(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    ds = load_experiment_dataset(cfg)
    assert ds.n_rows == 400
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
