"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with the measured values so the run log doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dp_la import cli
from dp_la.audit import AuditReport, run_mia, train_attack
from dp_la.data import SynthSpec, four_way_split, preprocess, synth_generate
from dp_la.experiment import ExperimentConfig, run_sweep
from dp_la.mechanisms import PrivacyBudget, RngState, empirical_dp_check, sample_laplace
from dp_la.model import (TrainConfig, _design, _evaluate, _gradient, _penalties, predict_proba,
                         train)
from dp_la.pipelines import DpMethod, run_pipeline, shared_part, victim_view


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def trend_sweep():
    """Shared n=8000 sweep over the full epsilon grid (criteria 5-7)."""
    cfg = ExperimentConfig(
        data=SynthSpec(n=8000, d_numeric=5, d_categorical=2, separation=1.0, seed=7),
        seeds=(1, 2, 3, 4, 5),
    )
    return cfg, run_sweep(cfg)


def medians(cfg, results, method, field):
    out = []
    for eps in cfg.epsilons:
        rows = [r.report for r in results.rows
                if r.cell.method is method and r.cell.epsilon == eps and r.report]
        out.append(float(np.median([getattr(r, field) for r in rows])))
    return out


def test_criterion_1_laplace_distribution():
    start = time.perf_counter()
    samples = np.asarray(sample_laplace(1.0, RngState(7), size=100_000))
    variance = float(samples.var())
    ks = stats.kstest(samples, stats.laplace(scale=1.0).cdf).statistic
    elapsed = time.perf_counter() - start
    ok = abs(variance - 2.0) / 2.0 < 0.05 and ks < 0.01 and elapsed < 1.0
    report(1, ok, f"laplace variance={variance:.4f} (target 2.0±5%), KS={ks:.5f} (<0.01), "
                  f"runtime={elapsed:.2f}s (<1s)")
    assert ok


def test_criterion_2_empirical_dp_bound():
    start = time.perf_counter()
    results = []
    for eps in (0.1, 0.5, 1.0, 2.0):
        rep = empirical_dp_check(PrivacyBudget(eps), trials=100_000, rng=RngState(0))
        results.append((eps, rep))
    elapsed = time.perf_counter() - start
    ok = all(r.passed for _, r in results) and elapsed < 30.0
    detail = ", ".join(f"eps={e}: ratio={r.max_ratio:.3f}<={math.exp(e) * 1.2:.3f}"
                       for e, r in results)
    report(2, ok, f"{detail}; runtime={elapsed:.1f}s (<30s)")
    assert ok


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 5))
    y_pm = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    lam = 1e-4
    h = 1e-5
    # the trainer's helpers take a stack of problems, its vectors as rows
    ZT = _design(X, y_pm)[None]
    ridge, linear = (v[None, None] for v in _penalties(5, 50, lam))

    def objective(w, b):
        return _evaluate(ZT, np.append(w, b)[None, None], ridge, linear)[0][0]

    worst = 0.0
    for _ in range(20):
        w = rng.normal(scale=0.8, size=5)
        b = float(rng.normal())
        theta = np.append(w, b)[None, None]
        analytic = _gradient(ZT, theta, *_evaluate(ZT, theta, ridge, linear)[1:], ridge,
                             linear)[0, 0]
        num = np.empty(6)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            num[i] = (objective(w + e, b) - objective(w - e, b)) / (2 * h)
        num[5] = (objective(w, b + h) - objective(w, b - h)) / (2 * h)
        rel = float((np.abs(analytic - num) / np.maximum(np.abs(num), 1e-8)).max())
        worst = max(worst, rel)
    ok = worst < 1e-4
    report(3, ok, f"max relative gradient error={worst:.2e} (<1e-4) on n=50, d=5")
    assert ok


def test_criterion_4_large_epsilon_consistency():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        data=SynthSpec(n=4000, d_numeric=5, d_categorical=2, separation=2.0, seed=7),
        epsilons=(10_000.0,),
        seeds=(1, 2, 3, 4, 5),
    )
    results = run_sweep(cfg)
    med = {}
    for method in cfg.methods:
        rows = [r.report for r in results.rows if r.cell.method is method and r.report]
        med[method.value] = float(np.median([r.utility_loss for r in rows]))
    elapsed = time.perf_counter() - start
    ok = all(abs(v) < 0.01 for v in med.values()) and elapsed < 180.0
    detail = ", ".join(f"{k}={v:+.4f}" for k, v in med.items())
    report(4, ok, f"median utility loss at eps=1e4: {detail} (|.|<0.01); "
                  f"runtime={elapsed:.0f}s (<180s)")
    assert ok


def test_criterion_5_utility_trend(trend_sweep):
    cfg, results = trend_sweep
    ok = True
    details = []
    for method in (DpMethod.PREDICTION_PERTURBATION, DpMethod.OBJECTIVE_PERTURBATION):
        uls = medians(cfg, results, method, "utility_loss")
        inversions = [round(uls[i + 1] - uls[i], 6) for i in range(len(uls) - 1)
                      if uls[i + 1] > uls[i]]
        method_ok = len(inversions) <= 1 and all(v <= 0.02 for v in inversions)
        ok = ok and method_ok
        details.append(f"{method.value}: UL={['%+.3f' % u for u in uls]} inversions={inversions}")
    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_leakage_trend(trend_sweep):
    cfg, results = trend_sweep
    leaks = medians(cfg, results, DpMethod.PREDICTION_PERTURBATION, "privacy_leakage")
    at_small = leaks[0]  # eps = 0.01
    high = [l for eps, l in zip(cfg.epsilons, leaks) if eps >= 1.0]
    ok = all(l >= at_small for l in high)
    plateau = float(np.median(high))
    report(6, ok, f"prediction-perturbation leakage at eps=0.01: {at_small:+.4f}; "
                  f"at eps>=1: {['%+.4f' % l for l in high]} (each >= value at 0.01); "
                  f"measured plateau={plateau:+.4f} vs 0.02 literature reference")
    assert ok


def test_criterion_7_trr_near_zero(trend_sweep):
    cfg, results = trend_sweep
    trr = medians(cfg, results, DpMethod.PREDICTION_PERTURBATION, "trr_rate")
    ok = all(v <= 0.02 for v in trr)
    report(7, ok, f"prediction-perturbation median trr_rate per eps: "
                  f"{['%.3f' % v for v in trr]} (each <= 0.02)")
    assert ok


def leakage(counts: tuple[int, int], members: int, nonmembers: int) -> float:
    """Privacy leakage of run_mia's (true positives, false positives), as the
    sweep's AuditReport derives it."""
    return AuditReport(1.0, 1.0, *counts, members, nonmembers).privacy_leakage


def test_criterion_8_overfit_mia_and_mitigation():
    vic_cfg = TrainConfig(lam=0.0, epochs=2000)
    base_leaks, pate_leaks = [], []
    for seed in (1, 2, 3, 4, 5):
        raw, schema = synth_generate(SynthSpec(240, 40, 0, 0.35, seed=100 + seed))
        ds = preprocess(raw, schema)
        split = four_way_split(ds, RngState(seed))
        victim = train(ds.features[split.victim_train], ds.labels[split.victim_train], vic_cfg)
        shadow = train(ds.features[split.attack_train], ds.labels[split.attack_train], vic_cfg)
        attack = train_attack(
            predict_proba(shadow, ds.features[split.attack_train]), ds.labels[split.attack_train],
            predict_proba(shadow, ds.features[split.attack_test]), ds.labels[split.attack_test],
            vic_cfg)
        rng = RngState(seed)
        rows = victim_view(ds, split)
        out = run_mia(attack, predict_proba(victim, rows.train_features), rows.train_labels,
                      predict_proba(victim, rows.test_features), rows.test_labels)
        base_leaks.append(leakage(out, len(rows.train_labels), len(rows.test_labels)))

        votes = shared_part(DpMethod.PREDICTION_PERTURBATION, rows, vic_cfg,
                            rng.substream("p"), 10)
        res = run_pipeline(DpMethod.PREDICTION_PERTURBATION, rows, votes, PrivacyBudget(0.1),
                           vic_cfg, rng.substream("a"))
        out_p = run_mia(attack, res.train_proba, rows.train_labels, res.test_proba,
                        rows.test_labels)
        pate_leaks.append(leakage(out_p, len(rows.train_labels), len(rows.test_labels)))
    base_med = float(np.median(base_leaks))
    pate_med = float(np.median(pate_leaks))
    ok = base_med >= 0.05 and (pate_med <= base_med / 2 or pate_med < 0.05)
    report(8, ok, f"overfit victim leakage per seed {['%+.3f' % v for v in base_leaks]} "
                  f"median={base_med:+.3f} (>=0.05); prediction perturbation at eps=0.1 "
                  f"median={pate_med:+.3f} (>=50% reduction or <0.05)")
    assert ok


def test_criterion_9_byte_determinism(tmp_path):
    cfg = {
        "data": {"synth": {"n": 400, "d_numeric": 5, "d_categorical": 2,
                            "separation": 2.0, "seed": 7}},
        "epsilons": [0.1, 10.0],
        "seeds": [1, 2],
        "master_seed": 3,
    }
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name),
                         "--threads", threads])
        assert code == 0
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, ok, f"results.csv byte-identical across reruns and thread counts "
                  f"({len(outputs[0])} bytes)")
    assert ok


def test_criterion_10_full_default_sweep(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": {"synth": {"n": 2000, "d_numeric": 5, "d_categorical": 2,
                            "separation": 1.0, "seed": 7}},
    }))
    start = time.perf_counter()
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    figs = [f"fig_{name}.csv" for name in ("utility_loss", "privacy_leakage", "trr")]
    figs_exist = all((tmp_path / "out" / f).exists() for f in figs)
    ok = code == 0 and len(lines) == 1 + 105 and figs_exist and elapsed < 300.0
    report(10, ok, f"default sweep (3 methods x 7 eps x 5 seeds on synth n=2000): "
                   f"exit={code}, rows={len(lines) - 1}/105, figure series={figs_exist}, "
                   f"runtime={elapsed:.0f}s (<300s)")
    assert ok
