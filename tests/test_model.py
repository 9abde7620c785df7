import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from dp_la import model as model_mod
from dp_la import pipelines
from dp_la.data import SynthSpec, four_way_split, preprocess, synth_generate
from dp_la.experiment import ExperimentConfig, emit_report, run_sweep
from dp_la.mechanisms import PrivacyBudget, RngState
from dp_la.model import (
    LogisticModel,
    TrainConfig,
    _BLOCK,
    _EPS,
    _GRADIENT_TOL,
    _MAX_HALVINGS,
    _ROUNDING,
    _design,
    _dots,
    _evaluate,
    _fit,
    _gradient,
    _hessian,
    _penalties,
    accuracy,
    predict,
    predict_proba,
    train,
)


def make_model(weights, bias):
    return LogisticModel(np.asarray(weights, dtype=float), float(bias), 0.0)


def evaluate_one(ZT, theta, ridge, linear):
    """The trainer's J, margins, e = exp(-|m|) and gradient at one theta, as
    a stack of one whose vectors are rows."""
    ZT, theta, ridge, linear = ZT[None], theta[None, None], ridge[None, None], linear[None, None]
    j, m, e = _evaluate(ZT, theta, ridge, linear)
    return j[0], m[0, 0], e[0, 0], _gradient(ZT, theta, m, e, ridge, linear)[0, 0]


def objective_and_gradient(X, y_pm, lam):
    """J(w, b) and its gradient over (w, b), through the trainer's own helpers."""
    ZT = _design(X, y_pm)
    ridge, linear = _penalties(X.shape[1], X.shape[0], lam)

    def objective(w, b):
        return evaluate_one(ZT, np.append(w, b), ridge, linear)[0]

    def gradient(w, b):
        g = evaluate_one(ZT, np.append(w, b), ridge, linear)[3]
        return g[:-1], float(g[-1])

    return objective, gradient


def reference_evaluate(ZT, theta, ridge, linear):
    """J at one theta, with the margins m = theta @ ZT and e = exp(-|m|), in
    1-D arithmetic."""
    m = theta @ ZT
    e = np.exp(-np.abs(m))
    loss = float((np.log1p(e) - np.minimum(m, 0.0)).sum()) / m.shape[0]
    return loss + 0.5 * float(theta @ (ridge * theta)) + float(linear @ theta), m, e


def reference_fit(X, y_pm, lam, max_iter, linear_term=None):
    """Damped Newton on one table, written for a lone problem with 1-D
    vectors: the oracle that ``_fit`` must match bit for bit on any table,
    alone or in a stack. It shares the trainer's data layout (``_design``,
    ``_penalties``), its blocked Hessian (``_hessian``, checked on its own
    in TestNewton) and its constants; evaluation, gradient, step rule,
    halving and stops are its own."""
    n, d = X.shape
    ZT = _design(X, y_pm)
    buf = np.empty((d + 1, min(n, _BLOCK)))
    ridge, linear = _penalties(d, n, lam, linear_term)
    linear_norm = math.sqrt(linear @ linear)
    theta = np.zeros(d + 1)
    j_cur, m, e = reference_evaluate(ZT, theta, ridge, linear)
    iterations = 0
    while True:
        sigmoid_neg = np.where(m >= 0.0, e, 1.0) / (1.0 + e)
        g = ridge * theta + linear - ZT @ sigmoid_neg / n
        gradient_norm = math.sqrt(g @ g)
        if gradient_norm < _GRADIENT_TOL:
            stop = "gradient"
            break
        if iterations == max_iter:
            stop = "cap"
            break
        H = _hessian(ZT, e, ridge, buf)
        # H can be singular: lam lost in its rounding, or every curvature underflowed
        if lam <= _EPS * H.diagonal().max() or H[d, d] == 0.0:
            step = np.linalg.lstsq(H, -g, rcond=None)[0]
        else:
            step = np.linalg.solve(H, -g)
        slack = _ROUNDING * (abs(j_cur) + 2.0 * linear_norm * math.sqrt(theta[:d] @ theta[:d]))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            theta_new = theta + t * step
            j_new, m_new, e_new = reference_evaluate(ZT, theta_new, ridge, linear)
            if j_new <= j_cur + slack:
                break
            t *= 0.5
        else:
            stop = "no_descent"
            break
        theta, j_cur, m, e = theta_new, j_new, m_new, e_new
        iterations += 1
    return LogisticModel(theta[:d], float(theta[d]), j_cur, iterations, gradient_norm, stop)


class TestTrain:
    def test_separable_two_points(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train(X, y, TrainConfig())
        assert accuracy(predict(model, X), y) == 1.0

    def test_huge_regularization_shrinks_weights(self):
        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array([0, 1, 0, 1])
        model = train(X, y, TrainConfig(lam=1e6))
        assert np.linalg.norm(model.weights) < 1e-2

    def test_matches_independent_convex_solver_on_synth(self):
        raw, schema = synth_generate(SynthSpec(1000, 5, 2, 2.0, seed=7))
        ds = preprocess(raw, schema)
        split = four_way_split(ds, RngState(0))
        X, y = ds.features[split.victim_train], ds.labels[split.victim_train]
        Xt, yt = ds.features[split.victim_test], ds.labels[split.victim_test]
        cfg = TrainConfig()
        model = train(X, y, cfg)
        acc = accuracy(predict(model, Xt), yt)
        assert acc > 0.85

        # independent solve of the same convex objective
        y_pm = np.where(y == 1, 1.0, -1.0)
        d = X.shape[1]
        objective, gradient = objective_and_gradient(X, y_pm, cfg.lam)
        res = minimize(
            lambda z: objective(z[:d], z[d]),
            np.zeros(d + 1),
            jac=lambda z: np.append(*gradient(z[:d], z[d])),
            method="L-BFGS-B",
        )
        ref = make_model(res.x[:d], res.x[d])
        assert abs(acc - accuracy(predict(ref, Xt), yt)) < 0.02

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            train(np.zeros((4, 1)), np.ones(4, dtype=int), TrainConfig())

    def test_non_finite_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            train(X, np.array([0, 1]), TrainConfig())

    @pytest.mark.parametrize("linear_term, message", [
        (np.float64(5.0), "shape"),  # would be broadcast onto every weight
        (np.ones(2), "shape"),
        (np.ones((3, 1)), "shape"),
        ([[1.0, 2.0, 3.0]], "shape"),
        (np.array([1.0, np.nan, 0.0]), "finite"),
        ([0.0, np.inf, 0.0], "finite"),
    ])
    def test_malformed_linear_term_rejected(self, linear_term, message):
        X = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=f"linear_term.*{message}"):
            train(X, np.array([0, 1, 1]), TrainConfig(), linear_term=linear_term)

    def test_linear_term_with_lam_zero_rejected(self):
        # without the ridge this objective falls without bound: the fit would
        # stop on the cap with weights near 1e11 and raise nothing
        X = np.random.default_rng(5).random((60, 3))
        with pytest.raises(ValueError, match="linear_term needs lam > 0"):
            train(X, np.arange(60) % 2, TrainConfig(lam=0.0), linear_term=[500.0, -300.0, 200.0])

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros(4), np.array([0, 1, 0, 1]), r"2-D matrix, got shape \(4,\)"),
        (np.zeros((4, 2)), np.array([0, 1, 0]), "disagree on the number of rows"),
        (np.zeros((1, 2)), np.array([1]), "at least 2 training rows"),
        (np.zeros((3, 2)), np.array([0, 1, 2]), r"labels must be in \{0, 1\}, got \[0 1 2\]"),
    ])
    def test_malformed_inputs_rejected(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            train(features, labels, TrainConfig())

    @pytest.mark.parametrize("field, value, message", [
        ("lam", -1e-3, "lam must be non-negative, got -0.001"),
        ("epochs", 0, "epochs must be positive, got 0"),
        ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
    ])
    def test_config_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    def test_linear_term_may_be_a_list(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
        y = np.array([0, 1, 1])
        as_list = train(X, y, TrainConfig(), linear_term=[0.5, -1.0])
        as_array = train(X, y, TrainConfig(), linear_term=np.array([0.5, -1.0]))
        assert model_bits(as_list) == model_bits(as_array)

    def test_stack_gives_each_tables_model(self):
        rng = np.random.default_rng(40)
        X = rng.random((4, 50, 3))
        y = (X[..., 0] + 0.3 * rng.normal(size=(4, 50)) > 0.5).astype(int)
        for linear_term in (None, [0.5, -1.0, 2.0]):
            stacked = train(X, y, TrainConfig(), linear_term=linear_term)
            alone = [train(x, t, TrainConfig(), linear_term=linear_term) for x, t in zip(X, y)]
            assert isinstance(stacked, tuple)
            assert [model_bits(m) for m in stacked] == [model_bits(m) for m in alone]

    @pytest.mark.parametrize("change, message", [
        (lambda X, y: (X, y[:, 1:]), "disagree on the number of rows"),
        (lambda X, y: (X, y[0]), "disagree on the number of rows"),
        (lambda X, y: (X[:0], y[:0]), "at least 2 training rows"),
        (lambda X, y: (X, np.concatenate([y[:2], np.ones((1, 20), dtype=int)])), "single class"),
        (lambda X, y: (X + np.array([0.0, 0.0, np.inf])[:, None, None], y), "non-finite"),
        (lambda X, y: (X[:, :1], y[:, :1]), "at least 2 training rows"),
    ], ids=["rows", "one-label-row", "empty", "single-class", "non-finite", "one-row"])
    def test_stack_checks_each_table(self, change, message):
        X = np.random.default_rng(41).random((3, 20, 2))
        y = np.tile(np.arange(20) % 2, (3, 1))
        with pytest.raises(ValueError, match=message):
            train(*change(X, y), TrainConfig())

    def test_stack_linear_term_has_one_entry_per_feature(self):
        X = np.random.default_rng(42).random((2, 20, 3))
        y = np.tile(np.arange(20) % 2, (2, 1))
        with pytest.raises(ValueError, match=r"linear_term must have shape \(3,\), got \(2, 3\)"):
            train(X, y, TrainConfig(), linear_term=np.ones((2, 3)))

    def test_deterministic_bits(self):
        raw, schema = synth_generate(SynthSpec(200, 3, 1, 1.0, seed=2))
        ds = preprocess(raw, schema)
        for linear_term in (None, np.linspace(-3.0, 3.0, ds.n_features)):
            a = train(ds.features, ds.labels, TrainConfig(), linear_term=linear_term)
            b = train(ds.features, ds.labels, TrainConfig(), linear_term=linear_term)
            assert np.array_equal(a.weights, b.weights)
            assert a.bias == b.bias and a.final_objective == b.final_objective
            assert a.iterations == b.iterations and a.gradient_norm == b.gradient_norm


def default_victim_train():
    """Victim-train rows of the default sweep's data (synth n=2000, seed 7)."""
    ds = preprocess(*synth_generate(SynthSpec(2000, 5, 2, 1.0, seed=7)))
    split = four_way_split(ds, RngState(1))
    return ds.features[split.victim_train], ds.labels[split.victim_train]


class TestNewton:
    def test_lam_zero_on_separable_data_stays_finite_within_the_cap(self):
        # acceptance criterion 8's overfit victim: 60 rows, 40 features
        ds = preprocess(*synth_generate(SynthSpec(240, 40, 0, 0.35, seed=101)))
        split = four_way_split(ds, RngState(1))
        X, y = ds.features[split.victim_train], ds.labels[split.victim_train]
        for epochs in (3, 2000):
            model = train(X, y, TrainConfig(lam=0.0, epochs=epochs))
            assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
            assert 0 < model.iterations <= epochs
            assert np.isfinite(model.gradient_norm)
        assert accuracy(predict(model, X), y) == 1.0  # separable: no finite minimiser

    def test_stop_reason_names_the_exit_taken(self):
        ds = preprocess(*synth_generate(SynthSpec(300, 4, 1, 1.0, seed=4)))
        converged = train(ds.features, ds.labels, TrainConfig())
        assert converged.stop == "gradient" and converged.gradient_norm < 1e-10
        capped = train(ds.features, ds.labels, TrainConfig(epochs=1))
        assert capped.stop == "cap" and capped.iterations == 1
        assert capped.gradient_norm > 1e-10
        assert make_model([1.0], 0.0).stop is None

    def test_vanishing_curvature_takes_the_minimum_norm_step(self):
        # A linear term -1 on separable data puts the minimiser at w = 1 / (n lam):
        # every margin passes 745, each row's curvature e/(1+e)^2 underflows to 0,
        # and H = diag(lam, 0) is singular although lam > 0. The minimum-norm step
        # lands on that w exactly; an LU solve raises LinAlgError.
        X = np.linspace(-1.0, 1.0, 20)[:, None]
        y = (X[:, 0] > 0).astype(int)
        for lam in (1e-20, 1e-12):
            model = train(X, y, TrainConfig(lam=lam), linear_term=np.array([-1.0]))
            assert model.stop == "gradient"
            assert model.weights[0] == pytest.approx(1.0 / (20 * lam), rel=1e-12)

    def test_singular_hessian_does_not_raise(self):
        # lam = 0 with one-hot columns whose sum is the bias column
        X, y = default_victim_train()
        model = train(X, y, TrainConfig(lam=0.0))
        assert np.all(np.isfinite(model.weights))
        assert model.gradient_norm < 1e-8 and model.iterations < 100

    def test_lam_zero_step_keeps_theta_off_the_null_space(self):
        # Each one-hot block sums to the bias column, so v = (1 on the block, -1 on
        # the bias) spans the loss's flat directions at lam = 0. The minimum-norm
        # step never moves theta along v; an LU solve would.
        X, y = default_victim_train()
        model = train(X, y, TrainConfig(lam=0.0))
        theta = np.append(model.weights, model.bias)
        for block in (slice(5, 8), slice(8, 11)):  # c0=a..c, c1=a..c
            assert np.array_equal(X[:, block].sum(axis=1), np.ones(len(X)))
            v = np.zeros(theta.size)
            v[block] = 1.0
            v[-1] = -1.0
            assert abs(v @ theta) <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(theta)

    def test_ridge_below_the_hessians_rounding_takes_the_minimum_norm_step(self):
        # lam = 1e-20 changes no bit of H, so an LU step would wander along the
        # one-hot/bias null direction; the minimum-norm step stays with lam = 0
        ds = preprocess(*synth_generate(SynthSpec(2000, 5, 2, 1.0, seed=7)))
        X, y = ds.features[:500], ds.labels[:500]
        exact = train(X, y, TrainConfig(lam=0.0))
        tiny = train(X, y, TrainConfig(lam=1e-20))
        assert tiny.stop == exact.stop == "gradient"
        np.testing.assert_allclose(tiny.weights, exact.weights, rtol=0, atol=1e-8)
        assert tiny.bias == pytest.approx(exact.bias, rel=0, abs=1e-8)

    def test_hessian_buffer_keeps_the_product_bits(self):
        rng = np.random.default_rng(8)
        for n, d in ((500, 11), (2000, 23)):
            ZT = _design(rng.random((n, d)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
            ridge, _ = _penalties(d, n, 1e-4)
            e = np.exp(-np.abs(rng.normal(size=d + 1) @ ZT))
            W = ZT * (np.sqrt(e) / (1.0 + e))
            expected = W @ W.T / n
            expected.flat[:: d + 2] += ridge
            buf = np.empty_like(ZT)
            _hessian(ZT, e[::-1], ridge, buf)  # a reused buffer changes no bit
            got = _hessian(ZT, e, ridge, buf)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_blocked_hessian_matches_the_row_major_product(self, n):
        rng = np.random.default_rng(n)
        d = 11
        X = rng.normal(size=(n, d))
        y_pm = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        ridge, _ = _penalties(d, n, 1e-4)
        ZT = _design(X, y_pm)
        e = np.exp(-np.abs(rng.normal(size=d + 1) @ ZT))
        # the row-major reference, written out: row i of Zy is y_i (x_i, 1)
        Zy = y_pm[:, None] * np.column_stack([X, np.ones(n)])
        expected = (Zy.T * (e / (1.0 + e) ** 2)) @ Zy / n + np.diag(ridge)
        got = _hessian(ZT, e, ridge, np.empty((d + 1, min(n, _BLOCK))))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.abs(expected).max())
        assert np.array_equal(got, got.T)

    def test_fit_spanning_three_blocks_reaches_the_minimiser(self):
        n, d, lam = 2 * _BLOCK + 500, 6, 1e-4
        rng = np.random.default_rng(12)
        X = rng.normal(size=(n, d))
        y = (X @ rng.normal(size=d) + rng.logistic(size=n) > 0).astype(int)
        model = train(X, y, TrainConfig(lam=lam))
        assert model.stop == "gradient"

        # independent solve of the same objective, written out here
        y_pm = np.where(y == 1, 1.0, -1.0)

        def objective_and_gradient(z):
            w, b = z[:d], z[d]
            margins = y_pm * (X @ w + b)
            value = np.mean(np.logaddexp(0.0, -margins)) + 0.5 * lam * w @ w
            coef = -y_pm * np.exp(-np.logaddexp(0.0, margins)) / n
            return value, np.append(X.T @ coef + lam * w, coef.sum())

        res = minimize(objective_and_gradient, np.zeros(d + 1), jac=True, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 10_000})
        assert np.linalg.norm(res.jac) < 1e-8  # the reference itself is converged
        ours = np.append(model.weights, model.bias)
        assert np.linalg.norm(ours - res.x) / np.linalg.norm(res.x) < 1e-6

    def test_training_allocates_no_second_design_matrix(self):
        # the design matrix ZT holds n (d+1) floats; the Hessian's buffer
        # must not hold another n (d+1)
        n, d = 20_000, 23
        rng = np.random.default_rng(5)
        X = rng.random((n, d))
        y = (X @ rng.normal(size=d) + rng.logistic(size=n) > 0).astype(int)
        tracemalloc.start()
        try:
            train(X, y, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * (d + 1) * 8

    def test_objective_perturbation_releases_the_exact_minimiser(self, monkeypatch):
        X, y = default_victim_train()
        seen = {}
        original = pipelines.train

        def capture(features, labels, config, linear_term=None):
            seen.update(lam=config.lam, linear_term=linear_term)
            return original(features, labels, config, linear_term=linear_term)

        monkeypatch.setattr(pipelines, "train", capture)
        noise = pipelines.draw_objective_noise(X, RngState(0).substream("erm-noise"))
        released = pipelines.objective_perturb_train(X, y, PrivacyBudget(10.0), TrainConfig(),
                                                     noise)

        # independent solve of the same perturbed objective, written out here
        n, d = X.shape
        y_pm = np.where(y == 1, 1.0, -1.0)
        lam, v = seen["lam"], seen["linear_term"]

        def objective_and_gradient(z):
            w, b = z[:d], z[d]
            margins = y_pm * (X @ w + b)
            value = np.mean(np.logaddexp(0.0, -margins)) + 0.5 * lam * w @ w + v @ w / n
            coef = -y_pm * np.exp(-np.logaddexp(0.0, margins)) / n
            return value, np.append(X.T @ coef + lam * w + v / n, coef.sum())

        res = minimize(objective_and_gradient, np.zeros(d + 1), jac=True, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 10_000})
        assert np.linalg.norm(res.jac) < 1e-8  # the reference itself is converged
        ours = np.append(released.weights, released.bias)
        assert np.linalg.norm(ours - res.x) / np.linalg.norm(res.x) < 1e-6
        assert released.gradient_norm < 1e-10


def model_bits(model):
    """A model's floats as bit patterns, with its iterations and stop reason."""
    floats = np.append(model.weights, [model.bias, model.final_objective, model.gradient_norm])
    return floats.view(np.uint64).tolist(), model.iterations, model.stop


def fit_stack_and_each(X, y_pm, lam, max_iter, linear_term=None):
    """The models ``_fit`` gives a stack of tables, asserted bit-identical to
    ``_fit`` on each table alone and to ``reference_fit`` on each table,
    whose models are returned."""
    stacked = _fit(X, y_pm, lam, max_iter, linear_term)
    alone = [_fit(x, y, lam, max_iter, linear_term) for x, y in zip(X, y_pm)]
    each = [reference_fit(x, y, lam, max_iter, linear_term) for x, y in zip(X, y_pm)]
    assert isinstance(stacked, tuple) and all(isinstance(m, LogisticModel) for m in alone)
    assert [model_bits(m) for m in stacked] == [model_bits(m) for m in each]
    assert [model_bits(m) for m in alone] == [model_bits(m) for m in each]
    return each


def signed_labels(scores):
    """+1 where ``scores`` > 0, else -1, with each table's first two rows of both classes."""
    y_pm = np.where(scores > 0, 1.0, -1.0)
    y_pm[:, :2] = (1.0, -1.0)
    return y_pm


class TestStack:
    """A stack of K tables is solved in one loop; each of its K models must
    equal ``reference_fit`` on its table, bit for bit, as must ``_fit`` on
    the table alone."""

    def test_problems_finishing_at_different_iterations(self):
        rng = np.random.default_rng(20)
        X = rng.random((8, 60, 5))
        noise = rng.normal(size=(8, 60)) * np.linspace(0.1, 3.0, 8)[:, None]
        each = fit_stack_and_each(X, signed_labels(X[..., 0] - 0.5 + noise), 1e-4, 100)
        assert {m.stop for m in each} == {"gradient"}
        assert len({m.iterations for m in each}) > 1

    def test_iteration_cap(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(10, 80, 4))
        scale = np.geomspace(0.1, 10.0, 10)[:, None]
        each = fit_stack_and_each(X, signed_labels(scale * X[..., 0] + rng.normal(size=(10, 80))),
                                  1e-4, 4)
        assert {m.stop for m in each} == {"gradient", "cap"}
        assert max(m.iterations for m in each) == 4

    def test_problems_leaving_on_no_descent_while_others_go_on(self):
        # lam = 1e-20 with a large linear term: a separable table finds no
        # descent early, and the noisy tables step on after it has left
        rng = np.random.default_rng(36)
        X = 10.0 * rng.normal(size=(4, 100, 4))
        noise = 30.0 * rng.normal(size=(4, 100)) * np.array([0, 0, 1, 1])[:, None]
        each = fit_stack_and_each(X, signed_labels(X[..., 0] + noise), 1e-20, 100,
                                  100.0 * rng.normal(size=4))
        assert {m.stop for m in each} == {"gradient", "cap", "no_descent"}
        left = min(m.iterations for m in each if m.stop == "no_descent")
        assert sum(m.iterations > left for m in each) >= 2

    def test_lam_zero_takes_the_minimum_norm_step(self):
        # the last three columns are one-hot and sum to the bias column: H is singular
        rng = np.random.default_rng(22)
        X = np.concatenate([rng.random((6, 90, 3)),
                            np.eye(3)[rng.integers(0, 3, size=(6, 90))]], axis=2)
        each = fit_stack_and_each(X, signed_labels(X[..., 0] - 0.5 + rng.normal(size=(6, 90))),
                                  0.0, 100)
        assert all(np.all(np.isfinite(m.weights)) for m in each)

    def test_each_problem_keeps_its_own_step_rule(self, monkeypatch):
        # lam = 1e-16 is below eps * max diag(H) for features scaled by 10 (minimum-norm
        # step) and above it for features scaled by 0.01, whose largest diagonal entry
        # is the bias's mean curvature, at most 1/4 (LU step)
        rng = np.random.default_rng(23)
        scale = np.array([10.0, 0.01] * 3)[:, None, None]
        X = scale * rng.normal(size=(6, 70, 3))
        min_norm_steps = []
        original = model_mod._min_norm_solve

        def counting(H, rhs):
            min_norm_steps.append(1)
            return original(H, rhs)

        monkeypatch.setattr(model_mod, "_min_norm_solve", counting)
        each = fit_stack_and_each(X, signed_labels(X[..., 0] + rng.normal(size=(6, 70))),
                                  1e-16, 100)
        # the stack and the lone fits each take every step once
        assert 0 < len(min_norm_steps) / 2 < sum(m.iterations for m in each)

    def test_halved_steps(self, monkeypatch):
        # cubed normal features on separable labels make Newton overshoot
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 40, 2)) ** 3
        y_pm = np.where(X[..., 0] > 0, 1.0, -1.0)
        evaluated = []  # problems evaluated per call
        original = model_mod._evaluate

        def counting(ZT, theta, ridge, linear):
            evaluated.append(len(theta))
            return original(ZT, theta, ridge, linear)

        monkeypatch.setattr(model_mod, "_evaluate", counting)
        stacked = _fit(X, y_pm, 0.0, 20)
        each = [reference_fit(x, y, 0.0, 20) for x, y in zip(X, y_pm)]
        assert [model_bits(m) for m in stacked] == [model_bits(m) for m in each]
        # one evaluation at zero and one per accepted step when nothing is halved
        assert sum(evaluated) > sum(1 + m.iterations for m in each)
        # halving a part of the stack evaluates only that part
        assert min(evaluated) < len(X)

    def test_tables_spanning_two_hessian_blocks(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(2, _BLOCK + 7, 3))
        fit_stack_and_each(X, signed_labels(X[..., 0] + rng.logistic(size=(2, _BLOCK + 7))),
                           1e-4, 100)


class TestOneLoop:
    """``_fit`` on one table is the stack of one; it must match the 1-D
    ``reference_fit`` bit for bit, on any lam, linear term and stop."""

    def test_random_tables_match_the_reference(self):
        rng = np.random.default_rng(26)
        stops = set()
        for lam in (0.0, 1e-20, 1e-4, 0.1):
            # a linear term with lam = 0 leaves J unbounded below
            for linear in (False, True) if lam > 0 else (False,):
                for one_hot in (False, True) * 2:
                    n, d = int(rng.integers(20, 300)), int(rng.integers(1, 9))
                    X = rng.normal(size=(n, d)) * rng.choice([0.01, 1.0, 10.0])
                    if one_hot:  # three columns that sum to the bias column
                        X = np.concatenate([X, np.eye(3)[rng.integers(0, 3, size=n)]], axis=1)
                    y_pm = signed_labels((X[:, 0] + rng.normal(size=n)
                                          * rng.choice([0.0, 0.5, 3.0]))[None])[0]
                    v = rng.normal(size=X.shape[1]) * rng.choice([1.0, 100.0]) if linear else None
                    cap = int(rng.choice([3, 100]))
                    got = _fit(X, y_pm, lam, cap, linear_term=v)
                    expected = reference_fit(X, y_pm, lam, cap, linear_term=v)
                    assert model_bits(got) == model_bits(expected), (lam, linear, n, d)
                    stops.add(got.stop)
        assert stops == {"gradient", "cap", "no_descent"}

    def test_vanishing_curvature_matches_the_reference(self):
        # every margin passes 745 at the minimiser: each row's curvature underflows
        X = np.linspace(-1.0, 1.0, 20)[:, None]
        y_pm = np.where(X[:, 0] > 0, 1.0, -1.0)
        for lam, v in ((1e-20, -1.0), (1e-12, -10.0), (1e-8, -10.0)):
            got = _fit(X, y_pm, lam, 100, linear_term=np.array([v]))
            expected = reference_fit(X, y_pm, lam, 100, linear_term=np.array([v]))
            assert model_bits(got) == model_bits(expected)

    def test_stacked_products_match_lone_products(self):
        # the loop's products on stacks of rows must make, per problem, the BLAS
        # call of the lone product: ddot, and gemv on ZT for margins and gradient
        rng = np.random.default_rng(27)
        for k, m, n in ((1, 12, 500), (10, 12, 50), (3, 4, _BLOCK + 3)):
            A, v, u = rng.normal(size=(k, m, n)), rng.normal(size=(k, m)), rng.normal(size=(k, n))
            assert _dots(v[:, None], v[::-1, None]) == [a @ b for a, b in zip(v, v[::-1])]
            assert _dots(v[:, None], v[:1, None]) == [a @ v[0] for a in v]
            assert np.array_equal((v[:, None] @ A)[:, 0], [a @ b for a, b in zip(v, A)])
            assert np.array_equal((u[:, None] @ A.swapaxes(1, 2))[:, 0],
                                  [a @ b for a, b in zip(A, u)])

    def test_sweep_through_the_reference_writes_the_same_outputs(self, tmp_path, monkeypatch):
        # every lone fit of a small three-method sweep (baseline, shadow, attack,
        # input and objective perturbation) run by reference_fit instead
        cfg = ExperimentConfig(data=SynthSpec(n=400, separation=1.0, seed=7),
                               epsilons=(0.1, 10.0, 1000.0), seeds=(1, 2), num_teachers=3)
        emit_report(run_sweep(cfg), tmp_path / "shipped")
        original = model_mod._fit
        lone_fits = []

        def reference_for_lone_fits(X, y_pm, lam, max_iter, linear_term=None):
            if X.ndim == 3:
                return original(X, y_pm, lam, max_iter, linear_term)
            lone_fits.append(linear_term is not None)
            return reference_fit(X, y_pm, lam, max_iter, linear_term)

        monkeypatch.setattr(model_mod, "_fit", reference_for_lone_fits)
        emit_report(run_sweep(cfg), tmp_path / "reference")
        assert len(lone_fits) == 2 * (3 + 2 * 3) and sum(lone_fits) == 2 * 3
        for name in ("results.csv", "fig_privacy_leakage.csv", "fig_trr.csv",
                     "fig_utility_loss.csv"):
            assert ((tmp_path / "shipped" / name).read_bytes()
                    == (tmp_path / "reference" / name).read_bytes()), name
        shipped, reference = (json.loads((tmp_path / run / "summary.json").read_text())
                              for run in ("shipped", "reference"))
        assert shipped["groups"] == reference["groups"]
        fit_fields = ("fit_iterations", "fit_gradient_norm", "fit_stop")
        assert ([[c[f] for f in fit_fields] for c in shipped["timings"]["per_cell"]]
                == [[c[f] for f in fit_fields] for c in reference["timings"]["per_cell"]])


class TestGradientAndObjective:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 5))
        y_pm = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        lam = 1e-4
        h = 1e-5
        objective, gradient = objective_and_gradient(X, y_pm, lam)
        for _ in range(20):
            w = rng.normal(scale=0.8, size=5)
            b = float(rng.normal())
            gw, gb = gradient(w, b)
            num = np.empty(6)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                num[i] = (objective(w + e, b) - objective(w - e, b)) / (2 * h)
            num[5] = (objective(w, b + h) - objective(w, b - h)) / (2 * h)
            analytic = np.concatenate([gw, [gb]])
            rel = np.abs(analytic - num) / np.maximum(np.abs(num), 1e-8)
            assert rel.max() < 1e-4

    def test_hessian_matches_central_differences_of_the_gradient(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y_pm = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        ZT = _design(X, y_pm)
        ridge, linear = _penalties(3, 40, 0.1, linear_term=rng.normal(size=3))
        h = 1e-6

        def gradient(theta):
            return evaluate_one(ZT, theta, ridge, linear)[3]

        for _ in range(5):
            theta = rng.normal(size=4)
            H = _hessian(ZT, evaluate_one(ZT, theta, ridge, linear)[2], ridge,
                         np.empty((X.shape[1] + 1, min(len(X), _BLOCK))))
            num = np.column_stack([(gradient(theta + h * u) - gradient(theta - h * u)) / (2 * h)
                                   for u in np.eye(4)])
            np.testing.assert_allclose(H, num, rtol=1e-6, atol=1e-8)

    def test_objective_never_increases(self):
        raw, schema = synth_generate(SynthSpec(300, 4, 0, 1.0, seed=4))
        ds = preprocess(raw, schema)
        cfg = TrainConfig(epochs=50)
        model = train(ds.features, ds.labels, cfg)
        y_pm = np.where(ds.labels == 1, 1.0, -1.0)
        objective, _ = objective_and_gradient(ds.features, y_pm, cfg.lam)
        initial = objective(np.zeros(ds.n_features), 0.0)
        assert model.final_objective <= initial

    def test_close_to_long_run_descent_minimum(self):
        # fine solver: an independent plain GD loop run for 100x the epochs
        rng = np.random.default_rng(1)
        for seed in range(3):
            r = np.random.default_rng(seed)
            X = r.normal(size=(150, 4))
            logits = X @ r.normal(size=4)
            y = (logits + r.normal(scale=2.0, size=150) > 0).astype(int)
            if y.min() == y.max():
                continue
            cfg = TrainConfig(lam=0.05, epochs=100)
            model = train(X, y, cfg)

            y_pm = np.where(y == 1, 1.0, -1.0)
            objective, gradient = objective_and_gradient(X, y_pm, cfg.lam)
            w = np.zeros(4)
            b = 0.0
            step = cfg.learning_rate
            j = objective(w, b)
            for _ in range(cfg.epochs * 100):
                gw, gb = gradient(w, b)
                while True:
                    wn, bn = w - step * gw, b - step * gb
                    jn = objective(wn, bn)
                    if jn <= j:
                        w, b, j = wn, bn, jn
                        break
                    if step < 1e-18:
                        break
                    step *= 0.5
            assert model.final_objective - j < 1e-3


class TestPredict:
    def test_zero_model_gives_half(self):
        model = make_model([0.0, 0.0], 0.0)
        p = predict_proba(model, np.array([[1.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(p, [0.5, 0.5])

    def test_saturated_bias(self):
        model = make_model([0.0], 50.0)
        assert predict_proba(model, np.array([[0.0]]))[0] > 1 - 1e-9

    def test_negated_model_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=4)
        b = 0.7
        X = rng.normal(size=(50, 4))
        p = predict_proba(make_model(w, b), X)
        q = predict_proba(make_model(-w, -b), X)
        np.testing.assert_allclose(p + q, 1.0, atol=1e-12, rtol=0)

    def test_bits_match_the_two_branch_formula(self):
        z = np.array([-800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.3, 40.0, 800.0])
        z = np.concatenate([z, np.random.default_rng(6).normal(scale=30.0, size=200)])
        # reference: the two masked branches sigmoid(z) was computed with before
        expected = np.empty_like(z)
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
        got = predict_proba(make_model([1.0], 0.0), z[:, None])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            predict_proba(make_model([1.0, 2.0], 0.0), np.zeros((3, 3)))

    def test_tie_classifies_as_one(self):
        model = make_model([0.0], 0.0)
        np.testing.assert_array_equal(predict(model, np.zeros((4, 1))), np.ones(4, dtype=int))


class TestAccuracy:
    @pytest.mark.parametrize(
        "pred, actual, expected",
        [
            ([1, 0, 1], [1, 0, 1], 1.0),
            ([1, 1], [0, 0], 0.0),
            ([1, 0, 1, 0], [1, 1, 1, 1], 0.5),
        ],
    )
    def test_examples(self, pred, actual, expected):
        assert accuracy(np.array(pred), np.array(actual)) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy(np.array([1]), np.array([1, 0]))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.array([]), np.array([]))

