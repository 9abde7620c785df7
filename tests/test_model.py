import numpy as np
import pytest
from scipy.optimize import minimize

from dp_la import pipelines
from dp_la.data import four_way_split, preprocess, synth_generate
from dp_la.mechanisms import PrivacyBudget, RngState
from dp_la.model import (
    LogisticModel,
    TrainConfig,
    _design,
    _evaluate,
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


def objective_and_gradient(X, y_pm, lam):
    """J(w, b) and its gradient over (w, b), through the trainer's own helpers."""
    Zy = _design(X, y_pm)
    ridge, linear = _penalties(X.shape[1], X.shape[0], lam)

    def objective(w, b):
        return _evaluate(Zy, np.append(w, b), ridge, linear)[0]

    def gradient(w, b):
        theta = np.append(w, b)
        _, m, e = _evaluate(Zy, theta, ridge, linear)
        g = _gradient(Zy, theta, m, e, ridge, linear)
        return g[:-1], float(g[-1])

    return objective, gradient


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
        raw, schema = synth_generate(1000, 5, 2, 2.0, seed=7)
        ds = preprocess(raw, schema)
        split = four_way_split(ds, seed=0)
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

    def test_deterministic_bits(self):
        raw, schema = synth_generate(200, 3, 1, 1.0, seed=2)
        ds = preprocess(raw, schema)
        for linear_term in (None, np.linspace(-3.0, 3.0, ds.n_features)):
            a = train(ds.features, ds.labels, TrainConfig(), linear_term=linear_term)
            b = train(ds.features, ds.labels, TrainConfig(), linear_term=linear_term)
            assert np.array_equal(a.weights, b.weights)
            assert a.bias == b.bias and a.final_objective == b.final_objective
            assert a.iterations == b.iterations and a.gradient_norm == b.gradient_norm


def default_victim_train():
    """Victim-train rows of the default sweep's data (synth n=2000, seed 7)."""
    ds = preprocess(*synth_generate(2000, 5, 2, 1.0, seed=7))
    split = four_way_split(ds, seed=1)
    return ds.features[split.victim_train], ds.labels[split.victim_train]


class TestNewton:
    def test_lam_zero_on_separable_data_stays_finite_within_the_cap(self):
        # acceptance criterion 8's overfit victim: 60 rows, 40 features
        ds = preprocess(*synth_generate(240, 40, 0, 0.35, seed=101))
        split = four_way_split(ds, 1)
        X, y = ds.features[split.victim_train], ds.labels[split.victim_train]
        for epochs in (3, 2000):
            model = train(X, y, TrainConfig(lam=0.0, epochs=epochs))
            assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
            assert 0 < model.iterations <= epochs
            assert np.isfinite(model.gradient_norm)
        assert accuracy(predict(model, X), y) == 1.0  # separable: no finite minimiser

    def test_stop_reason_names_the_exit_taken(self):
        ds = preprocess(*synth_generate(300, 4, 1, 1.0, seed=4))
        converged = train(ds.features, ds.labels, TrainConfig())
        assert converged.stop == "gradient" and converged.gradient_norm < 1e-10
        capped = train(ds.features, ds.labels, TrainConfig(epochs=1))
        assert capped.stop == "cap" and capped.iterations == 1
        assert capped.gradient_norm > 1e-10
        assert make_model([1.0], 0.0).stop is None

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
        ds = preprocess(*synth_generate(2000, 5, 2, 1.0, seed=7))
        X, y = ds.features[:500], ds.labels[:500]
        exact = train(X, y, TrainConfig(lam=0.0))
        tiny = train(X, y, TrainConfig(lam=1e-20))
        assert tiny.stop == exact.stop == "gradient"
        np.testing.assert_allclose(tiny.weights, exact.weights, rtol=0, atol=1e-8)
        assert tiny.bias == pytest.approx(exact.bias, rel=0, abs=1e-8)

    def test_hessian_buffer_keeps_the_product_bits(self):
        rng = np.random.default_rng(8)
        for n, d in ((500, 11), (2000, 23)):
            Zy = _design(rng.random((n, d)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
            ridge, _ = _penalties(d, n, 1e-4)
            e = np.exp(-np.abs(Zy @ rng.normal(size=d + 1)))
            expected = (Zy.T * (e / (1.0 + e) ** 2)) @ Zy / n
            expected.flat[:: d + 2] += ridge
            got = _hessian(Zy, e, ridge, np.empty_like(Zy))
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_objective_perturbation_releases_the_exact_minimiser(self, monkeypatch):
        X, y = default_victim_train()
        seen = {}
        original = pipelines.train

        def capture(features, labels, config, linear_term=None):
            seen.update(lam=config.lam, linear_term=linear_term)
            return original(features, labels, config, linear_term=linear_term)

        monkeypatch.setattr(pipelines, "train", capture)
        released = pipelines.objective_perturb_train(X, y, PrivacyBudget(10.0), TrainConfig(),
                                                     RngState(0).substream("erm-noise"))

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
        Zy = _design(X, y_pm)
        ridge, linear = _penalties(3, 40, 0.1, linear_term=rng.normal(size=3))
        h = 1e-6

        def gradient(theta):
            return _gradient(Zy, theta, *_evaluate(Zy, theta, ridge, linear)[1:], ridge, linear)

        for _ in range(5):
            theta = rng.normal(size=4)
            H = _hessian(Zy, _evaluate(Zy, theta, ridge, linear)[2], ridge, np.empty_like(Zy))
            num = np.column_stack([(gradient(theta + h * u) - gradient(theta - h * u)) / (2 * h)
                                   for u in np.eye(4)])
            np.testing.assert_allclose(H, num, rtol=1e-6, atol=1e-8)

    def test_objective_never_increases(self):
        raw, schema = synth_generate(300, 4, 0, 1.0, seed=4)
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

