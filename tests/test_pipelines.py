import math
from dataclasses import replace

import numpy as np
import pytest

from dp_la.data import four_way_split, preprocess, synth_generate
from dp_la.mechanisms import PrivacyBudget, RngState, gaussian_sigma
from dp_la.model import LogisticModel, TrainConfig, accuracy, predict, predict_proba, train
from dp_la.pipelines import (
    DpMethod,
    _erm_noise_budget,
    _pate_shards,
    draw_input_noise,
    input_perturb,
    objective_perturb_train,
    pate_predict,
    pate_train,
    pate_vote_fraction,
    run_pipeline,
    shared_part,
    victim_view,
)

CFG = TrainConfig()


def view_for(method, ds, split, rng):
    """The victim view and ``method``'s shared part on it, from its stream ``rng``."""
    victim = victim_view(ds, split)
    return victim, shared_part(method, victim, CFG, rng, 10)


def run_any(method, ds, split, budget, rng):
    """run_pipeline for any method with its shared part from the same stream."""
    return run_pipeline(method, *view_for(method, ds, split, rng), budget, CFG, rng,
                        rng.substream("audit"))


def synth_dataset(n=1000, sep=2.0, seed=7):
    raw, schema = synth_generate(n, 5, 2, sep, seed=seed)
    return preprocess(raw, schema)


def perturb(X, budget, rng):
    """input_perturb with noise drawn for ``X`` from ``rng``."""
    return input_perturb(X, draw_input_noise(X, rng), budget)


def class1_votes(teachers, features: np.ndarray) -> np.ndarray:
    """Per-row count of ``teachers`` voting class 1."""
    return np.sum([predict(t, features) for t in teachers], axis=0, dtype=float)


def constant_vote_ensemble(votes_for_one: int, num_teachers: int = 10) -> tuple:
    """Teachers that deterministically vote class 1 (bias +50) or class 0 (bias -50)."""
    return tuple(LogisticModel(np.zeros(1), 50.0 if i < votes_for_one else -50.0, 0.0)
                 for i in range(num_teachers))


def constant_votes(votes_for_one: int, rows: int) -> np.ndarray:
    """Class-1 vote counts of ``constant_vote_ensemble(votes_for_one)`` on ``rows`` rows."""
    return class1_votes(constant_vote_ensemble(votes_for_one), np.zeros((rows, 1)))


class TestInputPerturb:
    def test_huge_epsilon_changes_nothing_measurable(self):
        X = RngState(0).generator.random((100, 100))
        noised = perturb(X, PrivacyBudget(1e6, 1e-5), RngState(1))
        # sigma = 4.84e-6: P(any |noise| > 1e-3) over 1e4 cells is < 1e-9
        assert np.abs(noised - X).max() < 1e-3

    def test_noise_standard_deviation_matches_calibration(self):
        X = np.full((1000, 100), 0.5)
        noised = perturb(X, PrivacyBudget(1.0, 1e-5), RngState(2))
        assert (noised - X).std() == pytest.approx(4.844805262605389, rel=0.05)

    def test_input_matrix_not_mutated(self):
        X = np.full((10, 3), 0.25)
        noise = draw_input_noise(X, RngState(0))
        kept = noise.copy()
        input_perturb(X, noise, PrivacyBudget(1.0, 1e-5))
        assert np.array_equal(X, np.full((10, 3), 0.25))
        assert np.array_equal(noise, kept)

    def test_rejects_unnormalized_features(self):
        with pytest.raises(ValueError, match="normalized"):
            draw_input_noise(np.array([[1.5]]), RngState(0))

    def test_rejects_pure_dp_budget(self):
        with pytest.raises(ValueError, match="delta"):
            input_perturb(np.array([[0.5]]), np.zeros((1, 1)), PrivacyBudget(1.0))

    @pytest.mark.parametrize("epsilon", [0.01, 1.0, 1e4])
    def test_bits_match_a_draw_at_the_budgets_scale(self, epsilon):
        # normal(0, sigma) is 0 + sigma * standard_normal, so scaling one
        # standard-normal draw per cell releases the same bits at every budget
        X = RngState(3).generator.random((50, 7))
        budget = PrivacyBudget(epsilon, 1e-5)
        sigma = gaussian_sigma(DpMethod.INPUT_PERTURBATION.sensitivity, budget)
        expected = X + RngState(4).generator.normal(0.0, sigma, size=X.shape)
        got = perturb(X, budget, RngState(4))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestObjectivePerturb:
    def test_budget_reduction_formula(self):
        eps_prime, delta_lam = _erm_noise_budget(1.0, 10_000, 1e-4)
        assert eps_prime == pytest.approx(0.5537128973715805, rel=1e-12)
        assert delta_lam == 0.0

    def test_budget_reduction_matches_independent_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(100, 100_000))
            lam = float(10 ** rng.uniform(-6, -2))
            eps = float(10 ** rng.uniform(-0.5, 2))
            expected = eps - 2.0 * math.log1p(0.25 / (n * lam))
            if expected <= 0:
                continue
            assert _erm_noise_budget(eps, n, lam)[0] == pytest.approx(expected, rel=1e-12)

    def test_tiny_epsilon_takes_regularization_fallback(self):
        ds = synth_dataset(n=200, sep=1.0)
        eps_prime, delta_lam = _erm_noise_budget(0.01, 100, 1e-4)
        assert eps_prime == 0.005 and delta_lam > 0
        model = objective_perturb_train(ds.features[:100], ds.labels[:100],
                                        PrivacyBudget(0.01), CFG, RngState(3))
        assert np.all(np.isfinite(model.weights)) and math.isfinite(model.bias)

    def test_huge_epsilon_matches_baseline_accuracy(self):
        ds = synth_dataset(n=4000, sep=2.0)
        split = four_way_split(ds, RngState(0))
        X, y = ds.features[split.victim_train], ds.labels[split.victim_train]
        Xt, yt = ds.features[split.victim_test], ds.labels[split.victim_test]
        base = accuracy(predict(train(X, y, CFG), Xt), yt)
        priv_model = objective_perturb_train(X, y, PrivacyBudget(1e6), CFG, RngState(4))
        priv = accuracy(predict(priv_model, Xt), yt)
        assert abs(base - priv) < 0.01

    def test_rejects_zero_regularization(self):
        with pytest.raises(ValueError, match="regulariz"):
            objective_perturb_train(np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                                    PrivacyBudget(1.0), TrainConfig(lam=0.0), RngState(0))

    def test_rejects_nonzero_delta(self):
        with pytest.raises(ValueError, match="delta"):
            objective_perturb_train(np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                                    PrivacyBudget(1.0, 1e-5), CFG, RngState(0))

    def test_rejects_non_finite_feature(self):
        ds = synth_dataset(n=200, sep=1.0)
        X = ds.features[:100].copy()
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            objective_perturb_train(X, ds.labels[:100], PrivacyBudget(1.0), CFG, RngState(0))


class TestPateTrain:
    def test_even_shards(self):
        ds = synth_dataset(n=2000, sep=1.0)
        y = ds.labels[:1000]
        assert [len(p) for p in _pate_shards(y, 10, RngState(5))] == [100] * 10

    def test_remainder_shards(self):
        ds = synth_dataset(n=1010, sep=1.0)
        y = ds.labels[:1005]
        assert sorted(len(p) for p in _pate_shards(y, 10, RngState(5))) == [100] * 5 + [101] * 5

    def test_partition_is_disjoint_covering(self):
        ds = synth_dataset(n=400, sep=1.0)
        combined = np.concatenate(_pate_shards(ds.labels, 8, RngState(6)))
        assert len(set(combined.tolist())) == ds.n_rows == len(combined)

    def test_teachers_are_fitted_on_their_shards(self):
        ds = synth_dataset(n=400, sep=1.0)
        teachers = pate_train(ds.features, ds.labels, 8, CFG, RngState(6))
        shards = _pate_shards(ds.labels, 8, RngState(6))
        assert len(teachers) == len(shards) == 8
        for teacher, shard in zip(teachers, shards):
            expected = train(ds.features[shard], ds.labels[shard], CFG)
            np.testing.assert_array_equal(teacher.weights, expected.weights)

    def test_sharding_gives_up_after_ten_shuffles(self):
        labels = np.array([1] * 5 + [0] * 35)
        with pytest.raises(ValueError, match="could not shard the data with both classes per "
                                             "teacher after 10 shuffles"):
            pate_train(np.zeros((40, 2)), labels, 10, CFG, RngState(0))

    def test_single_teacher_rejected(self):
        ds = synth_dataset(n=400, sep=1.0)
        with pytest.raises(ValueError, match="num_teachers"):
            pate_train(ds.features, ds.labels, 1, CFG, RngState(0))

    def test_too_many_teachers_rejected(self):
        ds = synth_dataset(n=100, sep=1.0)
        with pytest.raises(ValueError, match="num_teachers"):
            pate_train(ds.features[:100], ds.labels[:100], 26, CFG, RngState(0))

    def test_rejects_non_finite_feature(self):
        ds = synth_dataset(n=400, sep=1.0)
        X = ds.features.copy()
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pate_train(X, ds.labels, 4, CFG, RngState(0))


class TestPatePredict:
    def test_unanimous_votes_win_at_large_epsilon(self):
        votes = constant_votes(0, 10_000)  # all teachers vote class 0
        out = pate_predict(10, votes, PrivacyBudget(1e4), RngState(7))
        # per the Laplace tail bound, P(class 1) < 1e-6 per row
        assert out.sum() == 0

    def test_split_votes_are_fair_coin(self):
        out = pate_predict(10, constant_votes(5, 10_000), PrivacyBudget(1.0), RngState(8))
        assert out.mean() == pytest.approx(0.5, abs=0.02)

    def test_heavy_noise_flip_rate_matches_analytic_tail(self):
        # P(class 1 | votes 10-0) = (1/4)(2 + z/b) exp(-z/b), z=10, b=200
        out = pate_predict(10, constant_votes(0, 10_000), PrivacyBudget(0.01), RngState(9))
        expected = 0.25 * (2 + 10 / 200) * math.exp(-10 / 200)
        assert 0.2 < out.mean() < 0.5
        assert out.mean() == pytest.approx(expected, abs=0.02)

    def test_noiseless_limit_equals_majority_vote(self):
        # odd teacher count: no pre-noise vote ties, so the noiseless limit is exact
        ds = synth_dataset(n=2000, sep=1.0)
        X, y = ds.features[:1000], ds.labels[:1000]
        teachers = pate_train(X, y, 11, CFG, RngState(10))
        rows = ds.features[1000:2000]
        votes = sum(predict(t, rows) for t in teachers)
        majority = (votes > 5.5).astype(int)
        out = pate_predict(11, votes, PrivacyBudget(1e8), RngState(11))
        np.testing.assert_array_equal(out, majority)

    def test_vote_fraction_clipped_to_unit_interval(self):
        frac = pate_vote_fraction(10, constant_votes(10, 500), PrivacyBudget(0.01), RngState(12))
        assert frac.min() >= 0.0 and frac.max() <= 1.0

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 4.0])
    def test_vote_fraction_noise_has_scale_one_over_epsilon(self, epsilon):
        # The release is the class-1 count alone, which one record moves by at
        # most 1, so its Laplace scale is 1/eps; median |Lap(b)| = b ln 2.
        frac = pate_vote_fraction(10, constant_votes(5, 20_000), PrivacyBudget(epsilon),
                                  RngState(13))
        noise = frac * 10 - 5
        assert np.median(np.abs(noise)) == pytest.approx(math.log(2) / epsilon, rel=0.05)

    def test_rejects_nonzero_delta(self):
        with pytest.raises(ValueError, match="delta"):
            pate_predict(10, constant_votes(0, 1), PrivacyBudget(1.0, 1e-5), RngState(0))

    def test_vote_fraction_rejects_nonzero_delta(self):
        with pytest.raises(ValueError, match="delta"):
            pate_vote_fraction(10, constant_votes(0, 1), PrivacyBudget(1.0, 1e-5), RngState(0))


@pytest.fixture(scope="module")
def setup():
    ds = synth_dataset(n=800, sep=2.0)
    return ds, four_way_split(ds, RngState(1))


class TestRunPipeline:

    def test_artifact_records_its_method(self, setup):
        ds, split = setup
        for method in DpMethod:
            res = run_any(method, ds, split, method.budget(1.0, 1e-5), RngState(1))
            assert (res.model is None) == (method is DpMethod.PREDICTION_PERTURBATION)

    def test_release_proba_is_what_the_audit_observes(self, setup):
        ds, split = setup
        members, nonmembers = ds.features[split.victim_train], ds.features[split.victim_test]
        res = run_any(DpMethod.OBJECTIVE_PERTURBATION, ds, split, PrivacyBudget(1.0), RngState(4))
        np.testing.assert_array_equal(res.train_proba, predict_proba(res.model, members))
        np.testing.assert_array_equal(res.test_proba, predict_proba(res.model, nonmembers))
        np.testing.assert_array_equal(res.predictions, predict(res.model, nonmembers))
        budget, rng, audit_rng = PrivacyBudget(1.0), RngState(4), RngState(9)
        victim, votes = view_for(DpMethod.PREDICTION_PERTURBATION, ds, split, rng)
        res = run_pipeline(DpMethod.PREDICTION_PERTURBATION, victim, votes, budget, CFG, rng,
                           audit_rng)
        # one noise stream, members then non-members
        vote_rng = audit_rng.substream("audit-votes")
        np.testing.assert_array_equal(
            res.train_proba, pate_vote_fraction(10, votes.train, budget, vote_rng))
        np.testing.assert_array_equal(
            res.test_proba, pate_vote_fraction(10, votes.test, budget, vote_rng))

    def test_prediction_perturbation_answers_only_test_queries(self, setup):
        ds, split = setup
        budget, rng = PrivacyBudget(1.0), RngState(5)
        res = run_pipeline(DpMethod.PREDICTION_PERTURBATION,
                           *view_for(DpMethod.PREDICTION_PERTURBATION, ds, split, rng),
                           budget, CFG, rng, RngState(6))
        # the shared part's teachers are sharded by the stream's "pate-train" substream
        teachers = pate_train(ds.features[split.victim_train], ds.labels[split.victim_train],
                              10, CFG, rng.substream("pate-train"))
        expected = pate_predict(10, class1_votes(teachers, ds.features[split.victim_test]),
                                budget, rng.substream("pate-votes"))
        np.testing.assert_array_equal(res.predictions, expected)

    @pytest.mark.parametrize("method", list(DpMethod), ids=lambda m: m.value)
    def test_declared_delta_rule_matches_the_mechanism(self, setup, method):
        # the declaration's budget is the one the mechanism accepts, and a
        # budget with the other delta is refused
        ds, split = setup
        assert DpMethod(method.value) is method
        res = run_any(method, ds, split, method.budget(1.0, 1e-5), RngState(2))
        assert res.predictions.shape == split.victim_test.shape
        other = PrivacyBudget(1.0, 0.0 if method.spends_delta else 1e-5)
        with pytest.raises(ValueError, match="delta"):
            run_any(method, ds, split, other, RngState(2))

    def test_gaussian_requires_delta(self, setup):
        ds, split = setup
        with pytest.raises(ValueError, match="delta"):
            run_pipeline(DpMethod.INPUT_PERTURBATION,
                         *view_for(DpMethod.INPUT_PERTURBATION, ds, split, RngState(0)),
                         PrivacyBudget(1.0), CFG, RngState(0), RngState(1))

    def test_unnormalized_rows_fail_only_input_perturbation(self, setup):
        ds, split = setup
        victim = victim_view(replace(ds, features=ds.features * 2.0), split)
        with pytest.raises(ValueError, match="normalized"):
            shared_part(DpMethod.INPUT_PERTURBATION, victim, CFG, RngState(0), 10)
        assert shared_part(DpMethod.OBJECTIVE_PERTURBATION, victim, CFG, RngState(0), 10) is None
        votes = shared_part(DpMethod.PREDICTION_PERTURBATION, victim, CFG, RngState(0), 10)
        res = run_pipeline(DpMethod.PREDICTION_PERTURBATION, victim, votes, PrivacyBudget(1.0),
                           CFG, RngState(0), RngState(1))
        assert res.predictions.shape == split.victim_test.shape

    def test_deterministic_predictions(self, setup):
        ds, split = setup
        for method in DpMethod:
            a = run_any(method, ds, split, method.budget(1.0, 1e-5), RngState(42))
            b = run_any(method, ds, split, method.budget(1.0, 1e-5), RngState(42))
            np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_labels_never_touched(self, setup):
        ds, split = setup
        before = ds.labels.copy()
        run_any(DpMethod.INPUT_PERTURBATION, ds, split, PrivacyBudget(1.0, 1e-5), RngState(3))
        np.testing.assert_array_equal(ds.labels, before)


class TestLargeEpsilonConsistency:
    def test_all_methods_match_baseline_at_epsilon_1e6(self):
        raw, schema = synth_generate(4000, 5, 2, 2.0, seed=7)
        ds = preprocess(raw, schema)
        for method in DpMethod:
            gaps = []
            for seed in (1, 2, 3, 4, 5):
                split = four_way_split(ds, RngState(seed))
                X, y = ds.features[split.victim_train], ds.labels[split.victim_train]
                Xt, yt = ds.features[split.victim_test], ds.labels[split.victim_test]
                base = accuracy(predict(train(X, y, CFG), Xt), yt)
                res = run_any(method, ds, split, method.budget(1e6, 1e-5),
                              RngState(seed).substream("consistency"))
                gaps.append(abs(accuracy(res.predictions, yt) - base))
            assert np.median(gaps) < 0.01, f"{method}: median gap {np.median(gaps)}"


class TestBudgetMonotonicity:
    def test_private_accuracy_non_decreasing_in_epsilon(self):
        raw, schema = synth_generate(2000, 5, 2, 1.0, seed=7)
        ds = preprocess(raw, schema)
        grid = [0.01, 0.1, 1.0, 10.0, 100.0]
        for method in (DpMethod.OBJECTIVE_PERTURBATION, DpMethod.PREDICTION_PERTURBATION):
            medians = []
            for eps in grid:
                accs = []
                for seed in (1, 2, 3, 4, 5):
                    split = four_way_split(ds, RngState(seed))
                    res = run_any(method, ds, split, PrivacyBudget(eps),
                                  RngState(seed).substream("mono", method.value))
                    accs.append(accuracy(res.predictions,
                                         ds.labels[split.victim_test]))
                medians.append(float(np.median(accs)))
            drops = [(i, medians[i + 1] - medians[i]) for i in range(len(grid) - 1)
                     if medians[i + 1] < medians[i]]
            assert len(drops) <= 1, f"{method}: {medians}"
            assert all(abs(d) <= 0.02 for _, d in drops), f"{method}: {medians}"
