import numpy as np
import pytest

from dp_la.audit import (
    AttackModel,
    AuditReport,
    attack_features,
    run_mia,
    train_attack,
    wilson_interval,
)
from dp_la.data import Dataset, FourWaySplit, four_way_split, preprocess, synth_generate
from dp_la.experiment import (ExperimentConfig, SynthSpec, _split_seed, build_seed_context,
                              load_experiment_dataset)
from dp_la.mechanisms import PrivacyBudget, RngState
from dp_la.model import LogisticModel, TrainConfig, predict_proba, train
from dp_la.pipelines import DpMethod, run_pipeline, shared_part, victim_view

CFG = TrainConfig()


def make_attack(weights, bias) -> AttackModel:
    """A hand-built attack at the classifier's own hard decision (threshold 0.5)."""
    return AttackModel(LogisticModel(np.asarray(weights, dtype=float), float(bias), 0.0), 0.5)


def counts_report(counts, members, nonmembers) -> AuditReport:
    """An AuditReport of run_mia's (true positives, false positives); the
    accuracies are placeholders."""
    return AuditReport(1.0, 1.0, *counts, members, nonmembers)


def attack_model(attack, model, ds, split) -> AuditReport:
    """run_mia on ``model``'s probabilities over the split's victim rows."""
    members, nonmembers = split.victim_train, split.victim_test
    counts = run_mia(attack, predict_proba(model, ds.features[members]), ds.labels[members],
                     predict_proba(model, ds.features[nonmembers]), ds.labels[nonmembers])
    return counts_report(counts, members.size, nonmembers.size)


def shadow_outputs(shadow, ds, split):
    """train_attack's inputs: the shadow's probabilities and the labels on its
    attack_train (member) and attack_test (non-member) rows."""
    members, nonmembers = split.attack_train, split.attack_test
    return (predict_proba(shadow, ds.features[members]), ds.labels[members],
            predict_proba(shadow, ds.features[nonmembers]), ds.labels[nonmembers])


def outcome(tpr, fpr, member_count=100, nonmember_count=100) -> AuditReport:
    return counts_report((round(tpr * member_count), round(fpr * nonmember_count)),
                         member_count, nonmember_count)


class TestAttackFeatures:
    def test_examples(self):
        np.testing.assert_allclose(attack_features(0.9, 1)[0], [0.1, 0.9, 1.0])
        np.testing.assert_allclose(attack_features(0.5, 0)[0], [0.5, 0.5, 0.0])

    def test_first_two_components_sum_to_one(self):
        p = np.linspace(0, 1, 41)
        feats = attack_features(p, np.zeros_like(p))
        np.testing.assert_allclose(feats[:, 0] + feats[:, 1], 1.0)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            attack_features(p, 1)

    def test_rejects_an_empty_pool(self):
        with pytest.raises(ValueError, match="at least one member and one non-member"):
            attack_features(np.empty(0), np.empty(0))


class TestTrainAttack:
    def degenerate_setup(self):
        """Attack-train rows carry a marker feature the shadow keys on, so its
        probabilities are ~1.0 on members and 0.5 elsewhere."""
        n = 80
        features = np.zeros((n, 2))
        labels = np.tile([0, 1], n // 2)
        features[:40, 0] = 1.0  # marker on the attack_train half
        ds = Dataset(features, labels, ("marker", "junk"), {})
        split = FourWaySplit(
            victim_train=np.arange(0),
            victim_test=np.arange(0),
            attack_train=np.arange(0, 40),
            attack_test=np.arange(40, 80),
        )
        shadow = LogisticModel(np.array([50.0, 0.0]), 0.0, 0.0)
        return ds, split, shadow

    def test_separable_membership_signal(self):
        ds, split, shadow = self.degenerate_setup()
        attack = train_attack(*shadow_outputs(shadow, ds, split), TrainConfig(epochs=300))
        member_feats = attack_features(predict_proba(shadow, ds.features[split.attack_train]),
                                       ds.labels[split.attack_train])
        nonmember_feats = attack_features(predict_proba(shadow, ds.features[split.attack_test]),
                                          ds.labels[split.attack_test])
        from dp_la.model import accuracy, predict

        X = np.vstack([member_feats, nonmember_feats])
        y = np.r_[np.ones(40), np.zeros(40)]
        assert accuracy(predict(attack.classifier, X), y) > 0.9

    def test_uninformative_shadow_gives_chance_accuracy(self):
        ds, split, _ = self.degenerate_setup()
        flat_shadow = LogisticModel(np.zeros(2), 0.0, 0.0)
        attack = train_attack(*shadow_outputs(flat_shadow, ds, split), TrainConfig(epochs=300))
        from dp_la.model import accuracy, predict

        feats = attack_features(np.full(80, 0.5), ds.labels)
        acc = accuracy(predict(attack.classifier, feats), np.r_[np.ones(40), np.zeros(40)])
        assert acc == pytest.approx(0.5, abs=0.05)

    @staticmethod
    def attack_on_shadow_rows(attack, shadow, ds, split):
        """Point the attack at the shadow itself, with its own members and
        non-members as the victim's."""
        as_victim = FourWaySplit(victim_train=split.attack_train, victim_test=split.attack_test,
                                 attack_train=split.attack_train, attack_test=split.attack_test)
        return attack_model(attack, shadow, ds, as_victim)

    def test_flat_shadow_gives_infinite_threshold_and_flags_nobody(self):
        ds, split, _ = self.degenerate_setup()
        flat_shadow = LogisticModel(np.zeros(2), 0.0, 0.0)
        attack = train_attack(*shadow_outputs(flat_shadow, ds, split), TrainConfig(epochs=300))
        assert attack.threshold == np.inf
        out = self.attack_on_shadow_rows(attack, flat_shadow, ds, split)
        assert out.tpr == 0.0 and out.fpr == 0.0 and out.true_positives == 0

    def test_marker_shadow_gives_finite_threshold_that_flags_members(self):
        ds, split, shadow = self.degenerate_setup()
        attack = train_attack(*shadow_outputs(shadow, ds, split), TrainConfig(epochs=300))
        assert np.isfinite(attack.threshold)
        out = self.attack_on_shadow_rows(attack, shadow, ds, split)
        assert out.tpr == 1.0 and out.fpr == 0.0

    def test_deterministic(self):
        raw, schema = synth_generate(400, 4, 1, 1.0, seed=3)
        ds = preprocess(raw, schema)
        split = four_way_split(ds, seed=1)
        shadow = train(ds.features[split.attack_train], ds.labels[split.attack_train], CFG)
        a = train_attack(*shadow_outputs(shadow, ds, split), CFG)
        b = train_attack(*shadow_outputs(shadow, ds, split), CFG)
        np.testing.assert_array_equal(a.classifier.weights, b.classifier.weights)

    def test_attack_never_reads_victim_rows(self):
        cfg = ExperimentConfig(synth=SynthSpec(n=400, d_numeric=4, d_categorical=1, seed=3),
                               seeds=(1,))
        ds = load_experiment_dataset(cfg)
        context = build_seed_context(cfg, ds, 0)

        split = four_way_split(ds, _split_seed(cfg.master_seed, 1), cfg.inner_train_fraction)
        scrambled = ds.features.copy()
        victim_rows = np.concatenate([split.victim_train, split.victim_test])
        scrambled[victim_rows] = RngState(99).generator.random(scrambled[victim_rows].shape)
        ds2 = Dataset(scrambled, ds.labels, ds.feature_names, ds.normalization_bounds)
        context2 = build_seed_context(cfg, ds2, 0)
        assert not np.array_equal(context.victim.train_features, context2.victim.train_features)
        np.testing.assert_array_equal(context.attack.classifier.weights,
                                      context2.attack.classifier.weights)
        assert context.attack.classifier.bias == context2.attack.classifier.bias
        assert context.attack.threshold == context2.attack.threshold


class TestWilsonInterval:
    def test_hand_computed_endpoints_at_zero_and_all_successes(self):
        # z = 1.96: k=0 gives (0, z²/(n+z²)), k=n gives (n/(n+z²), 1)
        lo, hi = wilson_interval(np.array([0, 40]), 40)
        np.testing.assert_allclose(lo, [0.0, 0.9123784], atol=1e-7)
        np.testing.assert_allclose(hi, [0.0876216, 1.0], atol=1e-7)
        lo, hi = wilson_interval(0, 1)
        assert float(lo) == 0.0 and float(hi) == pytest.approx(0.7934, abs=1e-4)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestRunMia:
    def small_setup(self):
        raw, schema = synth_generate(200, 3, 0, 1.0, seed=2)
        ds = preprocess(raw, schema)
        split = four_way_split(ds, seed=0)
        victim = train(ds.features[split.victim_train], ds.labels[split.victim_train], CFG)
        return ds, split, victim

    def test_always_member_attack(self):
        ds, split, victim = self.small_setup()
        attack = make_attack([0.0, 0.0, 0.0], 0.0)  # p=0.5 ties classify as member
        out = attack_model(attack, victim, ds, split)
        assert out.tpr == 1.0 and out.fpr == 1.0
        assert out.true_positives == out.members

    def test_always_nonmember_attack(self):
        ds, split, victim = self.small_setup()
        attack = make_attack([0.0, 0.0, 0.0], -50.0)
        out = attack_model(attack, victim, ds, split)
        assert out.tpr == 0.0 and out.fpr == 0.0 and out.true_positives == 0

    def test_tpr_is_exact_count_ratio(self):
        ds, split, victim = self.small_setup()
        attack = make_attack([0.3, -0.2, 0.1], -0.05)
        out = attack_model(attack, victim, ds, split)
        assert out.tpr == out.true_positives / out.members
        assert -1.0 <= out.privacy_leakage <= 1.0
        assert out.true_positives == round(out.tpr * out.members)


class TestMetrics:
    @pytest.mark.parametrize(
        "tpr, fpr, expected",
        [(1.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.48, 0.50, -0.02)],
    )
    def test_privacy_leakage(self, tpr, fpr, expected):
        assert outcome(tpr, fpr).privacy_leakage == pytest.approx(expected)

    @pytest.mark.parametrize(
        "acc_p, acc_np, expected",
        [(0.80, 0.85, 0.05), (0.85, 0.85, 0.0), (0.90, 0.85, -0.05)],
    )
    def test_utility_loss(self, acc_p, acc_np, expected):
        assert AuditReport(acc_p, acc_np, 0, 0, 1, 1).utility_loss == pytest.approx(expected)

    @pytest.mark.parametrize("a", [0.0, 0.33, 0.5, 1.0])
    def test_utility_loss_identity(self, a):
        assert AuditReport(a, a, 0, 0, 1, 1).utility_loss == 0.0

    def test_utility_loss_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AuditReport(1.2, 0.5, 0, 0, 1, 1)

    @pytest.mark.parametrize(
        "tpr, members, expected", [(0.0, 100, 0), (1.0, 100, 100), (0.07, 100, 7)]
    )
    def test_true_revealed_records(self, tpr, members, expected):
        assert outcome(tpr, 0.5, member_count=members).true_revealed_records == expected

    def test_outcome_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError, match="member pool"):
            AuditReport(0.8, 0.9, true_positives=101, false_positives=0,
                        members=100, nonmembers=100)

    def test_report_rejects_false_positives_beyond_the_pool(self):
        with pytest.raises(ValueError, match="non-member pool"):
            AuditReport(0.8, 0.9, true_positives=0, false_positives=101,
                        members=100, nonmembers=100)

    def test_build_report_identities(self):
        """The identities every AuditReport property derives from its counts."""
        rep = AuditReport(acc_private=0.8, acc_nonprivate=0.9, true_positives=40,
                          false_positives=10, members=100, nonmembers=100)
        assert rep.tpr == rep.true_positives / rep.members
        assert rep.fpr == rep.false_positives / rep.nonmembers
        assert rep.utility_loss == rep.acc_nonprivate - rep.acc_private
        assert rep.privacy_leakage == rep.tpr - rep.fpr
        assert rep.true_revealed_records == rep.true_positives
        assert rep.trr_rate == rep.true_positives / rep.members


class TestNullCalibration:
    def test_no_signal_data_leaks_nothing(self):
        leaks = []
        for seed in range(10):
            raw, schema = synth_generate(400, 5, 2, 0.0, seed=50 + seed)
            ds = preprocess(raw, schema)
            split = four_way_split(ds, seed)
            victim = train(ds.features[split.victim_train], ds.labels[split.victim_train], CFG)
            shadow = train(ds.features[split.attack_train], ds.labels[split.attack_train], CFG)
            attack = train_attack(*shadow_outputs(shadow, ds, split), CFG)
            out = attack_model(attack, victim, ds, split)
            leaks.append(abs(out.privacy_leakage))
        assert np.median(leaks) < 0.05


class TestOverfitOracle:
    def test_overfit_victim_leaks_and_pate_mitigates(self):
        vic_cfg = TrainConfig(lam=0.0, epochs=2000)
        base_leaks, pate_leaks = [], []
        for seed in (1, 2, 3, 4, 5):
            raw, schema = synth_generate(240, 40, 0, 0.35, seed=100 + seed)
            ds = preprocess(raw, schema)
            split = four_way_split(ds, seed)
            victim = train(ds.features[split.victim_train], ds.labels[split.victim_train], vic_cfg)
            shadow = train(ds.features[split.attack_train], ds.labels[split.attack_train], vic_cfg)
            attack = train_attack(*shadow_outputs(shadow, ds, split), vic_cfg)
            out = attack_model(attack, victim, ds, split)
            base_leaks.append(out.privacy_leakage)

            rng = RngState(seed)
            rows = victim_view(ds, split)
            votes = shared_part(DpMethod.PREDICTION_PERTURBATION, rows, vic_cfg,
                                rng.substream("p"), 10)
            res = run_pipeline(DpMethod.PREDICTION_PERTURBATION, rows, votes, PrivacyBudget(0.1),
                               vic_cfg, rng.substream("p"), rng.substream("a"))
            out_p = run_mia(attack, res.train_proba, rows.train_labels, res.test_proba,
                            rows.test_labels)
            pate_leaks.append(counts_report(out_p, len(rows.train_labels),
                                            len(rows.test_labels)).privacy_leakage)
        assert np.median(base_leaks) >= 0.05
        assert np.median(pate_leaks) <= np.median(base_leaks) / 2 or np.median(pate_leaks) < 0.05
