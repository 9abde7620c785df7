"""Privacy audit: shadow-model membership-inference attack and the derived
metrics (utility loss, privacy leakage, true revealed records).

The attack half of the four-way split never touches the victim's rows during
attack training: a shadow model mimicking the victim's architecture is trained
on attack_train, its confidence vectors over attack_train (members) and
attack_test (non-members) form the attack classifier's training set, and only
then is the attack pointed at the victim's released probabilities.
run_mia takes that release as arrays: the probability-like output the audit
observes on the victim_train rows (the members) and on the victim_test rows
(the non-members), each with those rows' true labels. It sees neither the
dataset nor the split nor the model behind the release.

The attack's operating point is chosen on the shadow as well. A victim row is
flagged as a member when its attack score (the classifier's member posterior)
is >= the attack's threshold. train_attack picks that threshold from the
shadow's own member and non-member scores: the one that maximises the lower
95% bound on TPR - FPR, the member pool's Wilson lower bound minus the
non-member pool's Wilson upper bound. When no threshold's bound is above zero
the shadow shows no significant membership signal, the threshold is +inf and
no row is flagged, so privacy leakage and true revealed records are 0. Each
bound is pointwise and the maximum is taken over all candidate thresholds, so
now and then a threshold is picked on noise alone: one of the five seeds of
the n=2000 default grid gets a finite threshold from a shadow without signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FourWaySplit
from .model import LogisticModel, TrainConfig, predict_proba, train

__all__ = [
    "AttackModel",
    "MiaOutcome",
    "AuditReport",
    "attack_features",
    "train_attack",
    "wilson_interval",
    "run_mia",
    "privacy_leakage",
    "utility_loss",
    "true_revealed_records",
    "build_report",
]


@dataclass(frozen=True)
class AttackModel:
    """Logistic membership classifier over (p_class0, p_class1, true_label).

    A row is flagged as a member when the classifier's member posterior is
    >= threshold; +inf flags no row. train_attack sets the threshold from the
    shadow's scores; an attack built by hand keeps the 0.5 default, which is
    the classifier's own hard decision.
    """

    classifier: LogisticModel
    threshold: float = 0.5


@dataclass(frozen=True)
class MiaOutcome:
    tpr: float
    fpr: float
    true_positive_count: int
    member_count: int
    nonmember_count: int

    def __post_init__(self) -> None:
        if self.true_positive_count > self.member_count:
            raise ValueError("true positives exceed the member pool")


@dataclass(frozen=True)
class AuditReport:
    """Metrics for one sweep cell; the cell's coordinates are its CellResult's."""

    acc_private: float
    acc_nonprivate: float
    utility_loss: float
    privacy_leakage: float
    true_revealed_records: int
    trr_rate: float
    tpr: float
    fpr: float


def attack_features(prediction_probability: np.ndarray | float, true_label: np.ndarray | int) -> np.ndarray:
    """Per-row attack input [1 - p, p, y]; accepts scalars or vectors."""
    p = np.atleast_1d(np.asarray(prediction_probability, dtype=float))
    y = np.atleast_1d(np.asarray(true_label, dtype=float))
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("prediction probabilities must lie in [0, 1]")
    return np.column_stack([1.0 - p, p, y])


_Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: np.ndarray | int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """95% Wilson score interval (lower, upper) for a binomial proportion;
    successes may be a vector of counts out of the same number of trials."""
    if trials <= 0:
        raise ValueError("a binomial interval needs at least one trial")
    z = _Z_95
    p = np.asarray(successes, dtype=float) / trials
    z2n = z * z / trials
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = z / (1.0 + z2n) * np.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    return np.clip(centre - half, 0.0, 1.0), np.clip(centre + half, 0.0, 1.0)


def _operating_threshold(member_scores: np.ndarray, nonmember_scores: np.ndarray) -> float:
    """Score threshold maximising the lower 95% bound on TPR - FPR over the
    shadow's pools, or +inf when no threshold's bound is above zero."""
    # the distinct scores in ascending order, as np.unique gives them without
    # its first-use import of numpy.ma
    pooled = np.sort(np.concatenate([member_scores, nonmember_scores]))
    distinct = np.empty(pooled.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(pooled[1:], pooled[:-1], out=distinct[1:])
    candidates = pooled[distinct]

    def flagged(scores: np.ndarray) -> np.ndarray:
        return scores.size - np.searchsorted(np.sort(scores), candidates, side="left")

    tpr_low, _ = wilson_interval(flagged(member_scores), member_scores.size)
    _, fpr_high = wilson_interval(flagged(nonmember_scores), nonmember_scores.size)
    bound = tpr_low - fpr_high
    best = int(np.argmax(bound))
    return float(candidates[best]) if bound[best] > 0.0 else float("inf")


def train_attack(
    shadow_model: LogisticModel,
    dataset: Dataset,
    split: FourWaySplit,
    config: TrainConfig,
) -> AttackModel:
    """Train the membership classifier on the attack half.

    attack_train rows are labeled member=1, attack_test rows member=0, with
    features taken from the shadow model's probabilities. The victim half is
    never read here.

    The threshold is then chosen on the same shadow rows: among their attack
    scores, the one whose flags (score >= threshold) maximise the member
    pool's Wilson lower bound on TPR minus the non-member pool's Wilson upper
    bound on FPR, both at 95%. If no bound is above zero the threshold is
    +inf. The bounds hold per threshold, not jointly over the maximum, so a
    threshold is now and then picked by chance.
    """
    if shadow_model.weights.shape[0] != dataset.n_features:
        raise ValueError("shadow model dimension does not match the dataset")
    if split.attack_train.size == 0 or split.attack_test.size == 0:
        raise ValueError("attack split must contain both members and non-members")

    member_X = attack_features(
        predict_proba(shadow_model, dataset.features[split.attack_train]),
        dataset.labels[split.attack_train],
    )
    nonmember_X = attack_features(
        predict_proba(shadow_model, dataset.features[split.attack_test]),
        dataset.labels[split.attack_test],
    )
    X = np.vstack([member_X, nonmember_X])
    y = np.concatenate([
        np.ones(member_X.shape[0], dtype=int),
        np.zeros(nonmember_X.shape[0], dtype=int),
    ])
    classifier = train(X, y, config)
    scores = predict_proba(classifier, X)
    n_members = member_X.shape[0]
    threshold = _operating_threshold(scores[:n_members], scores[n_members:])
    return AttackModel(classifier=classifier, threshold=threshold)


def run_mia(
    attack: AttackModel,
    member_proba: np.ndarray,
    member_labels: np.ndarray,
    nonmember_proba: np.ndarray,
    nonmember_labels: np.ndarray,
) -> MiaOutcome:
    """Attack every victim row from the victim's observed output on it and
    its true label: the members are the victim_train rows, the non-members
    the victim_test rows. A row is flagged when its attack score is
    >= attack.threshold, so a +inf threshold flags none."""
    member_count, nonmember_count = len(member_labels), len(nonmember_labels)
    if member_count == 0 or nonmember_count == 0:
        raise ValueError("victim split parts must be non-empty")

    def flagged(proba: np.ndarray, labels: np.ndarray) -> int:
        scores = predict_proba(attack.classifier, attack_features(proba, labels))
        return int((scores >= attack.threshold).sum())

    tp = flagged(member_proba, member_labels)
    fp = flagged(nonmember_proba, nonmember_labels)
    return MiaOutcome(
        tpr=tp / member_count,
        fpr=fp / nonmember_count,
        true_positive_count=tp,
        member_count=member_count,
        nonmember_count=nonmember_count,
    )


def privacy_leakage(outcome: MiaOutcome) -> float:
    """TPR - FPR: 0 means the attack leaks nothing, 1 a fully successful attack;
    negative values mean the attack does worse than chance."""
    return outcome.tpr - outcome.fpr


def utility_loss(acc_private: float, acc_nonprivate: float) -> float:
    """Non-private minus private accuracy, so positive values mean degradation."""
    if not (0.0 <= acc_private <= 1.0 and 0.0 <= acc_nonprivate <= 1.0):
        raise ValueError("accuracies must lie in [0, 1]")
    return acc_nonprivate - acc_private


def true_revealed_records(outcome: MiaOutcome) -> int:
    """Raw count of member rows the attack correctly flags."""
    return outcome.true_positive_count


def build_report(
    *,
    acc_private: float,
    acc_nonprivate: float,
    outcome: MiaOutcome,
) -> AuditReport:
    """Assemble the per-cell report; the metric identities live in one place."""
    return AuditReport(
        acc_private=acc_private,
        acc_nonprivate=acc_nonprivate,
        utility_loss=utility_loss(acc_private, acc_nonprivate),
        privacy_leakage=privacy_leakage(outcome),
        true_revealed_records=true_revealed_records(outcome),
        trr_rate=outcome.true_positive_count / outcome.member_count,
        tpr=outcome.tpr,
        fpr=outcome.fpr,
    )
