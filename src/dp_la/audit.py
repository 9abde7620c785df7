"""Privacy audit: a shadow-model membership-inference attack and the per-cell
report of its raw counts, from which every metric is derived.

Both ends of the attack take arrays; neither sees a dataset, a split or a
model. train_attack takes a shadow model's outputs: its probabilities on the
rows it was trained on (the members) and on rows it never saw (the
non-members), each with those rows' true labels. The shadow mimics the
victim's architecture and is fitted on the attack half of the four-way
split, so the victim's rows are never read while the attack is trained.
run_mia takes the victim's release the same way: the probability-like output
the audit observes on the victim_train rows (the members) and on the
victim_test rows (the non-members), with their labels. It returns only the
counts of members and non-members it flags. An AuditReport stores those
counts with the pool sizes and the two accuracies, and derives TPR, FPR,
utility loss, privacy leakage and true revealed records from them.

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

from .model import LogisticModel, TrainConfig, predict_proba, train

__all__ = [
    "AttackModel",
    "AuditReport",
    "attack_features",
    "train_attack",
    "wilson_interval",
    "run_mia",
]


@dataclass(frozen=True)
class AttackModel:
    """Logistic membership classifier over (p_class0, p_class1, true_label).

    A row is flagged as a member when the classifier's member posterior is
    >= threshold; +inf flags no row. train_attack sets the threshold from the
    shadow's scores.
    """

    classifier: LogisticModel
    threshold: float


@dataclass(frozen=True)
class AuditReport:
    """One cell's audit: the private and non-private accuracies, and the
    attack's flagged members and non-members out of each pool. Every rate is
    derived from these; the cell's coordinates are its CellResult's."""

    acc_private: float
    acc_nonprivate: float
    true_positives: int
    false_positives: int
    members: int
    nonmembers: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.acc_private <= 1.0 and 0.0 <= self.acc_nonprivate <= 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        if self.true_positives > self.members:
            raise ValueError("true positives exceed the member pool")
        if self.false_positives > self.nonmembers:
            raise ValueError("false positives exceed the non-member pool")

    @property
    def tpr(self) -> float:
        return self.true_positives / self.members

    @property
    def fpr(self) -> float:
        return self.false_positives / self.nonmembers

    @property
    def utility_loss(self) -> float:
        """Non-private minus private accuracy, so positive values mean degradation."""
        return self.acc_nonprivate - self.acc_private

    @property
    def privacy_leakage(self) -> float:
        """TPR - FPR: 0 means the attack leaks nothing, 1 a fully successful
        attack; negative values mean the attack does worse than chance."""
        return self.tpr - self.fpr

    @property
    def true_revealed_records(self) -> int:
        """Raw count of member rows the attack correctly flags."""
        return self.true_positives

    @property
    def trr_rate(self) -> float:
        """True revealed records over the member pool, which is the TPR."""
        return self.tpr


def attack_features(prediction_probability: np.ndarray | float, true_label: np.ndarray | int) -> np.ndarray:
    """Per-row attack input [1 - p, p, y]; accepts scalars or non-empty vectors."""
    p = np.atleast_1d(np.asarray(prediction_probability, dtype=float))
    y = np.atleast_1d(np.asarray(true_label, dtype=float))
    if p.size == 0:
        raise ValueError("the attack needs at least one member and one non-member row")
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
    # One sort of the pooled scores; each distinct score's first index there
    # splits the pools into the scores below it and those it flags. The
    # distinct scores are found as np.unique would, without its first-use
    # import of numpy.ma.
    pooled = np.concatenate([member_scores, nonmember_scores])
    order = np.argsort(pooled)
    ranked = pooled[order]
    distinct = np.empty(pooled.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=distinct[1:])
    firsts = np.flatnonzero(distinct)
    members_below = np.zeros(pooled.size + 1, dtype=np.intp)
    np.cumsum(order < member_scores.size, out=members_below[1:])
    members_below = members_below[firsts]

    tpr_low, _ = wilson_interval(member_scores.size - members_below, member_scores.size)
    _, fpr_high = wilson_interval(nonmember_scores.size - (firsts - members_below),
                                  nonmember_scores.size)
    bound = tpr_low - fpr_high
    best = int(np.argmax(bound))
    return float(ranked[firsts[best]]) if bound[best] > 0.0 else float("inf")


def train_attack(
    member_proba: np.ndarray,
    member_labels: np.ndarray,
    nonmember_proba: np.ndarray,
    nonmember_labels: np.ndarray,
    config: TrainConfig,
) -> AttackModel:
    """Train the membership classifier on a shadow model's outputs: its
    probabilities on the rows it was fitted on (labelled member=1) and on
    rows it never saw (member=0), each with the rows' true labels.

    The threshold is then chosen on the same shadow rows: among their attack
    scores, the one whose flags (score >= threshold) maximise the member
    pool's Wilson lower bound on TPR minus the non-member pool's Wilson upper
    bound on FPR, both at 95%. If no bound is above zero the threshold is
    +inf. The bounds hold per threshold, not jointly over the maximum, so a
    threshold is now and then picked by chance.
    """
    member_X = attack_features(member_proba, member_labels)
    nonmember_X = attack_features(nonmember_proba, nonmember_labels)
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
) -> tuple[int, int]:
    """Attack every victim row from the victim's observed output on it and
    its true label: the members are the victim_train rows, the non-members
    the victim_test rows. A row is flagged when its attack score is
    >= attack.threshold, so a +inf threshold flags none. Returns the flagged
    members and non-members: (true positives, false positives)."""

    def flagged(proba: np.ndarray, labels: np.ndarray) -> int:
        scores = predict_proba(attack.classifier, attack_features(proba, labels))
        return int((scores >= attack.threshold).sum())

    return flagged(member_proba, member_labels), flagged(nonmember_proba, nonmember_labels)
