"""The three DP insertion points around the logistic classifier.

* Input perturbation: i.i.d. Gaussian noise on the [0, 1]-normalized training
  features before ordinary training (untrusted-collector stage).
* Objective perturbation: private empirical risk minimization; a random linear
  term is added to the regularized training objective so the released weights
  themselves satisfy epsilon-DP.
* Prediction perturbation: a partitioned teacher ensemble releasing only
  noisy-argmax vote labels per query (teacher-aggregation scheme; no student
  model is trained). The pipeline answers only the victim-test queries.

:func:`run_pipeline` dispatches on the method once and returns a :class:`Release`.

Input and prediction perturbation turn a budget into a noise scale through
named sensitivities (``_INPUT_SENSITIVITY``; ``_VOTE_SENSITIVITY`` for the
two-count noisy argmax, ``_CLASS1_COUNT_SENSITIVITY`` for the audited vote
fraction) and the shared calibrations of :mod:`dp_la.mechanisms`, which also
check the budget's delta; objective perturbation's budget split is
``_erm_noise_budget``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from .data import Dataset, FourWaySplit
from .mechanisms import (
    PrivacyBudget,
    RngState,
    Sensitivity,
    SensitivityNorm,
    gaussian_sigma,
    laplace_scale,
    sample_laplace,
)
from .model import LogisticModel, TrainConfig, predict, predict_proba, train

__all__ = [
    "DpMethod",
    "TeacherEnsemble",
    "Release",
    "input_perturb",
    "objective_perturb_train",
    "pate_train",
    "pate_teachers",
    "pate_predict",
    "pate_vote_fraction",
    "run_pipeline",
]

# Logistic loss curvature bound used by the private ERM recipe.
_CURVATURE = 0.25
# Input perturbation noises each [0, 1]-normalized cell, so one cell moves by at most 1.
_INPUT_SENSITIVITY = Sensitivity(1.0, SensitivityNorm.L2)
# One record sits in one teacher's shard, so it moves one vote: the two class counts by 2 in L1.
_VOTE_SENSITIVITY = Sensitivity(2.0, SensitivityNorm.L1)
# The same moved vote changes the class-1 count alone by at most 1.
_CLASS1_COUNT_SENSITIVITY = Sensitivity(1.0, SensitivityNorm.L1)


class DpMethod(Enum):
    INPUT_PERTURBATION = "input_perturbation"
    OBJECTIVE_PERTURBATION = "objective_perturbation"
    PREDICTION_PERTURBATION = "prediction_perturbation"


@dataclass(frozen=True)
class TeacherEnsemble:
    """Disjoint-shard logistic teachers whose noisy votes are the only release.

    The teachers' vote counts depend only on the query rows, never on the
    budget, so :meth:`class1_votes` computes them once per distinct query
    matrix and keeps them: every epsilon of a seed queries the same victim
    rows, and each cell draws only its noise.
    """

    teachers: tuple[LogisticModel, ...]
    partition: tuple[np.ndarray, ...]
    _votes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.teachers) != len(self.partition):
            raise ValueError("teacher and partition counts disagree")

    @property
    def num_teachers(self) -> int:
        return len(self.teachers)

    def class1_votes(self, features: np.ndarray) -> np.ndarray:
        """Per-row count of teachers voting class 1 (read-only). Kept for the
        ensemble's lifetime, keyed by the query matrix's shape and bytes."""
        features = np.asarray(features, dtype=float)
        key = (features.shape, features.tobytes())
        votes = self._votes.get(key)
        if votes is None:
            votes = _teacher_votes(self, features)
            votes.flags.writeable = False
            self._votes[key] = votes
        return votes


@dataclass(frozen=True)
class Release:
    """One pipeline run's private victim_test labels (for utility), the
    probability-like output the audit observes on any rows, and the fitted
    model behind both (None for prediction perturbation, which releases votes)."""

    predictions: np.ndarray
    proba: Callable[[np.ndarray], np.ndarray]
    model: LogisticModel | None


def input_perturb(train_features: np.ndarray, budget: PrivacyBudget, rng: RngState) -> np.ndarray:
    """Add i.i.d. Gaussian noise (per-cell sensitivity 1) to normalized features.

    Cells must already lie in [0, 1]; the noised output is deliberately not
    clipped back, since clipping would bias the mechanism.
    """
    features = np.asarray(train_features, dtype=float)
    if features.size and (features.min() < -1e-9 or features.max() > 1.0 + 1e-9):
        raise ValueError("input perturbation requires [0, 1]-normalized features")
    sigma = gaussian_sigma(_INPUT_SENSITIVITY, budget)
    return features + rng.generator.normal(0.0, sigma, size=features.shape)


def _erm_noise_budget(epsilon: float, n: int, lam: float) -> tuple[float, float]:
    """Split the budget per the private ERM recipe.

    Returns (epsilon_prime, extra_regularization). When the headline budget is
    too small for the given n*lam, regularization is raised instead and half
    the budget goes to the noise term.
    """
    eps_prime = epsilon - 2.0 * math.log(1.0 + _CURVATURE / (n * lam))
    if eps_prime > 0:
        return eps_prime, 0.0
    delta_lam = _CURVATURE / (n * (math.exp(epsilon / 4.0) - 1.0)) - lam
    return epsilon / 2.0, delta_lam


def objective_perturb_train(
    features: np.ndarray,
    labels: np.ndarray,
    budget: PrivacyBudget,
    config: TrainConfig,
    rng: RngState,
) -> LogisticModel:
    """Train logistic regression privately via a noisy linear objective term.

    Implements the standard private ERM recipe for logistic loss: rows are
    rescaled to unit L2 norm bound (by 1/sqrt(d) when needed), the budget is
    reduced to eps' = eps - 2 ln(1 + c/(n lam)) with curvature bound c = 1/4
    (falling back to extra regularization when eps' <= 0), and a noise vector
    with ||b|| ~ Gamma(d, 2/eps') in a uniformly random direction is added as
    (1/n) b.w to the objective before minimizing with the shared trainer,
    whose Newton solve reaches the exact minimiser (gradient norm < 1e-10)
    that the guarantee assumes.

    The bias is neither regularized nor perturbed. The recipe's analysis
    (Chaudhuri, Monteleoni & Sarwate 2011) assumes every released parameter
    is, so the epsilon guarantee does not cover the bias.
    """
    if budget.delta != 0.0:
        raise ValueError("objective perturbation is a pure epsilon-DP mechanism; delta must be 0")
    if config.lam <= 0:
        raise ValueError("objective perturbation requires a strictly positive regularizer")
    features = np.asarray(features, dtype=float)
    n, d = features.shape
    if n == 0 or d == 0:
        raise ValueError("empty training matrix")

    max_norm = float(np.sqrt(np.einsum("ij,ij->i", features, features)).max())
    rescale = math.sqrt(d) if max_norm > 1.0 else 1.0
    if max_norm / rescale > 1.0 + 1e-9:
        raise ValueError(
            "row norms exceed 1 even after the 1/sqrt(d) rescale; features must be [0, 1]-normalized"
        )

    eps_prime, delta_lam = _erm_noise_budget(budget.epsilon, n, config.lam)
    lam_eff = config.lam + delta_lam

    direction = rng.generator.normal(size=d)
    direction /= np.linalg.norm(direction)
    b_norm = float(rng.generator.gamma(shape=d, scale=2.0 / eps_prime))
    noise = b_norm * direction

    # The recipe is stated on unit-norm-bounded rows x/rescale with weights w'.
    # Substituting w' = rescale * w turns it into an equivalent objective on the
    # original features with regularizer lam_eff * rescale^2 and linear term
    # rescale * b, which the shared trainer minimizes exactly, like the
    # non-private baseline (so the only difference at huge epsilon is the
    # slightly stronger regularizer).
    return train(features, labels, replace(config, lam=lam_eff * rescale**2),
                 linear_term=rescale * noise)


def pate_train(
    features: np.ndarray,
    labels: np.ndarray,
    num_teachers: int,
    config: TrainConfig,
    rng: RngState,
) -> TeacherEnsemble:
    """Partition the training rows into disjoint near-equal shards and train
    one logistic teacher per shard.

    Shards must each contain both classes; the shuffle is retried up to 10
    times before giving up.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    n = features.shape[0]
    if num_teachers < 2:
        raise ValueError(f"num_teachers must be at least 2, got {num_teachers}")
    if num_teachers > n / 4:
        raise ValueError(f"num_teachers={num_teachers} leaves shards below 4 rows for n={n}")

    for attempt in range(10):
        order = rng.substream("pate-shuffle", attempt).generator.permutation(n)
        shards = np.array_split(order, num_teachers)
        if all(np.unique(labels[s]).size == 2 for s in shards):
            break
    else:
        raise ValueError("could not shard the data with both classes per teacher after 10 shuffles")

    return TeacherEnsemble(
        teachers=tuple(train(features[s], labels[s], config) for s in shards),
        partition=tuple(np.sort(s) for s in shards),
    )


def pate_teachers(
    dataset: Dataset,
    split: FourWaySplit,
    config: TrainConfig,
    rng: RngState,
    num_teachers: int = 10,
) -> TeacherEnsemble:
    """The prediction-perturbation ensemble that run_pipeline releases: teachers
    on the victim-train rows, sharded by the pipeline stream's "pate-train"
    substream. It depends on neither the budget nor the query rows, so one
    ensemble serves every epsilon of a (method, seed) pair.
    """
    return pate_train(
        dataset.features[split.victim_train],
        dataset.labels[split.victim_train],
        num_teachers,
        config,
        rng.substream("pate-train"),
    )


def _teacher_votes(ensemble: TeacherEnsemble, features: np.ndarray) -> np.ndarray:
    """Per-row count of teachers voting class 1."""
    if not ensemble.teachers:
        raise ValueError("empty teacher ensemble")
    votes = np.zeros(features.shape[0])
    for teacher in ensemble.teachers:
        votes += predict(teacher, features)
    return votes


def pate_predict(
    ensemble: TeacherEnsemble,
    features: np.ndarray,
    budget: PrivacyBudget,
    rng: RngState,
) -> np.ndarray:
    """Noisy-argmax label release: per row, add independent Lap(2/eps) to each
    class's vote count and return the winner (post-noise ties go to class 1).

    epsilon is spent per query; the caller is responsible for composition
    accounting across queries.
    """
    scale = laplace_scale(_VOTE_SENSITIVITY, budget)
    n1 = ensemble.class1_votes(features)
    n0 = ensemble.num_teachers - n1
    noisy0 = n0 + np.asarray(sample_laplace(scale, rng, size=n1.shape[0]))
    noisy1 = n1 + np.asarray(sample_laplace(scale, rng, size=n1.shape[0]))
    return (noisy1 >= noisy0).astype(int)


def pate_vote_fraction(
    ensemble: TeacherEnsemble,
    features: np.ndarray,
    budget: PrivacyBudget,
    rng: RngState,
) -> np.ndarray:
    """Noisy class-1 vote fraction in [0, 1]: fresh Lap(1/eps) noise on each
    row's class-1 vote count, divided by the number of teachers.

    This is the probability-like release an adversary can observe from the
    ensemble, used when auditing prediction-perturbed models. Like
    :func:`pate_predict` it is pure epsilon-DP per row, so delta must be 0.
    """
    scale = laplace_scale(_CLASS1_COUNT_SENSITIVITY, budget)
    n1 = ensemble.class1_votes(features)
    noisy = n1 + np.asarray(sample_laplace(scale, rng, size=n1.shape[0]))
    return np.clip(noisy / ensemble.num_teachers, 0.0, 1.0)


def run_pipeline(
    method: DpMethod,
    dataset: Dataset,
    split: FourWaySplit,
    budget: PrivacyBudget,
    config: TrainConfig,
    rng: RngState,
    audit_rng: RngState,
    ensemble: TeacherEnsemble | None = None,
) -> Release:
    """Run one DP configuration on the victim half; input and objective
    perturbation fit on the victim_train rows, and the audit observes the
    fitted model's sigmoid output.

    Prediction perturbation releases noisy votes of ``ensemble``, built by
    :func:`pate_teachers` from the same ``rng``; the other methods ignore it.
    It answers only the len(victim_test) queries, so its composed epsilon is
    epsilon times that count (basic composition). The audit observes the noisy
    vote fraction, with fresh noise from ``audit_rng``'s "audit-votes" substream.
    """
    if method is DpMethod.PREDICTION_PERTURBATION:
        if ensemble is None:
            raise ValueError("prediction perturbation needs a teacher ensemble (see pate_teachers)")
        predictions = pate_predict(ensemble, dataset.features[split.victim_test], budget,
                                   rng.substream("pate-votes"))
        vote_rng = audit_rng.substream("audit-votes")
        return Release(predictions, lambda features: pate_vote_fraction(
            ensemble, features, budget, vote_rng), None)

    X_train = dataset.features[split.victim_train]
    y_train = dataset.labels[split.victim_train]
    if method is DpMethod.INPUT_PERTURBATION:
        model = train(input_perturb(X_train, budget, rng.substream("input-noise")), y_train, config)
    elif method is DpMethod.OBJECTIVE_PERTURBATION:
        model = objective_perturb_train(X_train, y_train, budget, config,
                                        rng.substream("erm-noise"))
    else:
        raise ValueError(f"unknown DP method: {method}")
    predictions = predict(model, dataset.features[split.victim_test])
    return Release(predictions, lambda features: predict_proba(model, features), model)
