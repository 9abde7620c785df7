"""The three DP insertion points around the logistic classifier.

* Input perturbation: i.i.d. Gaussian noise on the [0, 1]-normalized training
  features before ordinary training (untrusted-collector stage).
* Objective perturbation: private empirical risk minimization; a random linear
  term is added to the regularized training objective so the released weights
  themselves satisfy epsilon-DP.
* Prediction perturbation: a partitioned teacher ensemble releasing only
  noisy-argmax vote labels per query (teacher-aggregation scheme; no student
  model is trained). The pipeline answers only the victim-test queries.

:func:`victim_view` gathers the victim rows of a split once. :func:`shared_part`
builds, once per (method, seed), what every budget's release of that method
shares: input perturbation's standard-normal noise or the teachers' vote
counts. :func:`run_pipeline` takes that part, dispatches on the method once
and returns a :class:`Release`: the private test labels and the outputs the
audit observes, as arrays.

Each :class:`DpMethod` member declares its release's sensitivity and whether
its budget spends delta, and every noise scale is calibrated from that
declaration (the audited vote fraction from ``_CLASS1_COUNT_SENSITIVITY``)
through :mod:`dp_la.mechanisms`, which also checks the budget's delta.
Objective perturbation's budget split is ``_erm_noise_budget``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

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
    "TeacherVotes",
    "Victim",
    "Release",
    "victim_view",
    "shared_part",
    "draw_input_noise",
    "input_perturb",
    "objective_perturb_train",
    "pate_train",
    "pate_predict",
    "pate_vote_fraction",
    "run_pipeline",
]

# Logistic loss curvature bound used by the private ERM recipe.
_CURVATURE = 0.25
# One record moves one teacher's vote, which changes the audited class-1 count by at most 1.
_CLASS1_COUNT_SENSITIVITY = Sensitivity(1.0, SensitivityNorm.L1)


class DpMethod(Enum):
    """The three DP insertion points. ``.value`` is the config string; each
    member also declares the ``sensitivity`` of its release and whether its
    budget ``spends_delta``."""

    # Each [0, 1]-normalized cell moves by at most 1; the Gaussian mechanism spends delta.
    INPUT_PERTURBATION = ("input_perturbation", Sensitivity(1.0, SensitivityNorm.L2), True)
    # The summed-gradient bound behind ||b|| ~ Gamma(d, 2/eps'); pure epsilon-DP.
    OBJECTIVE_PERTURBATION = ("objective_perturbation", Sensitivity(2.0, SensitivityNorm.L2),
                              False)
    # One record moves one teacher's vote: the two class counts by 2 in L1; pure epsilon-DP.
    PREDICTION_PERTURBATION = ("prediction_perturbation", Sensitivity(2.0, SensitivityNorm.L1),
                               False)

    def __new__(cls, value: str, sensitivity: Sensitivity, spends_delta: bool) -> "DpMethod":
        member = object.__new__(cls)
        member._value_ = value
        member.sensitivity = sensitivity
        member.spends_delta = spends_delta
        return member

    def budget(self, epsilon: float, delta: float) -> PrivacyBudget:
        """One release's budget at ``epsilon``: ``delta`` if the method spends it, else 0."""
        return PrivacyBudget(epsilon, delta if self.spends_delta else 0.0)


@dataclass(frozen=True)
class TeacherVotes:
    """An ensemble's class-1 vote counts on the victim rows. They depend on
    neither the budget nor the cell, so every epsilon of a seed draws only
    its noise on them."""

    num_teachers: int
    train: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class Victim:
    """The victim half of one split, gathered once and read only (built by
    :func:`victim_view`): every release of a seed reads these rows."""

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


@dataclass(frozen=True)
class Release:
    """One pipeline run's private victim_test labels (for utility), the
    probability-like outputs the audit observes on victim_train (members)
    and victim_test (non-members), and the fitted model behind them (None
    for prediction perturbation, which releases votes)."""

    predictions: np.ndarray
    train_proba: np.ndarray
    test_proba: np.ndarray
    model: LogisticModel | None


def draw_input_noise(train_features: np.ndarray, rng: RngState) -> np.ndarray:
    """The standard-normal noise :func:`input_perturb` scales, one draw per
    cell of ``train_features``, which must lie in [0, 1]."""
    features = np.asarray(train_features, dtype=float)
    if features.size and (features.min() < -1e-9 or features.max() > 1.0 + 1e-9):
        raise ValueError("input perturbation requires [0, 1]-normalized features")
    return rng.generator.standard_normal(features.shape)


def input_perturb(train_features: np.ndarray, input_noise: np.ndarray,
                  budget: PrivacyBudget) -> np.ndarray:
    """Add i.i.d. Gaussian noise to normalized features: ``input_noise`` from
    :func:`draw_input_noise` scaled by sigma(budget) at the method's declared
    sensitivity.

    ``rng.normal(0, sigma)`` is ``0 + sigma * rng.standard_normal()``, so this
    is the same release, bit for bit, as drawing it at the budget's scale. The
    noised output is deliberately not clipped back, since clipping would bias
    the mechanism.
    """
    noised = np.multiply(input_noise,
                         gaussian_sigma(DpMethod.INPUT_PERTURBATION.sensitivity, budget))
    noised += train_features
    return noised


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
    with ||b|| ~ Gamma(d, S/eps'), S = 2 the method's declared sensitivity, in a
    uniformly random direction is added as (1/n) b.w to the objective before
    minimizing with the shared trainer, whose Newton solve reaches the exact
    minimiser (gradient norm < 1e-10) that the guarantee assumes.

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
    sensitivity = DpMethod.OBJECTIVE_PERTURBATION.sensitivity.value
    b_norm = float(rng.generator.gamma(shape=d, scale=sensitivity / eps_prime))
    noise = b_norm * direction

    # The recipe is stated on unit-norm-bounded rows x/rescale with weights w'.
    # Substituting w' = rescale * w turns it into an equivalent objective on the
    # original features with regularizer lam_eff * rescale^2 and linear term
    # rescale * b, which the shared trainer minimizes exactly, like the
    # non-private baseline (so the only difference at huge epsilon is the
    # slightly stronger regularizer).
    return train(features, labels, replace(config, lam=lam_eff * rescale**2),
                 linear_term=rescale * noise)


def _pate_shards(labels: np.ndarray, num_teachers: int, rng: RngState) -> list[np.ndarray]:
    """Partition the row indices of ``labels`` into ``num_teachers`` disjoint
    near-equal shards in shuffled order.

    Shards must each contain both classes; the shuffle is retried up to 10
    times before giving up.
    """
    n = len(labels)
    if num_teachers < 2:
        raise ValueError(f"num_teachers must be at least 2, got {num_teachers}")
    if num_teachers > n / 4:
        raise ValueError(f"num_teachers={num_teachers} leaves shards below 4 rows for n={n}")

    for attempt in range(10):
        order = rng.substream("pate-shuffle", attempt).generator.permutation(n)
        shards = np.array_split(order, num_teachers)
        if all(labels[s].min() != labels[s].max() for s in shards):
            return shards
    raise ValueError("could not shard the data with both classes per teacher after 10 shuffles")


def pate_train(
    features: np.ndarray,
    labels: np.ndarray,
    num_teachers: int,
    config: TrainConfig,
    rng: RngState,
) -> tuple[LogisticModel, ...]:
    """Train one logistic teacher on each of the :func:`_pate_shards` of the
    training rows; the teachers' noisy votes are the only release."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    return tuple(train(features[s], labels[s], config)
                 for s in _pate_shards(labels, num_teachers, rng))


def victim_view(dataset: Dataset, split: FourWaySplit) -> Victim:
    """Gather the victim_train and victim_test rows and labels of ``split``
    once, flagged read-only."""
    return Victim(_read_only(dataset.features[split.victim_train]),
                  _read_only(dataset.labels[split.victim_train]),
                  _read_only(dataset.features[split.victim_test]),
                  _read_only(dataset.labels[split.victim_test]))


def shared_part(
    method: DpMethod,
    victim: Victim,
    config: TrainConfig,
    rng: RngState,
    num_teachers: int,
) -> np.ndarray | TeacherVotes | None:
    """The part of ``method``'s release on ``victim`` that no budget changes,
    built once per (method, seed) from the method's pipeline stream ``rng``:

    * input perturbation: the standard-normal noise from its "input-noise"
      substream, which each budget scales by its sigma;
    * prediction perturbation: the class-1 votes on victim_train and
      victim_test of teachers trained on victim_train, sharded by its
      "pate-train" substream;
    * objective perturbation: None, as its noise is drawn at each budget.
    """
    if method is DpMethod.INPUT_PERTURBATION:
        return _read_only(draw_input_noise(victim.train_features, rng.substream("input-noise")))
    if method is DpMethod.PREDICTION_PERTURBATION:
        teachers = pate_train(victim.train_features, victim.train_labels, num_teachers, config,
                              rng.substream("pate-train"))
        votes = [np.sum([predict(t, rows) for t in teachers], axis=0, dtype=float)
                 for rows in (victim.train_features, victim.test_features)]
        return TeacherVotes(num_teachers, *map(_read_only, votes))
    return None


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only: every release of a seed shares it."""
    array.flags.writeable = False
    return array


def pate_predict(
    num_teachers: int,
    class1_votes: np.ndarray,
    budget: PrivacyBudget,
    rng: RngState,
) -> np.ndarray:
    """Noisy-argmax label release: per row, add independent Lap(2/eps) to each
    class's vote count (class 0 for all rows, then class 1) and return the
    winner (post-noise ties go to class 1).

    epsilon is spent per query; the caller is responsible for composition
    accounting across queries.
    """
    scale = laplace_scale(DpMethod.PREDICTION_PERTURBATION.sensitivity, budget)
    rows = class1_votes.shape[0]
    noisy0 = (num_teachers - class1_votes) + sample_laplace(scale, rng, size=rows)
    noisy1 = class1_votes + sample_laplace(scale, rng, size=rows)
    return (noisy1 >= noisy0).astype(int)


def pate_vote_fraction(
    num_teachers: int,
    class1_votes: np.ndarray,
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
    noisy = class1_votes + sample_laplace(scale, rng, size=class1_votes.shape[0])
    return np.clip(noisy / num_teachers, 0.0, 1.0)


def run_pipeline(
    method: DpMethod,
    victim: Victim,
    shared: np.ndarray | TeacherVotes | None,
    budget: PrivacyBudget,
    config: TrainConfig,
    rng: RngState,
    audit_rng: RngState,
) -> Release:
    """Run one DP configuration on the victim rows (see :func:`victim_view`)
    with the method's budget-free part ``shared``, built by
    :func:`shared_part` from the same pipeline stream ``rng``. Input and
    objective perturbation fit on victim_train, and the audit observes the
    fitted model's sigmoid output, computed once per part.

    Input perturbation scales the noise ``shared`` by the budget's sigma.
    Prediction perturbation releases noisy votes of the ``shared`` votes. It
    answers only the len(victim_test) queries, so its composed epsilon is
    epsilon times that count (basic composition). The audit observes the
    noisy vote fraction, with fresh noise from ``audit_rng``'s "audit-votes"
    substream: victim_train rows, then victim_test rows.
    """
    if method is DpMethod.PREDICTION_PERTURBATION:
        k = shared.num_teachers
        predictions = pate_predict(k, shared.test, budget, rng.substream("pate-votes"))
        vote_rng = audit_rng.substream("audit-votes")
        train_proba = pate_vote_fraction(k, shared.train, budget, vote_rng)
        return Release(predictions, train_proba,
                       pate_vote_fraction(k, shared.test, budget, vote_rng), None)

    if method is DpMethod.INPUT_PERTURBATION:
        model = train(input_perturb(victim.train_features, shared, budget),
                      victim.train_labels, config)
    elif method is DpMethod.OBJECTIVE_PERTURBATION:
        model = objective_perturb_train(victim.train_features, victim.train_labels, budget,
                                        config, rng.substream("erm-noise"))
    else:
        raise ValueError(f"unknown DP method: {method}")
    test_proba = predict_proba(model, victim.test_features)
    # predict's rule: ties at 0.5 classify as 1
    return Release((test_proba >= 0.5).astype(int), predict_proba(model, victim.train_features),
                   test_proba, model)
