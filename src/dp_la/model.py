"""L2-regularized binary logistic regression, trained by deterministic
full-batch gradient descent.

The objective minimized is

    J(w, b) = (1/n) sum_i log(1 + exp(-y_i (w.x_i + b))) + (lam/2) ||w||^2

with y in {-1, +1} and an unregularized bias. Training starts from zero
weights and halves the step size whenever an update would increase J, so the
objective is non-increasing and the result is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrainConfig",
    "LogisticModel",
    "train",
    "predict_proba",
    "predict",
    "accuracy",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every logistic model in the package."""

    lam: float = 1e-4
    epochs: int = 100
    learning_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    final_objective: float


def _objective(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray, b: float, lam: float,
               linear_term: np.ndarray | None = None) -> float:
    margins = y_pm * (X @ w + b)
    value = float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * lam * float(w @ w)
    if linear_term is not None:
        value += float(linear_term @ w) / X.shape[0]
    return value


def _gradient(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray, b: float, lam: float,
              linear_term: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    margins = y_pm * (X @ w + b)
    # sigmoid(-m) = 1/(1+exp(m)), computed stably for large |m|
    coef = -y_pm / (1.0 + np.exp(np.clip(margins, -500.0, 500.0)))
    gw = X.T @ coef / X.shape[0] + lam * w
    gb = float(np.mean(coef))
    if linear_term is not None:
        gw = gw + linear_term / X.shape[0]
    return gw, gb


def _fit(X: np.ndarray, y_pm: np.ndarray, lam: float, epochs: int, learning_rate: float,
         linear_term: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Gradient descent with adaptive step, returning (weights, bias, final objective).

    Each epoch takes one accepted descent step: the step size is halved while
    the update would increase the objective, and doubles after an epoch that
    needed no halving, so the method self-tunes to the local curvature and
    reaches near-optimal objectives within the configured epoch budget.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    step = learning_rate
    j_cur = _objective(X, y_pm, w, b, lam, linear_term)
    for _ in range(epochs):
        gw, gb = _gradient(X, y_pm, w, b, lam, linear_term)
        halved = False
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            j_new = _objective(X, y_pm, w_new, b_new, lam, linear_term)
            if j_new <= j_cur:
                w, b, j_cur = w_new, b_new, j_new
                break
            if step < 1e-18:  # cannot descend further in float64
                break
            step *= 0.5
            halved = True
        if not halved and step < 1e12:
            step *= 2.0
    return w, b, j_cur


def _validate_training_inputs(features: np.ndarray, labels: np.ndarray) -> None:
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got shape {features.shape}")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on the number of rows")
    if features.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    classes = np.unique(labels)
    if not np.all(np.isin(classes, (0, 1))):
        raise ValueError(f"labels must be in {{0, 1}}, got {classes}")
    if classes.size < 2:
        raise ValueError("training data contains a single class")


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig,
          linear_term: np.ndarray | None = None) -> LogisticModel:
    """Fit the regularized logistic objective with full-batch gradient descent.

    Deterministic: zero initialization, fixed epoch count, step halved via
    backtracking whenever an update would increase the objective. A
    ``linear_term`` v adds (1/n) v.w to the objective (objective perturbation).
    This is the package's only entry point to the trainer.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    _validate_training_inputs(features, labels)
    y_pm = np.where(labels == 1, 1.0, -1.0)
    w, b, j_final = _fit(features, y_pm, config.lam, config.epochs, config.learning_rate,
                         linear_term=linear_term)
    return LogisticModel(weights=w, bias=b, final_objective=j_final)


def predict_proba(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Class-1 probability sigmoid(w.x + b) per row."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dimension {features.shape} does not match model dimension {model.weights.shape[0]}"
        )
    z = features @ model.weights + model.bias
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict(model: LogisticModel, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard labels; ties at the threshold classify as 1."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return (predict_proba(model, features) >= threshold).astype(int)


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("cannot score empty prediction vectors")
    return float(np.mean(predicted == actual))

