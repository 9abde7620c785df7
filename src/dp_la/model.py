"""L2-regularized binary logistic regression, trained to its exact minimiser
by damped Newton.

The objective minimized is

    J(w, b) = (1/n) sum_i log(1 + exp(-y_i (w.x_i + b))) + (lam/2) ||w||^2

with y in {-1, +1} and an unregularized bias. With d features a Newton step
is one (d+1) x (d+1) solve, so training reaches ||grad J|| < 1e-10 in a
handful of iterations. It starts from zero, never lets the objective rise by
more than its rounding error, and is bit-reproducible. ``TrainConfig.epochs``
caps the iterations, which matters only when no finite minimiser exists
(lam = 0 on separable data).
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

_GRADIENT_TOL = 1e-10
_MAX_HALVINGS = 60
# Relative rounding error allowed when comparing objectives (about 450 ulp).
_ROUNDING = 1e-13


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every logistic model in the package.

    ``epochs`` caps the Newton iterations. The Newton trainer does not read
    ``learning_rate``; it is kept, with its validation, so existing configs
    that set it still load.
    """

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
    """A fitted (or hand-built) model with the trainer's diagnostics: Newton
    iterations taken, the gradient norm where training stopped (NaN for a
    model that was not trained), and which exit ended the fit: ``"gradient"``
    (norm below tolerance), ``"no_descent"`` (no halved step kept the
    objective from rising) or ``"cap"`` (``TrainConfig.epochs`` reached);
    None for a model that was not trained."""

    weights: np.ndarray
    bias: float
    final_objective: float
    iterations: int = 0
    gradient_norm: float = float("nan")
    stop: str | None = None


def _margins(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    return y_pm * (X @ w + b)


def _objective(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray, b: float, lam: float,
               linear_term: np.ndarray | None = None) -> float:
    return _objective_at(_margins(X, y_pm, w, b), w, lam, linear_term)


def _objective_at(margins: np.ndarray, w: np.ndarray, lam: float,
                  linear_term: np.ndarray | None = None) -> float:
    """J at the point whose margins y_i (w.x_i + b) are given."""
    value = float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * lam * float(w @ w)
    if linear_term is not None:
        value += float(linear_term @ w) / margins.shape[0]
    return value


def _gradient(X: np.ndarray, y_pm: np.ndarray, margins: np.ndarray, w: np.ndarray, lam: float,
              linear_term: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Gradient of J over (w, b) at the point whose margins are given."""
    # sigmoid(-m) = 1/(1+exp(m)), computed stably for large |m|
    coef = -y_pm / (1.0 + np.exp(np.clip(margins, -500.0, 500.0)))
    gw = X.T @ coef / X.shape[0] + lam * w
    gb = float(np.mean(coef))
    if linear_term is not None:
        gw = gw + linear_term / X.shape[0]
    return gw, gb


def _hessian(Z: np.ndarray, margins: np.ndarray, lam: float) -> np.ndarray:
    """Hessian of J over (w, b): Z^T diag(s) Z / n with Z = [X, 1] and
    s = sigmoid(m) sigmoid(-m), plus lam on the weights' diagonal only."""
    n, d = Z.shape[0], Z.shape[1] - 1
    e = np.exp(-np.abs(margins))
    curvature = e / (1.0 + e) ** 2
    H = (Z.T * curvature) @ Z / n
    H[np.arange(d), np.arange(d)] += lam
    return H


def _fit(X: np.ndarray, y_pm: np.ndarray, lam: float, max_iter: int,
         linear_term: np.ndarray | None = None) -> LogisticModel:
    """Damped Newton on (w, b) from zero.

    Each iteration solves H p = -g by least squares (rcond at machine
    precision), so a singular Hessian -- lam = 0 with columns collinear with
    the bias, or separable data whose curvature vanishes -- gives the
    minimum-norm step instead of an error. The step is halved until the
    objective does not rise by more than its rounding error: near the
    minimiser a Newton step lowers J by less than that, and an exact
    comparison would reject the steps that finish the solve. The loop stops
    when ||g|| < 1e-10, when no halving keeps J from rising, or after
    ``max_iter`` steps; the model's ``stop`` names which. The margins of each
    point are computed once, by the line search that accepts it, and serve
    its gradient and Hessian.
    """
    n, d = X.shape
    Z = np.column_stack([X, np.ones(n)])
    linear_norm = 0.0 if linear_term is None else float(np.linalg.norm(linear_term)) / n
    w = np.zeros(d)
    b = 0.0
    margins = _margins(X, y_pm, w, b)
    j_cur = _objective_at(margins, w, lam, linear_term)
    iterations = 0
    while True:
        gw, gb = _gradient(X, y_pm, margins, w, lam, linear_term)
        g = np.append(gw, gb)
        gradient_norm = float(np.linalg.norm(g))
        if gradient_norm < _GRADIENT_TOL:
            stop = "gradient"
            break
        if iterations == max_iter:
            stop = "cap"
            break
        step = np.linalg.lstsq(_hessian(Z, margins, lam), -g, rcond=None)[0]
        # J's terms sum to at most |J| + 2 |v.w| / n in magnitude.
        slack = _ROUNDING * (abs(j_cur) + 2.0 * linear_norm * float(np.linalg.norm(w)))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            w_new = w + t * step[:d]
            b_new = b + t * float(step[d])
            margins_new = _margins(X, y_pm, w_new, b_new)
            j_new = _objective_at(margins_new, w_new, lam, linear_term)
            if j_new <= j_cur + slack:
                break
            t *= 0.5
        else:
            stop = "no_descent"
            break
        w, b, j_cur, margins = w_new, b_new, j_new, margins_new
        iterations += 1
    return LogisticModel(w, b, j_cur, iterations, gradient_norm, stop)


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
    """Fit the regularized logistic objective by damped Newton (see ``_fit``).

    Deterministic: zero initialization, at most ``config.epochs`` Newton
    iterations, stopping once the gradient norm is below 1e-10. The returned
    model carries the iterations taken, the final gradient norm and the stop
    reason. A ``linear_term`` v adds (1/n) v.w to the objective (objective
    perturbation). This is the package's only entry point to the trainer.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    _validate_training_inputs(features, labels)
    y_pm = np.where(labels == 1, 1.0, -1.0)
    return _fit(features, y_pm, config.lam, config.epochs, linear_term=linear_term)


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

