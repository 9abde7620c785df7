"""L2-regularized binary logistic regression, trained to its exact minimiser
by damped Newton.

The objective minimized is

    J(w, b) = (1/n) sum_i log(1 + exp(-y_i (w.x_i + b))) + (lam/2) ||w||^2

with y in {-1, +1} and an unregularized bias. With d features a Newton step
is one (d+1) x (d+1) solve -- by LU when lam > 0, where the Hessian is
positive definite, and by minimum-norm least squares when lam = 0 (or lies
below the rounding of the Hessian's diagonal), where it can be singular --
so training reaches ||grad J|| < 1e-10 in a handful of iterations. It
starts from zero, never lets the objective rise by more than its rounding
error, and is bit-reproducible. ``TrainConfig.epochs`` caps the iterations,
which matters only when no finite minimiser exists (lam = 0 on separable
data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
# Machine epsilon: a ridge at most this times H's largest diagonal entry is
# lost in its rounding.
_EPS = float(np.finfo(float).eps)
_MAX_HALVINGS = 60
# Relative rounding error allowed when comparing objectives (about 450 ulp).
_ROUNDING = 1e-13


# The JSON values a config field of each annotation takes: an int fills a
# float field (JSON writes 10.0 as 10), and a bool is no number.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


def _check_field_types(config, keys: dict[str, str] | None = None) -> None:
    """Raise ValueError naming the first field of the config dataclass
    ``config`` whose value, or for a ``tuple[T, ...]`` field each element,
    is not of a type in ``_JSON_TYPES`` or is a NaN or infinite float (JSON
    parses ``NaN`` and ``Infinity``). A field is named by its config key:
    ``keys`` maps the fields whose key differs from their name. Values are
    checked, never converted; fields of other types are built by the config
    loader."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type.removeprefix("tuple[").removesuffix(", ...]")
        values = value if kind != f.type and isinstance(value, tuple) else (value,)
        allowed = _JSON_TYPES.get(kind)
        if allowed is None:
            continue
        key = (keys or {}).get(f.name, f.name)
        if any(isinstance(v, bool) or not isinstance(v, allowed) for v in values):
            raise ValueError(f"{key} must be {f.type}, got {value!r}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError(f"{key} must be finite, got {value!r}")


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
        _check_field_types(self)
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


def _design(X: np.ndarray, y_pm: np.ndarray) -> np.ndarray:
    """The signed design matrix Zy = y * [X, 1]: row i is y_i (x_i, 1), so the
    margins y_i (w.x_i + b) at theta = (w, b) are Zy @ theta."""
    n, d = X.shape
    Zy = np.empty((n, d + 1))
    np.multiply(X, y_pm[:, None], out=Zy[:, :d])
    Zy[:, d] = y_pm
    return Zy


def _penalties(d: int, n: int, lam: float,
               linear_term: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ridge vector r = (lam, ..., lam, 0) and the linear vector
    l = (v/n, 0) over theta = (w, b); the bias is neither regularized nor
    perturbed."""
    ridge = np.full(d + 1, float(lam))
    ridge[d] = 0.0
    linear = np.zeros(d + 1)
    if linear_term is not None:
        linear[:d] = linear_term / n
    return ridge, linear


def _evaluate(Zy: np.ndarray, theta: np.ndarray, ridge: np.ndarray,
              linear: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """J at theta, with the margins m = Zy theta and e = exp(-|m|) that the
    gradient and Hessian at theta reuse."""
    m = Zy @ theta
    e = np.exp(-np.abs(m))
    # log(1 + exp(-m)) = log1p(exp(-|m|)) + max(-m, 0), without overflow;
    # sum / n is np.mean's arithmetic without its call overhead
    loss = float((np.log1p(e) - np.minimum(m, 0.0)).sum()) / m.shape[0]
    return loss + 0.5 * float(theta @ (ridge * theta)) + float(linear @ theta), m, e


def _gradient(Zy: np.ndarray, theta: np.ndarray, m: np.ndarray, e: np.ndarray,
              ridge: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """Gradient of J over theta = (w, b) from the margins m and e = exp(-|m|)
    at theta: r * theta + l - Zy^T sigmoid(-m) / n."""
    # sigmoid(-m) = 1/(1+exp(m)): e/(1+e) for m >= 0, 1/(1+e) for m < 0
    sigmoid_neg = np.where(m >= 0.0, e, 1.0) / (1.0 + e)
    return ridge * theta + linear - Zy.T @ sigmoid_neg / Zy.shape[0]


def _hessian(Zy: np.ndarray, e: np.ndarray, ridge: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Hessian of J over theta = (w, b): Zy^T diag(s) Zy / n + diag(r) with
    s = sigmoid(m) sigmoid(-m) = e/(1+e)^2. The signs of Zy cancel in it.

    ``buf`` (Zy's shape) receives diag(s) Zy, so a fit allocates that product
    once rather than per iteration; ``buf.T`` has the layout of ``Zy.T * s``,
    so the matrix product and its bits are the same."""
    np.multiply(Zy, (e / (1.0 + e) ** 2)[:, None], out=buf)
    H = buf.T @ Zy / Zy.shape[0]
    H.flat[:: H.shape[0] + 1] += ridge
    return H


def _min_norm_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of H p = rhs (rcond at machine
    precision), defined when H is singular."""
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _fit(X: np.ndarray, y_pm: np.ndarray, lam: float, max_iter: int,
         linear_term: np.ndarray | None = None) -> LogisticModel:
    """Damped Newton on theta = (w, b) from zero.

    The signed design matrix, the Hessian's product buffer, the ridge and
    the linear vectors are built once per fit. Each trial point costs one
    margin product and one exp; the accepted point's margins serve its
    gradient and Hessian.

    With lam > 0 the Hessian is positive definite -- for v = (u, c),
    v^T H v >= lam ||u||^2 when u != 0 and c^2 mean(s) > 0 when u = 0, with
    s the per-row curvatures of ``_hessian`` -- so the Newton step is an LU
    solve. With lam = 0 the Hessian can be singular
    (one-hot columns that sum to the bias column, or separable data whose
    curvature vanishes), and the step is the minimum-norm least-squares
    solution, which keeps theta orthogonal to the null space. So is a lam
    too small to survive the rounding of H's diagonal (lam <= eps * its
    largest entry): adding it changes no bit of H, and an LU step would move
    freely along the null space. The step is halved until the objective does
    not rise by more than its rounding error: near the minimiser a Newton
    step lowers J by less than that, and an exact comparison would reject
    the steps that finish the solve. The loop stops when ||g|| < 1e-10, when
    no halving keeps J from rising, or after ``max_iter`` steps; the model's
    ``stop`` names which.
    """
    n, d = X.shape
    Zy = _design(X, y_pm)
    buf = np.empty_like(Zy)
    ridge, linear = _penalties(d, n, lam, linear_term)
    linear_norm = math.sqrt(linear @ linear)
    theta = np.zeros(d + 1)
    j_cur, m, e = _evaluate(Zy, theta, ridge, linear)
    iterations = 0
    while True:
        g = _gradient(Zy, theta, m, e, ridge, linear)
        gradient_norm = math.sqrt(g @ g)  # np.linalg.norm's arithmetic
        if gradient_norm < _GRADIENT_TOL:
            stop = "gradient"
            break
        if iterations == max_iter:
            stop = "cap"
            break
        H = _hessian(Zy, e, ridge, buf)
        solve = _min_norm_solve if lam <= _EPS * H.diagonal().max() else np.linalg.solve
        step = solve(H, -g)
        # J's terms sum to at most |J| + 2 |l.theta| in magnitude.
        slack = _ROUNDING * (abs(j_cur) + 2.0 * linear_norm * math.sqrt(theta[:d] @ theta[:d]))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            theta_new = theta + t * step
            j_new, m_new, e_new = _evaluate(Zy, theta_new, ridge, linear)
            if j_new <= j_cur + slack:
                break
            t *= 0.5
        else:
            stop = "no_descent"
            break
        theta, j_cur, m, e = theta_new, j_new, m_new, e_new
        iterations += 1
    return LogisticModel(theta[:d], float(theta[d]), j_cur, iterations, gradient_norm, stop)


def _validate_training_inputs(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Raise on malformed inputs; return the labels' ``labels == 1`` mask."""
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got shape {features.shape}")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on the number of rows")
    if features.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    ones = labels == 1
    if not np.all(ones | (labels == 0)):
        raise ValueError(f"labels must be in {{0, 1}}, got {np.unique(labels)}")
    if ones.all() or not ones.any():
        raise ValueError("training data contains a single class")
    return ones


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
    y_pm = np.where(_validate_training_inputs(features, labels), 1.0, -1.0)
    return _fit(features, y_pm, config.lam, config.epochs, linear_term=linear_term)


def predict_proba(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Class-1 probability sigmoid(w.x + b) per row."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dimension {features.shape} does not match model dimension {model.weights.shape[0]}"
        )
    z = features @ model.weights + model.bias
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def predict(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Hard labels; ties at 0.5 classify as 1."""
    return (predict_proba(model, features) >= 0.5).astype(int)


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("cannot score empty prediction vectors")
    return float(np.mean(predicted == actual))

