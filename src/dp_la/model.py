"""L2-regularized binary logistic regression, trained to its exact minimiser
by damped Newton.

The objective minimized is

    J(w, b) = (1/n) sum_i log(1 + exp(-y_i (w.x_i + b))) + (lam/2) ||w||^2

with y in {-1, +1} and an unregularized bias. With d features a Newton step
is one (d+1) x (d+1) solve -- by LU when lam > 0, where the Hessian is
positive definite, and by minimum-norm least squares when lam = 0 (or lies
below the rounding of the Hessian's diagonal), where it can be singular --
so training reaches ||grad J|| < 1e-10 in a handful of iterations. The
signed design matrix is stored feature-major, (d+1) x n, and the Hessian is
summed over cache-sized blocks of records, each block's product a symmetric
rank-k update (BLAS syrk). It starts from zero, never lets the objective
rise by more than its rounding error, and is bit-reproducible.
``TrainConfig.epochs`` caps the iterations, which matters only when no
finite minimiser exists (lam = 0 on separable data). A stack of tables of
one shape is solved in one loop, each model bit-identical to its own fit.
"""

from __future__ import annotations

import math
import reprlib
import sys
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
# Records per block of the design matrix's transpose and of the Hessian's
# product: a (d+1) x 4096 block of float64 is 786 KB at d = 23, so it stays
# in a 4 MiB L2 cache between its weighting and its product.
_BLOCK = 4096


# The JSON values a config field of each annotation takes: an int fills a
# float field (JSON writes 10.0 as 10), and a bool is no number.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


def _check_field_types(config, keys: dict[str, str] | None = None,
                       sizes: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the first field of the config dataclass
    ``config`` whose value, or for a ``tuple[T, ...]`` field each element,
    is not of a type in ``_JSON_TYPES``, or is a float field's value that is
    not a finite float (JSON parses ``NaN`` and ``Infinity``, and an integer
    may be too large for a float), or is a field in ``sizes`` (an int that
    sizes an array or a loop) above ``sys.maxsize``, numpy's largest
    dimension. A field is named by its config key: ``keys`` maps the fields
    whose key differs from their name, and its value is quoted abbreviated
    by ``reprlib``. A float field's value is stored as a float, so ``1`` and
    ``1.0`` make one config; fields of other types are built by the config
    loader."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type.removeprefix("tuple[").removesuffix(", ...]")
        is_tuple = kind != f.type and isinstance(value, tuple)
        values = value if is_tuple else (value,)
        allowed = _JSON_TYPES.get(kind)
        if allowed is None:
            continue
        key = (keys or {}).get(f.name, f.name)
        if any(isinstance(v, bool) or not isinstance(v, allowed) for v in values):
            raise ValueError(f"{key} must be {f.type}, got {reprlib.repr(value)}")
        if f.name in sizes and value > sys.maxsize:
            raise ValueError(f"{key} must be at most {sys.maxsize}, got {reprlib.repr(value)}")
        if kind == "float":
            try:
                values = tuple(map(float, values))
            except OverflowError:  # an integer too large for a float
                values = (math.inf,)
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{key} must be finite, got {reprlib.repr(value)}")
            object.__setattr__(config, f.name, values if is_tuple else values[0])


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
        _check_field_types(self, sizes=("epochs",))
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
    """The signed design matrix stored feature-major, ZT = (y * [X, 1])^T of
    shape (d+1, n): column i is y_i (x_i, 1), so the margins y_i (w.x_i + b)
    at theta = (w, b) are theta @ ZT. Each row of ZT is one feature over all
    records, contiguous, so the margin and gradient products stream it once
    and ``_hessian`` can weight a block of records in one pass. X is read
    transposed ``_BLOCK`` rows at a time, so each block's rows stay in cache
    while their columns are written out. A stack of K tables, X (K, n, d)
    and y_pm (K, n), gives the stack of their K matrices, (K, d+1, n)."""
    *stack, n, d = X.shape
    ZT = np.empty((*stack, d + 1, n))
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        np.multiply(X[..., rows, :].swapaxes(-1, -2), y_pm[..., None, rows],
                    out=ZT[..., :d, rows])
    ZT[..., d, :] = y_pm
    return ZT


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


def _evaluate(ZT: np.ndarray, theta: np.ndarray, ridge: np.ndarray,
              linear: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """J at theta, with the margins m = theta @ ZT and e = exp(-|m|) that the
    gradient and Hessian at theta reuse."""
    m = theta @ ZT
    e = np.exp(-np.abs(m))
    # log(1 + exp(-m)) = log1p(exp(-|m|)) + max(-m, 0), without overflow;
    # sum / n is np.mean's arithmetic without its call overhead
    loss = float((np.log1p(e) - np.minimum(m, 0.0)).sum()) / m.shape[0]
    return loss + 0.5 * float(theta @ (ridge * theta)) + float(linear @ theta), m, e


def _gradient(ZT: np.ndarray, theta: np.ndarray, m: np.ndarray, e: np.ndarray,
              ridge: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """Gradient of J over theta = (w, b) from the margins m and e = exp(-|m|)
    at theta: r * theta + l - ZT @ sigmoid(-m) / n."""
    # sigmoid(-m) = 1/(1+exp(m)): e/(1+e) for m >= 0, 1/(1+e) for m < 0
    sigmoid_neg = np.where(m >= 0.0, e, 1.0) / (1.0 + e)
    return ridge * theta + linear - ZT @ sigmoid_neg / ZT.shape[1]


def _hessian(ZT: np.ndarray, e: np.ndarray, ridge: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Hessian of J over theta = (w, b): W W^T / n + diag(r) with
    W = ZT diag(sqrt(s)) and s = sigmoid(m) sigmoid(-m) = e/(1+e)^2, so
    sqrt(s) = sqrt(e)/(1+e). The signs of ZT cancel in it.

    The records are taken ``_BLOCK`` at a time: ``buf`` (d+1 rows and at
    least min(n, ``_BLOCK``) columns, allocated once per fit) receives a
    block's W, and the block's W @ W.T -- which numpy computes as a BLAS
    syrk, half the flops of a general product and exactly symmetric -- is
    added to H. A table of at most ``_BLOCK`` records is one block. A stack
    of K problems (ZT (K, d+1, n), e (K, n), buf (K, d+1, ...)) gives their
    K Hessians, one syrk per problem and block."""
    n = ZT.shape[-1]
    root_s = (np.sqrt(e) / (1.0 + e))[..., None, :]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        W = np.multiply(ZT[..., start:stop], root_s[..., start:stop],
                        out=buf[..., : stop - start])
        if start == 0:
            H = W @ W.swapaxes(-1, -2)
        else:
            H += W @ W.swapaxes(-1, -2)
    H /= n
    # H is contiguous, so each problem's diagonal is every (d+2)-th entry of its flattening
    H.reshape(*H.shape[:-2], -1)[..., :: H.shape[-1] + 1] += ridge
    return H


def _min_norm_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of H p = rhs (rcond at machine
    precision), defined when H is singular."""
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _fit(X: np.ndarray, y_pm: np.ndarray, lam: float, max_iter: int,
         linear_term: np.ndarray | None = None) -> LogisticModel:
    """Damped Newton on theta = (w, b) from zero.

    The feature-major signed design matrix ZT ((d+1) x n), the Hessian's
    block buffer ((d+1) x min(n, ``_BLOCK``)), the ridge and the linear
    vectors are built once per fit. Each trial point costs one margin
    product theta @ ZT and one exp; the accepted point's margins serve its
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

    A stack of K tables of one shape, X (K, n, d) and y_pm (K, n), with no
    ``linear_term``, is solved by ``_fit_stack`` and gives a tuple of K
    models, each bit-identical to this loop's on its table.
    """
    if X.ndim == 3:
        return _fit_stack(X, y_pm, lam, max_iter)
    n, d = X.shape
    ZT = _design(X, y_pm)
    buf = np.empty((d + 1, min(n, _BLOCK)))
    ridge, linear = _penalties(d, n, lam, linear_term)
    linear_norm = math.sqrt(linear @ linear)
    theta = np.zeros(d + 1)
    j_cur, m, e = _evaluate(ZT, theta, ridge, linear)
    iterations = 0
    while True:
        g = _gradient(ZT, theta, m, e, ridge, linear)
        gradient_norm = math.sqrt(g @ g)  # np.linalg.norm's arithmetic
        if gradient_norm < _GRADIENT_TOL:
            stop = "gradient"
            break
        if iterations == max_iter:
            stop = "cap"
            break
        H = _hessian(ZT, e, ridge, buf)
        solve = _min_norm_solve if lam <= _EPS * H.diagonal().max() else np.linalg.solve
        step = solve(H, -g)
        # J's terms sum to at most |J| + 2 |l.theta| in magnitude.
        slack = _ROUNDING * (abs(j_cur) + 2.0 * linear_norm * math.sqrt(theta[:d] @ theta[:d]))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            theta_new = theta + t * step
            j_new, m_new, e_new = _evaluate(ZT, theta_new, ridge, linear)
            if j_new <= j_cur + slack:
                break
            t *= 0.5
        else:
            stop = "no_descent"
            break
        theta, j_cur, m, e = theta_new, j_new, m_new, e_new
        iterations += 1
    return LogisticModel(theta[:d], float(theta[d]), j_cur, iterations, gradient_norm, stop)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for each row k of two (K, m) stacks: one BLAS ddot per row,
    the product ``a[k] @ b[k]`` makes."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _evaluate_stack(ZT: np.ndarray, theta: np.ndarray,
                    ridge: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_evaluate`` for each problem of a stack with no linear term: ZT
    (K, d+1, n) and theta (K, d+1) give J (K,), m and e (K, n). Each
    problem's margins are one BLAS gemv and its loss one pairwise sum, as
    in ``_evaluate``; J leaves out the linear term's +-0, which changes no
    bit of a sum that is never -0."""
    m = (theta[:, None, :] @ ZT)[:, 0]
    e = np.exp(-np.abs(m))
    loss = (np.log1p(e) - np.minimum(m, 0.0)).sum(axis=1) / m.shape[1]
    return loss + 0.5 * _dots(theta, ridge * theta), m, e


def _newton_steps(H: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """The Newton step of each problem of a stack, H_k p = -g_k, by ``_fit``'s
    rule: a minimum-norm solve where lam <= eps * max diag(H_k), and one
    batched LU solve for the others."""
    min_norm = lam <= _EPS * H.diagonal(0, 1, 2).max(axis=1)
    step = np.empty_like(g)
    lu = ~min_norm
    if lu.any():
        step[lu] = np.linalg.solve(H[lu], -g[lu][..., None])[..., 0]
    for row in np.flatnonzero(min_norm):
        step[row] = _min_norm_solve(H[row], -g[row])
    return step


def _fit_stack(X: np.ndarray, y_pm: np.ndarray, lam: float,
               max_iter: int) -> tuple[LogisticModel, ...]:
    """``_fit`` on each of K tables of one shape, X (K, n, d) and y_pm (K, n),
    with one lam and no linear term, in one damped-Newton loop.

    Every problem takes ``_fit``'s steps: the same gradient stop, step rule,
    halving and cap. The problems still running step together, so one
    iteration counter serves them all, and each product of the loop is
    numpy's matmul on the stack, which calls per problem the BLAS routine
    ``_fit`` calls on its vectors: each model equals ``_fit``'s on its table,
    bit for bit. A problem that stops leaves the stack: its rows are dropped
    from the state once per iteration step at which some problem stopped.
    """
    k, n, d = X.shape
    ZT = _design(X, y_pm)
    buf = np.empty((k, d + 1, min(n, _BLOCK)))
    ridge, linear = _penalties(d, n, lam)
    theta = np.zeros((k, d + 1))
    j_cur, m, e = _evaluate_stack(ZT, theta, ridge)
    live = np.arange(k)  # the problem whose state each row of the stack holds
    models: list[LogisticModel | None] = [None] * k
    iterations = 0

    def record(rows: np.ndarray, stop: str) -> None:
        """Store the model of each row in ``rows`` of the current state, stopped by ``stop``."""
        for row in rows:
            models[live[row]] = LogisticModel(theta[row, :d].copy(), float(theta[row, d]),
                                              float(j_cur[row]), iterations, float(norm[row]),
                                              stop)

    while True:
        sigmoid_neg = np.where(m >= 0.0, e, 1.0) / (1.0 + e)
        # + linear (zero) as in _gradient, which turns a -0 bias term into +0
        g = ridge * theta + linear - (ZT @ sigmoid_neg[..., None])[..., 0] / n
        norm = np.sqrt(_dots(g, g))
        converged = norm < _GRADIENT_TOL
        stopped = converged | (iterations == max_iter)
        if stopped.any():
            record(np.flatnonzero(converged), "gradient")
            record(np.flatnonzero(stopped & ~converged), "cap")
            going = ~stopped
            if not going.any():
                break
            live, ZT, theta, j_cur, e, g, norm = (a[going]
                                                  for a in (live, ZT, theta, j_cur, e, g, norm))
        step = _newton_steps(_hessian(ZT, e, ridge, buf[: live.size]), g, lam)
        # J's terms sum to at most |J| in magnitude (no linear term).
        bound = j_cur + _ROUNDING * np.abs(j_cur)
        t = 1.0
        theta_new = theta + t * step
        j_new, m, e = _evaluate_stack(ZT, theta_new, ridge)
        rows = np.flatnonzero(~(j_new <= bound))
        for _ in range(_MAX_HALVINGS - 1):
            if not rows.size:
                break
            t *= 0.5
            theta_new[rows] = theta[rows] + t * step[rows]
            j_new[rows], m[rows], e[rows] = _evaluate_stack(ZT[rows], theta_new[rows], ridge)
            rows = rows[~(j_new[rows] <= bound[rows])]
        if rows.size:
            record(rows, "no_descent")
            going = np.ones(live.size, bool)
            going[rows] = False
            live, ZT, theta_new, j_new, m, e = (a[going]
                                                for a in (live, ZT, theta_new, j_new, m, e))
            if not live.size:
                break
        theta, j_cur = theta_new, j_new
        iterations += 1
    return tuple(models)


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
    perturbation). This and ``pipelines.pate_train``, which fits its
    teachers as stacks through ``_fit``, are the package's entry points to
    the trainer.
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

