"""L2-regularized binary logistic regression, trained to its exact minimiser
by damped Newton.

The objective minimized is

    J(w, b) = (1/n) sum_i log(1 + exp(-y_i (w.x_i + b))) + (lam/2) ||w||^2

with y in {-1, +1} and an unregularized bias. With d features a Newton step
is one (d+1) x (d+1) solve -- by LU when lam > 0, and by minimum-norm least
squares where the Hessian can be singular: lam = 0, a lam below the rounding
of its diagonal, or a bias curvature that underflowed to 0 -- so training
reaches ||grad J|| < 1e-10 in a handful of iterations. The signed design
matrix is stored feature-major, (d+1) x n, and the Hessian is summed over
cache-sized blocks of records, each block's product a symmetric rank-k
update (BLAS syrk). It starts from zero, never lets the objective rise by
more than its rounding error, and is bit-reproducible.
``TrainConfig.epochs`` caps the iterations, which matters only when no
finite minimiser exists (lam = 0 on separable data). There is one loop: it
solves a stack of K tables of one shape, and a single table is the stack of
one, so each model is bit-identical to the fit of its table alone. A
problem that stops, by any exit, leaves the stack in one place: the
gradient check at the top of each iteration. ``train`` is the one way into
the loop, for a table or a stack. The module is the trainer alone; config
fields are checked in ``dp_la._config``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import check_field_types

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
        check_field_types(self, sizes=("epochs",))
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


def _dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """a_k . b_k for each problem k of a stack of rows a (K, 1, m) and b
    (K, 1, m), or one row b (1, 1, m) for all, as a list of K floats: one
    BLAS ddot per problem, the call ``a_k @ b_k`` on lone vectors makes."""
    return (a @ b.swapaxes(1, 2)).ravel().tolist()


def _evaluate(ZT: np.ndarray, theta: np.ndarray, ridge: np.ndarray,
              linear: np.ndarray | None) -> tuple[list[float], np.ndarray, np.ndarray]:
    """J at each theta_k of a stack of K problems, ZT (K, d+1, n) and theta
    (K, 1, d+1), as a list of K floats, with the margins m_k = theta_k @ ZT_k
    and e = exp(-|m|), both (K, 1, n), that the gradient and Hessian at theta
    reuse. ``ridge`` and ``linear`` are rows (1, 1, d+1). Each problem's
    margins are one BLAS gemv and its loss one pairwise sum, as for that
    problem alone. ``linear`` None leaves out the linear term's +-0, which
    changes no bit of a sum that is never -0."""
    m = theta @ ZT
    e = np.exp(-np.abs(m))
    n = m.shape[-1]
    # log(1 + exp(-m)) = log1p(exp(-|m|)) + max(-m, 0), without overflow;
    # sum / n is np.mean's arithmetic without its call overhead
    sums = (np.log1p(e) - np.minimum(m, 0.0)).sum(axis=2).ravel().tolist()
    j = [s / n + 0.5 * q for s, q in zip(sums, _dots(theta, ridge * theta))]
    if linear is not None:
        j = [x + q for x, q in zip(j, _dots(theta, linear))]
    return j, m, e


def _gradient(ZT: np.ndarray, theta: np.ndarray, m: np.ndarray, e: np.ndarray,
              ridge: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """Gradient of J over theta = (w, b) at each problem of a stack, as rows
    (K, 1, d+1), from its margins m and e = exp(-|m|): r * theta + l -
    ZT @ sigmoid(-m) / n, one BLAS gemv per problem."""
    # sigmoid(-m) = 1/(1+exp(m)): e/(1+e) for m >= 0, 1/(1+e) for m < 0
    sigmoid_neg = np.where(m >= 0.0, e, 1.0) / (1.0 + e)
    # the row sigmoid(-m) @ ZT^T makes the gemv of ZT @ sigmoid(-m); + l even
    # when it is zero: it turns a -0 bias term into +0
    return ridge * theta + linear - sigmoid_neg @ ZT.swapaxes(1, 2) / ZT.shape[-1]


def _hessian(ZT: np.ndarray, e: np.ndarray, ridge: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Hessian of J over theta = (w, b): W W^T / n + diag(r) with
    W = ZT diag(sqrt(s)) and s = sigmoid(m) sigmoid(-m) = e/(1+e)^2, so
    sqrt(s) = sqrt(e)/(1+e). The signs of ZT cancel in it.

    The records are taken ``_BLOCK`` at a time: ``buf`` (d+1 rows and at
    least min(n, ``_BLOCK``) columns, allocated once per fit) receives a
    block's W, and the block's W @ W.T -- which numpy computes as a BLAS
    syrk, half the flops of a general product and exactly symmetric -- is
    added to H. A table of at most ``_BLOCK`` records is one block. A stack
    of K problems (ZT (K, d+1, n), e (K, 1, n), buf (K, d+1, ...), ``ridge``
    a vector or a row (1, 1, d+1)) gives their K Hessians, one syrk per
    problem and block."""
    n = ZT.shape[-1]
    root_s = np.sqrt(e) / (1.0 + e)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        W = np.multiply(ZT[..., start:stop], root_s[..., start:stop],
                        out=buf[..., : stop - start])
        if start == 0:
            H = W @ W.swapaxes(-1, -2)
        else:
            H += W @ W.swapaxes(-1, -2)
    H /= n
    # H is contiguous, so each problem's diagonal is every (d+2)-th entry of
    # its flattening, taken as a row
    H.reshape(*H.shape[:-2], 1, -1)[..., :: H.shape[-1] + 1] += ridge
    return H


def _min_norm_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of H p = rhs (rcond at machine
    precision), defined when H is singular."""
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _newton_steps(H: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """The Newton step of each problem of a stack, H_k p = -g_k with g rows
    (K, 1, d+1): one batched LU solve, except where H_k can be singular,
    which takes the minimum-norm step (``_min_norm_solve``): where
    lam <= eps * max diag(H_k), and where the bias curvature H_k[d, d] is 0
    (every row's curvature underflowed)."""
    diag = H.diagonal(0, 1, 2)
    singular = [lam <= _EPS * top or bias == 0.0
                for top, bias in zip(diag.max(axis=1).tolist(), diag[:, -1].tolist())]
    if True not in singular:
        return np.linalg.solve(H, -g.swapaxes(1, 2)).swapaxes(1, 2)
    step = np.empty_like(g)
    lu = [row for row, s in enumerate(singular) if not s]
    if lu:
        step[lu] = np.linalg.solve(H[lu], -g[lu].swapaxes(1, 2)).swapaxes(1, 2)
    for row, s in enumerate(singular):
        if s:
            step[row, 0] = _min_norm_solve(H[row], -g[row, 0])
    return step


def _model(theta: np.ndarray, j: float, iterations: int, gradient_norm: float,
           stop: str) -> LogisticModel:
    """The model at one problem's theta = (w, b), with its diagnostics."""
    return LogisticModel(theta[:-1].copy(), float(theta[-1]), j, iterations, gradient_norm, stop)


def _fit(X: np.ndarray, y_pm: np.ndarray, lam: float, max_iter: int,
         linear_term: np.ndarray | None = None) -> LogisticModel | tuple[LogisticModel, ...]:
    """Damped Newton on theta = (w, b) from zero, for one table X (n, d) with
    signed labels y_pm (n,), or for each of a stack of K tables of one
    shape, X (K, n, d) and y_pm (K, n), which gives a tuple of K models. One
    table is solved as the stack of one; one lam and ``linear_term`` serve
    every problem. Its one caller is ``train``, which checks the tables and
    maps their labels to +-1.

    The feature-major signed design matrices ZT (K, d+1, n), the Hessian's
    block buffer ((d+1) x min(n, ``_BLOCK``) per problem), the ridge and the
    linear vectors are built once per fit. Each trial point costs one margin
    product theta @ ZT and one exp per problem; the accepted point's margins
    serve its gradient and Hessian.

    With lam > 0 the Hessian is positive definite in exact arithmetic --
    for v = (u, c), v^T H v >= lam ||u||^2 when u != 0 and c^2 mean(s) > 0
    when u = 0, with s the per-row curvatures of ``_hessian`` -- and the
    Newton step is an LU solve. In floating point every s underflows to 0
    once every margin exceeds about 745, and then H = diag(lam, ..., lam, 0)
    is singular. With lam = 0 H can be singular too (one-hot columns that
    sum to the bias column, or separable data whose curvature vanishes). In
    both cases the step is the minimum-norm least-squares solution, which
    keeps theta orthogonal to the null space. So is it for a lam too small
    to survive the rounding of H's diagonal (lam <= eps * its largest
    entry): adding it changes no bit of H, and an LU step would move freely
    along the null space. The step is halved until the objective does not
    rise by more than its rounding error: near the minimiser a Newton step
    lowers J by less than that, and an exact comparison would reject the
    steps that finish the solve. A problem stops when ||g|| < 1e-10, when no
    halving keeps J from rising, or after ``max_iter`` steps; its model's
    ``stop`` names which.

    Each problem keeps its own step rule, halving and stop; its scalars (J,
    the acceptance bound, ||g||) are Python floats. The problems still
    running step together, so one iteration counter serves them all. A
    problem's model is recorded where its exit is found, and the problem
    leaves the stack in one place, the gradient check at the top of the
    loop: at once for a small gradient or the cap, and at the next check
    for ``no_descent``, whose row meanwhile only gets a gradient that no
    model reads. Every vector of the loop is a stack of rows, theta
    (K, 1, d+1) and the margins (K, 1, n), so each product is
    numpy's matmul on the stack, which calls, per problem, the BLAS routine
    that problem's vectors alone would take (gemv for margins and gradient,
    syrk for the Hessian, ddot for norms and penalties), and the LU steps
    are one batched LAPACK solve: each model is bit-identical to the fit of
    its table alone.
    """
    stacked = X.ndim == 3
    if not stacked:
        X, y_pm = X[None], y_pm[None]
    k, n, d = X.shape
    ZT = _design(X, y_pm)
    buf = np.empty((k, d + 1, min(n, _BLOCK)))
    # rows (1, 1, d+1) broadcast over the stack with no change of rank
    ridge, linear = (v[None, None] for v in _penalties(d, n, lam, linear_term))
    linear_norm = math.sqrt(_dots(linear, linear)[0])
    perturbed = None if linear_term is None else linear
    theta = np.zeros((k, 1, d + 1))
    j_cur, m, e = _evaluate(ZT, theta, ridge, perturbed)
    live = list(range(k))  # the problem whose state each row of the stack holds
    models: list[LogisticModel | None] = [None] * k
    iterations = 0
    while True:
        g = _gradient(ZT, theta, m, e, ridge, linear)
        norms = list(map(math.sqrt, _dots(g, g)))
        for row, norm in enumerate(norms):
            if models[live[row]] is None and (norm < _GRADIENT_TOL or iterations == max_iter):
                models[live[row]] = _model(theta[row, 0], j_cur[row], iterations, norm,
                                           "gradient" if norm < _GRADIENT_TOL else "cap")
        # the one place a stopped problem, by any exit, leaves the stack
        going = [row for row, problem in enumerate(live) if models[problem] is None]
        if len(going) < len(live):
            if not going:
                break
            ZT, theta, e, g = (a[going] for a in (ZT, theta, e, g))
            live, j_cur, norms = ([a[row] for row in going] for a in (live, j_cur, norms))
        step = _newton_steps(_hessian(ZT, e, ridge, buf[: len(live)]), g, lam)
        # J's terms sum to at most |J| + 2 |l.theta| <= |J| + 2 ||l|| ||w|| in magnitude
        w_norms = ([0.0] * len(live) if perturbed is None
                   else map(math.sqrt, _dots(theta[..., :d], theta[..., :d])))
        bound = [j + _ROUNDING * (abs(j) + 2.0 * linear_norm * w) for j, w in zip(j_cur, w_norms)]
        theta_new = theta + step
        j_new, m, e = _evaluate(ZT, theta_new, ridge, perturbed)
        rows = [row for row, j in enumerate(j_new) if not j <= bound[row]]
        t = 1.0
        for _ in range(_MAX_HALVINGS - 1):
            if not rows:
                break
            t *= 0.5
            # a halving of every problem takes no copy of ZT
            part = slice(None) if len(rows) == len(live) else rows
            theta_new[part] = theta[part] + t * step[part]
            j_part, m[part], e[part] = _evaluate(ZT[part], theta_new[part], ridge, perturbed)
            for row, j in zip(rows, j_part):
                j_new[row] = j
            rows = [row for row in rows if not j_new[row] <= bound[row]]
        for row in rows:  # its row leaves the stack at the next gradient check
            models[live[row]] = _model(theta[row, 0], j_cur[row], iterations, norms[row],
                                       "no_descent")
        theta, j_cur = theta_new, j_new
        iterations += 1
    return tuple(models) if stacked else models[0]


def _validate_training_inputs(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Raise on malformed inputs, one table (n, d) with labels (n,) or a
    stack of K >= 1 tables (K, n, d) with labels (K, n), each table checked
    on its own; return the labels' ``labels == 1`` mask."""
    if features.ndim not in (2, 3):
        raise ValueError(f"features must be a stack or a 2-D matrix, got shape {features.shape}")
    if features.shape[:-1] != labels.shape:
        raise ValueError("features and labels disagree on the number of rows")
    if features.shape[-2] < 2 or not len(features):  # each table, and at least one
        raise ValueError("need at least 2 training rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    ones = labels == 1
    if not np.all(ones | (labels == 0)):
        raise ValueError(f"labels must be in {{0, 1}}, got {np.unique(labels)}")
    if ones.all(axis=-1).any() or not ones.any(axis=-1).all():
        raise ValueError("training data contains a single class")
    return ones


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig,
          linear_term: np.ndarray | None = None) -> LogisticModel | tuple[LogisticModel, ...]:
    """Fit the regularized logistic objective by damped Newton (see ``_fit``)
    on one table, features (n, d) with 0/1 labels (n,), or on each of a
    stack of K tables of one shape, features (K, n, d) with labels (K, n),
    which gives a tuple of K models, each bit-identical to the model of its
    table alone.

    Deterministic: zero initialization, at most ``config.epochs`` Newton
    iterations, stopping once the gradient norm is below 1e-10. Each
    returned model carries the iterations taken, the final gradient norm and
    the stop reason. A ``linear_term`` v, a finite vector of one entry per
    feature, adds (1/n) v.w to the objective (objective perturbation); it
    needs lam > 0, since without the ridge J can fall without bound. This is
    the package's one entry to the trainer: every table is checked here and
    its labels mapped to +-1 once, and ``_fit`` has no other caller.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    y_pm = np.where(_validate_training_inputs(features, labels), 1.0, -1.0)
    if linear_term is not None:
        linear_term = np.asarray(linear_term, dtype=float)
        if linear_term.shape != features.shape[-1:]:
            raise ValueError(f"linear_term must have shape {features.shape[-1:]}, "
                             f"got {linear_term.shape}")
        if not np.all(np.isfinite(linear_term)):
            raise ValueError("linear_term contains non-finite values")
        if config.lam == 0:
            raise ValueError("a linear_term needs lam > 0, or J can fall without bound")
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

