"""Desk-scale classifiers: kNN and multinomial logistic regression.

kNN breaks distance ties toward the lower training index and vote ties
toward the smallest class label, so predictions are fully deterministic.
The regression is fit by line-search Newton-CG (truncated Newton): each
step solves the Newton system by conjugate gradient on Hessian-vector
products, so the Hessian is never formed, and Armijo backtracking keeps
the objective non-increasing. Parameters start at zero, so the fit is
deterministic without a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import ValidationError

DEFAULT_L2 = 1e-2
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 2000
_QUERY_CHUNK = 256
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking search
_MIN_STEP = 1e-10  # backtracking gives up below this step length


@dataclass(frozen=True)
class KnnConfig:
    """Neighbour count for euclidean kNN; the metric is fixed."""

    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")


def knn_predict(train: LabeledDataset, query, cfg: KnnConfig = KnnConfig()) -> int:
    """Majority label among the k nearest training points."""
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    return int(knn_predict_batch(train, q, cfg)[0])


def knn_predict_batch(train: LabeledDataset, queries, cfg: KnnConfig = KnnConfig()):
    if cfg.k > train.n:
        raise ValidationError(f"k={cfg.k} exceeds training size {train.n}")
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != train.features.d:
        raise ValidationError(
            f"query dimension {q.shape} incompatible with d={train.features.d}"
        )
    x = train.features.values.astype(np.float64)
    y = train.labels.labels
    nq = q.shape[0]
    preds = np.empty(nq, dtype=np.int64)
    for start in range(0, nq, _QUERY_CHUNK):
        stop = min(start + _QUERY_CHUNK, nq)
        chunk = q[start:stop]
        d2 = ((chunk[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        # stable sort keeps the lower training index first on distance ties
        order = np.argsort(d2, axis=1, kind="stable")[:, :cfg.k]
        for r in range(order.shape[0]):
            counts = np.bincount(y[order[r]], minlength=train.n_classes)
            preds[start + r] = int(counts.argmax())
    return preds


def knn_accuracy(train: LabeledDataset, holdout: LabeledDataset,
                 cfg: KnnConfig = KnnConfig()) -> float:
    """Fraction of holdout points whose kNN prediction matches their label."""
    if holdout.n == 0:
        raise ValidationError("holdout set is empty")
    preds = knn_predict_batch(train, holdout.features.values.astype(np.float64), cfg)
    return float((preds == holdout.labels.labels).mean())


@dataclass
class LogRegModel:
    """Softmax classifier parameters plus fit diagnostics."""

    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    l2: float
    n_trained: int
    n_iters: int = 0
    converged: bool = False
    objective_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def predict_proba(self, x) -> np.ndarray:
        """Class posterior for one feature vector (overflow-safe softmax)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.weights.shape[1]:
            raise ValidationError(
                f"input dimension {x.shape[0]} != model dimension {self.weights.shape[1]}"
            )
        return _row_softmax((self.weights @ x + self.bias)[None, :])[0]

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.weights.shape[1]:
            raise ValidationError(
                f"input shape {X.shape} incompatible with model dimension "
                f"{self.weights.shape[1]}"
            )
        return _row_softmax(X @ self.weights.T + self.bias)

    def predict_batch(self, X) -> np.ndarray:
        return self.predict_proba_batch(X).argmax(axis=1)

    def accuracy(self, holdout: LabeledDataset) -> float:
        preds = self.predict_batch(holdout.features.values)
        return float((preds == holdout.labels.labels).mean())


def _row_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax of each row of a 2-D score array, in place (overflow-safe)."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def softmax_objective(weights, bias, X, y, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||W||^2; the quantity the fit minimizes."""
    scores = X @ weights.T + bias
    m = scores.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))
    ce = float((log_norm - scores[np.arange(X.shape[0]), y]).mean())
    return ce + 0.5 * l2 * float((weights ** 2).sum())


def softmax_gradients(weights, bias, X, y, l2: float):
    """Analytic gradients of softmax_objective w.r.t. weights and bias."""
    n = X.shape[0]
    p = _row_softmax(X @ weights.T + bias)
    p[np.arange(n), y] -= 1.0
    p /= n
    return p.T @ X + l2 * weights, p.sum(axis=0)


def _softmax_hvp(P, X, V, c, l2: float):
    """Hessian of softmax_objective applied to the direction (V, c).

    P holds the class probabilities (n, C) at the point of expansion. Each
    row's cross-entropy Hessian in score space is diag(p) - p p^T, so the
    product costs two (n, d) x (d, C) matmuls and never forms the
    C(d+1)-square Hessian. A common bias shift (V = 0, c = 1) maps to zero.
    """
    S = X @ V.T + c
    R = P * (S - (P * S).sum(axis=1, keepdims=True))
    R /= X.shape[0]
    return R.T @ X + l2 * V, R.sum(axis=0)


def _newton_cg_direction(P, X, g, l2: float) -> np.ndarray:
    """Truncated conjugate-gradient solve of H D = -g for a Newton step.

    g and the result stack weights and bias as (C, d+1) arrays [W | b].
    CG stops once ||r|| <= min(0.5, sqrt||g||) ||g|| (superlinear forcing
    term), after C(d+1) products, or on non-positive curvature, where it
    keeps the last iterate, or falls back to -g if that is the first.
    """
    def hvp(D):
        hv, hc = _softmax_hvp(P, X, D[:, :-1], D[:, -1], l2)
        return np.concatenate((hv, hc[:, None]), axis=1)

    g_norm = float(np.sqrt(np.vdot(g, g)))
    eps = min(0.5, np.sqrt(g_norm)) * g_norm
    z = np.zeros_like(g)
    r = g.copy()  # residual H z + g
    d = -r
    rr = g_norm * g_norm
    for j in range(g.size):
        Hd = hvp(d)
        curvature = float(np.vdot(d, Hd))
        if curvature <= 0.0:
            return -g if j == 0 else z
        alpha = rr / curvature
        z += alpha * d
        r += alpha * Hd
        rr_new = float(np.vdot(r, r))
        if np.sqrt(rr_new) <= eps:
            break
        d *= rr_new / rr
        d -= r
        rr = rr_new
    return z


def logreg_fit(train: LabeledDataset, l2: float = DEFAULT_L2,
               tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
               n_classes: int | None = None) -> LogRegModel:
    """Fit a multinomial logistic regression by line-search Newton-CG.

    Each Newton step solves H D = -g inexactly by conjugate gradient on
    Hessian-vector products (Nocedal & Wright, Numerical Optimization,
    sec. 7.1), so memory stays O(nC + Cd). The step length is found by
    Armijo backtracking from 1, so the recorded objective history is
    non-increasing. max_iters counts Newton steps. Convergence is
    declared when the largest absolute entry of the full gradient drops
    to tol; the fit also stops, unconverged, if backtracking finds no
    decrease. The common bias shift leaves the objective unchanged, but
    the gradient has no component along it, so no step ever takes it.
    """
    if l2 < 0:
        raise ValidationError(f"l2 must be >= 0, got {l2}")
    X = train.features.values.astype(np.float64)
    y = train.labels.labels
    if np.unique(y).size < 2:
        raise ValidationError("logistic regression needs at least two classes present")
    C = train.n_classes if n_classes is None else n_classes
    if C < train.n_classes:
        raise ValidationError(f"n_classes={C} below observed label range {train.n_classes}")
    W = np.zeros((C, X.shape[1]))
    b = np.zeros(C)
    history = [softmax_objective(W, b, X, y, l2)]
    converged = False
    it = 0
    while it < max_iters:
        gW, gb = softmax_gradients(W, b, X, y, l2)
        g = np.concatenate((gW, gb[:, None]), axis=1)
        if np.abs(g).max() <= tol:
            converged = True
            break
        D = _newton_cg_direction(_row_softmax(X @ W.T + b), X, g, l2)
        slope = float(np.vdot(g, D))
        t = 1.0
        while t >= _MIN_STEP:
            W_new = W + t * D[:, :-1]
            b_new = b + t * D[:, -1]
            obj_new = softmax_objective(W_new, b_new, X, y, l2)
            if obj_new <= history[-1] + _ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        if t < _MIN_STEP:
            break
        W, b = W_new, b_new
        history.append(obj_new)
        it += 1
    return LogRegModel(weights=W, bias=b, l2=l2, n_trained=train.n,
                       n_iters=it, converged=converged,
                       objective_history=np.array(history))
