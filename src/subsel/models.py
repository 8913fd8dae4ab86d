"""Desk-scale classifiers: kNN and multinomial logistic regression.

kNN breaks distance ties toward the lower training index and vote ties
toward the smallest class label, so predictions are fully deterministic.
The regression is fit by full-batch gradient descent with step halving
on any objective increase; parameters start at zero, so the fit is
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
        return _softmax(self.weights @ x + self.bias)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.weights.shape[1]:
            raise ValidationError(
                f"input shape {X.shape} incompatible with model dimension "
                f"{self.weights.shape[1]}"
            )
        scores = X @ self.weights.T + self.bias
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        return scores

    def predict_batch(self, X) -> np.ndarray:
        return self.predict_proba_batch(X).argmax(axis=1)

    def accuracy(self, holdout: LabeledDataset) -> float:
        preds = self.predict_batch(holdout.features.values)
        return float((preds == holdout.labels.labels).mean())


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_objective(weights, bias, X, y, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||W||^2; the quantity the fit descends."""
    scores = X @ weights.T + bias
    m = scores.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))
    ce = float((log_norm - scores[np.arange(X.shape[0]), y]).mean())
    return ce + 0.5 * l2 * float((weights ** 2).sum())


def softmax_gradients(weights, bias, X, y, l2: float):
    """Analytic gradients of softmax_objective w.r.t. weights and bias."""
    n = X.shape[0]
    scores = X @ weights.T + bias
    scores -= scores.max(axis=1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), y] -= 1.0
    p /= n
    return p.T @ X + l2 * weights, p.sum(axis=0)


def logreg_fit(train: LabeledDataset, l2: float = DEFAULT_L2,
               tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
               n_classes: int | None = None) -> LogRegModel:
    """Fit a multinomial logistic regression by damped gradient descent.

    The cross-entropy part takes plain gradient steps while the ridge
    term is applied as its exact proximal shrinkage, which keeps the
    weight subspace stable even under extreme regularization. Any step
    that would raise the total objective is halved until it descends, so
    the recorded objective history is non-increasing. Convergence is
    declared when the largest absolute entry of the full gradient drops
    to tol.
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
    d = X.shape[1]
    W = np.zeros((C, d))
    b = np.zeros(C)
    step = 1.0
    history = [softmax_objective(W, b, X, y, l2)]
    converged = False
    it = 0
    while it < max_iters:
        gW_ce, gb = softmax_gradients(W, b, X, y, 0.0)
        if max(np.abs(gW_ce + l2 * W).max(), np.abs(gb).max()) <= tol:
            converged = True
            break
        while True:
            W_new = (W - step * gW_ce) / (1.0 + step * l2)
            b_new = b - step * gb
            obj_new = softmax_objective(W_new, b_new, X, y, l2)
            if obj_new <= history[-1]:
                break
            step *= 0.5
            if step < 1e-20:
                break
        if step < 1e-20:
            break
        W, b = W_new, b_new
        history.append(obj_new)
        step *= 1.25
        it += 1
    return LogRegModel(weights=W, bias=b, l2=l2, n_trained=train.n,
                       n_iters=it, converged=converged,
                       objective_history=np.array(history))
