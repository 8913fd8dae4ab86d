"""Desk-scale classifiers: kNN and multinomial logistic regression.

kNN is only scored: ``knn_subset_accuracies`` scores a holdout against
training subsets (``knn_accuracy``: the whole set). Distance ties go to
the lower training index and vote ties to the smallest label: a query's
k neighbours are ``kernels.first_k`` of its distance row, the first k of
a stable sort, the rule by which ``sparsify_knn`` keeps its top kappa.
Its working memory is one holdout x train array of squared distances
(``CapacityError`` if it cannot be allocated), from which each subset's
columns are gathered, like every other temporary, ~_BLOCK_ELEMS elements
per ``kernels.row_blocks`` block at a time.
The regression is fit by line-search Newton-CG (truncated Newton): each
step solves the Newton system by conjugate gradient on Hessian-vector
products, so the Hessian is never formed, and Armijo backtracking keeps
the objective non-increasing. Each iterate's scores X @ W.T + b are
computed once, by the line-search trial that accepts it (the zero start's
before the loop): its objective is taken from them, and one softmax of
them feeds both its gradient and the CG products. Parameters start at
zero, so the fit is deterministic without a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import CapacityError, ValidationError
from .kernels import first_k, row_blocks

DEFAULT_L2 = 1e-2
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 2000
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking search
_MIN_STEP = 1e-10  # backtracking gives up below this step length


def knn_accuracy(train: LabeledDataset, holdout: LabeledDataset, k: int = 5) -> float:
    """Fraction of holdout points whose kNN prediction matches their label."""
    return knn_subset_accuracies(train, holdout, [np.arange(train.n)], k)[0]


def knn_subset_accuracies(train: LabeledDataset, holdout: LabeledDataset, subsets,
                          k: int = 5) -> list[float]:
    """knn_accuracy(train.subset(s), holdout, k) for each index array s.

    The holdout x train squared distances are computed once; each subset
    votes on their columns s, in s's own order, so distance ties go to
    the lower position in s as they would in train.subset(s).
    """
    if holdout.features.d != train.features.d:
        raise ValidationError(f"holdout dimension {holdout.features.d} incompatible "
                              f"with d={train.features.d}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    subsets = [np.asarray(s, dtype=np.int64) for s in subsets]
    for s in subsets:
        if k > s.size:
            raise ValidationError(f"k={k} exceeds training size {s.size}")
    nq, y = holdout.n, train.labels.labels
    try:
        d2 = _sq_distances(holdout.features.values.astype(np.float64),
                           train.features.values.astype(np.float64))
    except MemoryError:
        raise CapacityError(f"kNN scoring needs a {nq} x {train.n} array of squared "
                            f"distances, {8 * nq * train.n:,} bytes, more than can be "
                            "allocated") from None
    return [float((_vote(d2, s, y[s], train.n_classes, k)
                   == holdout.labels.labels).mean()) for s in subsets]


def _sq_distances(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, queries q by training rows x, filled
    in row blocks whose q x x x d temporaries hold ~_BLOCK_ELEMS elements."""
    d2 = np.empty((q.shape[0], x.shape[0]))
    for lo, hi in row_blocks(q.shape[0], width=x.size):
        d2[lo:hi] = ((q[lo:hi, None, :] - x[None]) ** 2).sum(axis=2)
    return d2


def _vote(d2: np.ndarray, s: np.ndarray, labels: np.ndarray, n_classes: int,
          k: int) -> np.ndarray:
    """Majority label among the k smallest entries of each row of d2[:, s],
    chosen by ``first_k`` and gathered one row block at a time. argmax
    takes the first maximum, so vote ties go to the smallest label.
    """
    nq, m = d2.shape[0], s.size
    preds = np.empty(nq, dtype=np.int64)
    for lo, hi in row_blocks(nq, width=m):
        rows, cols = np.divmod(np.flatnonzero(first_k(d2[lo:hi, s], k)), m)
        counts = np.bincount(labels[cols] + n_classes * rows,
                             minlength=(hi - lo) * n_classes)
        preds[lo:hi] = counts.reshape(hi - lo, n_classes).argmax(axis=1)
    return preds


@dataclass
class LogRegModel:
    """Softmax classifier parameters plus fit diagnostics."""

    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    l2: float
    n_iters: int = 0
    converged: bool = False
    objective_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def predict_proba(self, x) -> np.ndarray:
        """Class posterior for one feature vector: predict_proba_batch's row."""
        return self.predict_proba_batch(np.reshape(x, (1, -1)))[0]

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
    return _objective(X @ weights.T + bias, weights, y, l2)


def softmax_gradients(weights, bias, X, y, l2: float):
    """Analytic gradients of softmax_objective w.r.t. weights and bias."""
    return _gradients(_row_softmax(X @ weights.T + bias), weights, X, y, l2)


def _objective(S, W, y, l2: float) -> float:
    """softmax_objective from the scores S = X @ W.T + b; S is not changed."""
    m = S.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(S - m).sum(axis=1))
    ce = float((log_norm - S[np.arange(S.shape[0]), y]).mean())
    return ce + 0.5 * l2 * float((W ** 2).sum())


def _gradients(P, W, X, y, l2: float):
    """softmax_gradients from the class probabilities P = softmax(X @ W.T + b);
    P is not changed."""
    n = X.shape[0]
    R = P.copy()
    R[np.arange(n), y] -= 1.0
    R /= n
    return R.T @ X + l2 * W, R.sum(axis=0)


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
               n_classes: int | None = None) -> LogRegModel:
    """Fit a multinomial logistic regression by line-search Newton-CG.

    Each Newton step solves H D = -g inexactly by conjugate gradient on
    Hessian-vector products (Nocedal & Wright, Numerical Optimization,
    sec. 7.1), so memory stays O(nC + Cd). The step length is found by
    Armijo backtracking from 1, so the recorded objective history is
    non-increasing. At most DEFAULT_MAX_ITERS Newton steps are taken.
    Convergence is declared when the largest absolute entry of the full
    gradient drops to DEFAULT_TOL; the fit also stops, unconverged, if
    backtracking finds no decrease. The common bias shift leaves the
    objective unchanged, but the gradient has no component along it, so
    no step ever takes it.
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
    S = X @ W.T + b  # the current iterate's scores
    history = [_objective(S, W, y, l2)]
    converged = False
    it = 0
    while it < DEFAULT_MAX_ITERS:
        P = _row_softmax(S)
        gW, gb = _gradients(P, W, X, y, l2)
        g = np.concatenate((gW, gb[:, None]), axis=1)
        if np.abs(g).max() <= DEFAULT_TOL:
            converged = True
            break
        D = _newton_cg_direction(P, X, g, l2)
        slope = float(np.vdot(g, D))
        t = 1.0
        while t >= _MIN_STEP:
            W_new = W + t * D[:, :-1]
            b_new = b + t * D[:, -1]
            S = X @ W_new.T + b_new
            obj_new = _objective(S, W_new, y, l2)
            if obj_new <= history[-1] + _ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        if t < _MIN_STEP:
            break
        W, b = W_new, b_new
        history.append(obj_new)
        it += 1
    return LogRegModel(weights=W, bias=b, l2=l2, n_iters=it, converged=converged,
                       objective_history=np.array(history))
