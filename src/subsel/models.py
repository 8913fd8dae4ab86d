"""Desk-scale classifiers: kNN and multinomial logistic regression.

kNN is only scored: ``knn_subset_accuracies`` scores a holdout against
training subsets (``knn_accuracy``: the whole set). Distance ties go to
the lower training index and vote ties to the smallest label: a query's
k neighbours are ``kernels.first_k`` of its distance row, the first k of
a stable sort, the rule by which ``sparsify_knn`` keeps its top kappa.
No holdout x train array of them is held: GEMMs screen each holdout row's
nearest training rows, a proven rounding margin certifies from them the k
nearest the distances would pick, and the distances themselves are
computed only where it cannot, in O(block * train + holdout * window).
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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset, require_indices, require_int
from .errors import ValidationError
from .kernels import _gemm_blocks, _squared_distances, first_k, row_blocks

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

    Each subset votes with its k nearest rows under the per-pair squared
    distances D, ties to the lower position in s, as in train.subset(s).
    A subset of m distinct rows with reach = ceil(2(k+1)n/m) + 16 <= n/4
    reads row r's members among the first reach entries of its _screen
    window, in ascending GEMM form A. A(k) is the k-th member's and A(k+1)
    the next member's, each the reach-th entry's if there is none: r is
    certified when A(k+1) - A(k) > 2 eps_r, and votes with the first k.
    Proof: |A - D| <= eps_r (_margins). Every other member lies later in A
    order, so its D >= A(k+1) - eps_r > A(k) + eps_r, above the D of each
    of the first k: they are the unique k nearest, with no tie. Other rows,
    and all rows of other subsets, go to _subset_votes.
    """
    if holdout.features.d != train.features.d:
        raise ValidationError(f"holdout dimension {holdout.features.d} incompatible "
                              f"with d={train.features.d}")
    k = require_int(k, "k", 1)
    n, nq = train.n, holdout.n
    inset = np.zeros(n, dtype=bool)  # the rows of the subset at hand
    checked, reach = [], []
    for s in map(np.asarray, subsets):
        if k > s.size:
            raise ValidationError(f"k={k} exceeds training size {s.size}")
        s = require_indices(s, n, "subset", "training size")
        checked.append(s)
        inset[s] = True
        distinct = np.count_nonzero(inset) == s.size
        inset[s] = False
        r = -(-2 * (k + 1) * n // s.size) + 16
        reach.append(r if distinct and 4 * r <= n else 0)
    q = holdout.features.values.astype(np.float64)
    x = train.features.values.astype(np.float64)
    y, n_classes = train.labels.labels, train.n_classes
    if max(reach, default=0):
        cols, vals, eps = _screen(q, x, max(reach))
    accs, every = [], np.arange(nq)
    for s, r in zip(checked, reach):
        preds, redo = np.empty(nq, dtype=np.int64), every
        if r:
            inset[s] = True
            member = inset[cols[:, :r]]
            inset[s] = False
            rank = np.cumsum(member, axis=1, dtype=np.int32)  # members up to here
            # window entries of the k-th and (k+1)-th members, or the reach-th
            kth = np.minimum(np.count_nonzero(rank < k, axis=1), r - 1)
            nxt = np.minimum(np.count_nonzero(rank <= k, axis=1), r - 1)
            redo = np.flatnonzero(~(vals[every, nxt] - vals[every, kth] > 2.0 * eps))
            rows, at = np.divmod(np.flatnonzero(member & (rank <= k)), r)
            preds = _vote(y[cols[rows, at]], rows, nq, n_classes)
        if redo.size:
            preds[redo] = _subset_votes(q[redo], x[s], y[s], n_classes, k)
        accs.append(float((preds == holdout.labels.labels).mean()))
    return accs


def _margins(sq_q: np.ndarray, sq_x: np.ndarray, d: int) -> np.ndarray:
    """eps_r >= |A_rj - D_rj| for every training row j, from the computed
    squared norms. A and D each lie within 2 gamma_(d+2) (|q_r|^2 + |x_j|^2)
    of the exact squared distance, gamma_m = mu / (1 - mu), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3):
    D by its differences, squares and sum, A by its dot product, norms and
    two additions; float32 features leave no product to underflow. 4.5, not
    4, covers the rounding of the norms, of this formula and of the
    certificate's subtraction. A non-finite norm certifies nothing."""
    gamma = (d + 2) * 2.0 ** -53 / (1.0 - (d + 2) * 2.0 ** -53)
    return 4.5 * gamma * (sq_q + sq_x.max())


def _screen(q: np.ndarray, x: np.ndarray, width: int):
    """Each query's width nearest training rows under the GEMM form
    A = (|q|^2 + |x|^2) - 2 q.x, in ascending A: their columns (int32) and
    A values, and the queries' margins. Columns past the window have A at
    least its last value (argpartition). One block of queries at a time."""
    sq_q, sq_x = np.einsum("ij,ij->i", q, q), np.einsum("ij,ij->i", x, x)
    x2 = -2.0 * x
    cols = np.empty((q.shape[0], width), dtype=np.int32)
    vals = np.empty((q.shape[0], width))
    for lo, hi in _gemm_blocks(q.shape[0], width=x.shape[0]):
        a = _squared_distances(q[lo:hi], sq_q[lo:hi], x2, sq_x)
        near = np.argpartition(a, width - 1, axis=1)[:, :width]
        near_a = np.take_along_axis(a, near, axis=1)
        order = np.argsort(near_a, axis=1)
        cols[lo:hi] = np.take_along_axis(near, order, axis=1)
        vals[lo:hi] = np.take_along_axis(near_a, order, axis=1)
    return cols, vals, _margins(sq_q, sq_x, q.shape[1])


def _subset_votes(q: np.ndarray, xs: np.ndarray, labels: np.ndarray, n_classes: int,
                  k: int) -> np.ndarray:
    """Majority label among each query's k nearest rows of xs. A query whose
    k-th and (k+1)-th smallest A in its _screen over xs differ by more than
    2 eps (every query, if xs has k rows) votes with the k before the gap,
    the unique k nearest under D by the proof in knn_subset_accuracies; the
    others take first_k of D (_sq_distances), ties to the lower row of xs,
    one block of them at a time. A repeated row of xs has one A, so its
    copies fall on one side of a certified gap."""
    m, nq = xs.shape[0], q.shape[0]
    cols, vals, eps = _screen(q, xs, min(k + 1, m))
    preds = _vote(labels[cols[:, :k]].ravel(), np.arange(nq).repeat(k), nq, n_classes)
    redo = np.flatnonzero(~(vals[:, k] - vals[:, k - 1] > 2.0 * eps)) if m > k else []
    for lo, hi in _gemm_blocks(len(redo), width=m):
        rows, at = np.divmod(np.flatnonzero(first_k(_sq_distances(q[redo[lo:hi]], xs), k)), m)
        preds[redo[lo:hi]] = _vote(labels[at], rows, hi - lo, n_classes)
    return preds


def _sq_distances(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, queries q by training rows x, filled
    in row blocks whose q x x x d temporaries hold ~_BLOCK_ELEMS elements."""
    d2 = np.empty((q.shape[0], x.shape[0]))
    for lo, hi in row_blocks(q.shape[0], width=x.size):
        d2[lo:hi] = ((q[lo:hi, None, :] - x[None]) ** 2).sum(axis=2)
    return d2


def _vote(labels: np.ndarray, rows: np.ndarray, n_rows: int, n_classes: int) -> np.ndarray:
    """Majority of the labels cast for each of n_rows rows; argmax takes the
    first maximum, so vote ties go to the smallest label."""
    counts = np.bincount(labels + n_classes * rows, minlength=n_rows * n_classes)
    return counts.reshape(n_rows, n_classes).argmax(axis=1)


@dataclass
class LogRegModel:
    """Softmax classifier parameters plus fit diagnostics."""

    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    l2: float
    n_iters: int = 0
    converged: bool = False
    objective_history: np.ndarray = field(default_factory=lambda: np.empty(0))

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


def _objective(S, W, y, l2: float) -> float:
    """The objective the fit minimizes, mean cross-entropy plus (l2/2)||W||^2,
    from the scores S = X @ W.T + b; S is not changed."""
    m = S.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(S - m).sum(axis=1))
    ce = float((log_norm - S[np.arange(S.shape[0]), y]).mean())
    return ce + 0.5 * l2 * float((W ** 2).sum())


def _gradients(P, W, X, y, l2: float):
    """Gradients of _objective w.r.t. W and b, from the class probabilities
    P = softmax(X @ W.T + b); P is not changed."""
    n = X.shape[0]
    R = P.copy()
    R[np.arange(n), y] -= 1.0
    R /= n
    return R.T @ X + l2 * W, R.sum(axis=0)


def _softmax_hvp(P, X, V, c, l2: float):
    """Hessian of _objective (as a function of W and b) applied to the
    direction (V, c).

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
    if isinstance(l2, bool) or not (isinstance(l2, numbers.Real) and 0 <= l2 < np.inf):
        raise ValidationError(f"l2 must be a finite number >= 0, got {l2!r}")
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
