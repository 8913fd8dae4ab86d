"""Set objectives over a ground set with incremental marginal-gain state.

Facility location credits every ground element with its best selected
representative and sums the credits; it is monotone submodular, and its
empty-set value is 0. Candidate j's gain is read down column j of the
kernel (row j of ``kernel.dense.T`` if dense) by ``gains_of``; ``gain``,
``gains_all`` and lazy greedy's batched refreshes all call it (a fresh
dense ``gains_all`` skips only the exact subtraction of zeros), so a
gain reads the same bytes however it is batched, and lazy greedy
matches the naive argmax scan the tests hold as its reference. The
per-element maxima are kept in the kernel's value dtype (float32 for the
dense cosine kernel), and a gain's terms and a value's maxima are summed
in float64.

Disparity min is the smallest pairwise distance among selected
elements; it is scored greedily by squared distance-to-selected (the
farthest-point rule), not by the change in the set value, and both its
empty and singleton values are the +inf sentinel. One kernel row of
squared distances is computed per added element, and the value is the
square root of their minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import require_indices, require_int
from .errors import ValidationError
from .kernels import DistanceKernel, SimilarityKernel, row_blocks

INF = math.inf


def _check_subset(X, n: int) -> np.ndarray:
    idx = require_indices(list(X), n, "selection", "ground-set size")
    if idx.size != np.unique(idx).size:
        raise ValidationError("selection indices must be distinct")
    return idx


def _require_candidate(obj, e: int) -> int:
    """e as an int index of obj's ground set that is not yet selected."""
    e = require_int(e, "candidate index", 0, obj.n - 1)
    if obj.selected_mask[e]:
        raise ValidationError(f"element {e} is already selected")
    return e


def _fold_column(best: np.ndarray, kernel: SimilarityKernel, j: int) -> None:
    """best_i = max(best_i, s_ij) in place over sparse column j, whose
    implicit unit diagonal is included."""
    lo, hi = kernel.col_ptr[j], kernel.col_ptr[j + 1]
    rows = kernel.rows[lo:hi]
    best[rows] = np.maximum(best[rows], kernel.values[lo:hi])
    best[j] = max(best[j], 1.0)


def facility_location_value(kernel: SimilarityKernel, X) -> float:
    """From-scratch facility-location value of X; empty set scores 0."""
    idx = _check_subset(X, kernel.n)
    if idx.size == 0:
        return 0.0
    if not kernel.is_sparse:
        return float(kernel.dense[:, idx].max(axis=1).sum(dtype=np.float64))
    best = np.zeros(kernel.n)
    for j in idx:
        _fold_column(best, kernel, j)
    return float(best.sum())


class FacilityLocation:
    """Incremental facility-location state: per-element best similarity.

    Candidate e is scored down column e: row e of ``kernel.dense.T``
    (contiguous when the kernel is column-major) or a sparse column.
    """

    def __init__(self, kernel: SimilarityKernel):
        self.kernel = kernel
        self.n = kernel.n
        self.selected: list[int] = []
        self.selected_mask = np.zeros(self.n, dtype=bool)
        self.best = np.zeros(self.n, dtype=(kernel.values if kernel.is_sparse
                                            else kernel.dense).dtype)
        self.value = 0.0

    def gain(self, e: int) -> float:
        """Marginal value of adding e: sum of max(0, s_ie - best_i); >= 0."""
        return float(self.gains_of([_require_candidate(self, e)])[0])

    def gains_of(self, idx) -> np.ndarray:
        """Gains of candidates idx (index array or slice), in idx's order, selected
        or not; dense terms summed in float64 per C-ordered row, sparse ones in
        entry order."""
        k, best = self.kernel, self.best
        cand = np.arange(self.n)[idx]
        if not k.is_sparse:
            terms = np.ascontiguousarray(k.dense.T[cand])  # fancy index: a copy
            np.subtract(terms, best, out=terms)
            np.maximum(terms, 0.0, out=terms)
            return terms.sum(axis=1, dtype=np.float64)
        count = k.col_ptr[cand + 1] - k.col_ptr[cand]
        seg = np.repeat(np.arange(cand.size), count)  # each gathered entry's candidate
        # the entries of each candidate's column, segment after segment
        pos = np.arange(seg.size) + (k.col_ptr[cand] - np.cumsum(count) + count)[seg]
        gains = np.maximum(1.0 - best[cand], 0.0)
        np.add.at(gains, seg, np.maximum(k.values[pos] - best[k.rows[pos]], 0.0))
        return gains

    def gains_all(self) -> np.ndarray:
        """gains_of every candidate by row block, a sparse candidate costing its
        column's entries times the ~8 temporaries each makes; selected read -1.

        On a fresh dense state best is all +0.0 and s - 0 is exact, so a
        block's terms are max(s, 0), read once from the kernel's columns, and
        summed as gains_of sums them.
        """
        k, gains = self.kernel, np.empty(self.n)
        # no bit set: -0.0 would turn an s of -0.0 into +0.0
        if not k.is_sparse and self.n and not self.best.view(np.uint8).any():
            blocks = row_blocks(self.n)
            terms = np.empty((blocks[0][1], self.n), dtype=k.dense.dtype)
            for lo, hi in blocks:
                block = np.maximum(k.dense.T[lo:hi], 0.0, out=terms[:hi - lo])
                gains[lo:hi] = block.sum(axis=1, dtype=np.float64)
            return gains
        width = 8 * k.values.size // max(self.n, 1) if k.is_sparse else None
        for lo, hi in row_blocks(self.n, width):
            gains[lo:hi] = self.gains_of(slice(lo, hi))
        gains[self.selected_mask] = -1.0
        return gains

    def add(self, e: int):
        """Select e and fold its column into the per-element maxima. Dense:
        returns the rows whose maximum rose and their old maxima; sparse: None."""
        e = _require_candidate(self, e)
        raised = None
        if not self.kernel.is_sparse:
            col = self.kernel.dense.T[e]
            rows = (col > self.best).nonzero()[0]
            raised = rows, self.best[rows]
            self.best[rows] = col[rows]
        else:
            _fold_column(self.best, self.kernel, e)
        self.selected.append(e)
        self.selected_mask[e] = True
        # summing the maxima (not accumulating gains) keeps the value an
        # order-insensitive function of the selected set
        self.value = float(self.best.sum(dtype=np.float64))
        return raised


class DisparityMin:
    """Incremental max-min dispersion state: per-element squared distance to X.

    mindist holds squared distances, unclipped, and selected elements read
    -1 in it, so farthest point judges ties on squared distances (lowest
    index first) and gains_all hands out a read-only view, not a copy.
    value is a distance.
    """

    def __init__(self, kernel: DistanceKernel):
        self.kernel = kernel
        self.n = kernel.n
        self.selected: list[int] = []
        self.selected_mask = np.zeros(self.n, dtype=bool)
        self.mindist = np.full(self.n, INF)
        self.value = INF

    def gain(self, e: int) -> float:
        """Farthest-point score: the squared distance from e to the selected set."""
        return float(self.mindist[_require_candidate(self, e)])

    def gains_all(self) -> np.ndarray:
        gains = self.mindist.view()
        gains.flags.writeable = False
        return gains

    def add(self, e: int) -> None:
        """Select e and fold its distances into the per-element minima."""
        e = _require_candidate(self, e)
        if self.selected:
            score = float(self.mindist[e])
            # sqrt is monotone: the sqrt of the least square is the least distance
            self.value = min(self.value, math.sqrt(max(score, 0.0)))
        self.selected.append(e)
        self.selected_mask[e] = True
        np.minimum(self.mindist, self.kernel.sq_row(e), out=self.mindist)
        self.mindist[e] = -1.0
