"""Set objectives over a ground set with incremental marginal-gain state.

Facility location credits every ground element with its best selected
representative and sums the credits; it is monotone submodular, and its
empty-set value is 0. Disparity min is the smallest pairwise distance
among selected elements; it is scored greedily by distance-to-selected
(the farthest-point rule), not by the change in the set value, and both
its empty and singleton values are the +inf sentinel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .kernels import DistanceKernel, SimilarityKernel, is_symmetric, row_blocks

INF = math.inf


def _check_subset(X, n: int) -> np.ndarray:
    idx = np.asarray(list(X), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValidationError(f"index out of range for ground set of size {n}")
    if idx.size != np.unique(idx).size:
        raise ValidationError("selection indices must be distinct")
    return idx


def _require_candidate(obj, e: int):
    if not (0 <= e < obj.n):
        raise ValidationError(f"index {e} out of range for n={obj.n}")
    if obj.selected_mask[e]:
        raise ValidationError(f"element {e} is already selected")


def facility_location_value(kernel: SimilarityKernel, X) -> float:
    """From-scratch facility-location value of X; empty set scores 0."""
    idx = _check_subset(X, kernel.n)
    if idx.size == 0:
        return 0.0
    if not kernel.is_sparse:
        return float(kernel.dense[:, idx].max(axis=1).sum())
    col_ptr, rows, vals, _ = kernel.csc_arrays()
    best = np.zeros(kernel.n)
    for j in idx:
        lo, hi = col_ptr[j], col_ptr[j + 1]
        r = rows[lo:hi]
        best[r] = np.maximum(best[r], vals[lo:hi])
        best[j] = max(best[j], 1.0)  # implicit unit diagonal
    return float(best.sum())


def disparity_min_value(kernel: DistanceKernel, X) -> float:
    """Minimum pairwise distance within X; +inf sentinel when |X| <= 1."""
    idx = _check_subset(X, kernel.n)
    if idx.size <= 1:
        return INF
    sub = kernel.dense[np.ix_(idx, idx)]
    iu = np.triu_indices(idx.size, k=1)
    return float(sub[iu].min())


class FacilityLocation:
    """Incremental facility-location state: per-element best similarity."""

    monotone_submodular = True

    def __init__(self, kernel: SimilarityKernel):
        self.kernel = kernel
        self.n = kernel.n
        self.selected: list[int] = []
        self.selected_mask = np.zeros(self.n, dtype=bool)
        self.best = np.zeros(self.n)
        self.value = 0.0
        if kernel.is_sparse:
            (self._col_ptr, self._entry_rows,
             self._entry_vals, self._entry_cols) = kernel.csc_arrays()
        else:
            # _by_candidate[e] is column e of the kernel: a contiguous row
            # when the kernel is symmetric, else a strided transposed view
            d = kernel.dense
            self._by_candidate = d if is_symmetric(d) else d.T

    def gain(self, e: int) -> float:
        """Marginal value of adding e: sum of max(0, s_ie - best_i); >= 0."""
        _require_candidate(self, e)
        if not self.kernel.is_sparse:
            return float(np.maximum(self._by_candidate[e] - self.best, 0.0).sum())
        lo, hi = self._col_ptr[e], self._col_ptr[e + 1]
        rows = self._entry_rows[lo:hi]
        vals = self._entry_vals[lo:hi]
        g = max(0.0, 1.0 - self.best[e])
        g += np.maximum(vals - self.best[rows], 0.0).sum()
        return float(g)

    def gains_all(self) -> np.ndarray:
        """Gains for every candidate; already-selected slots read -1."""
        if not self.kernel.is_sparse:
            gains = self._dense_gains()
        else:
            # implicit unit diagonal first, then scatter-add the stored entries
            gains = np.maximum(1.0 - self.best, 0.0)
            contrib = np.maximum(self._entry_vals - self.best[self._entry_rows], 0.0)
            np.add.at(gains, self._entry_cols, contrib)
        gains[self.selected_mask] = -1.0
        return gains

    def _dense_gains(self) -> np.ndarray:
        """sum_i max(0, s_ie - best_i) for every e, accumulated row by row.

        The rows are added in ascending order, as numpy's axis-0 sum of
        the whole n x n matrix of terms does, but one row block at a
        time: each block's sum starts from the running total, carried in
        the block buffer's first row.
        """
        dense, best = self.kernel.dense, self.best
        blocks = row_blocks(self.n)
        if not blocks:  # empty ground set
            return np.zeros(0)
        buf = np.empty((blocks[0][1] + 1, self.n))
        gains = None
        for lo, hi in blocks:
            terms = buf[1:hi - lo + 1]
            np.subtract(dense[lo:hi], best[lo:hi, None], out=terms)
            np.maximum(terms, 0.0, out=terms)
            if gains is None:
                gains = terms.sum(axis=0)
            else:
                buf[0] = gains
                gains = buf[:hi - lo + 1].sum(axis=0)
        return gains

    def add(self, e: int) -> float:
        """Select e, fold it into the per-element maxima, return the gain."""
        g = self.gain(e)
        if not self.kernel.is_sparse:
            np.maximum(self.best, self._by_candidate[e], out=self.best)
        else:
            lo, hi = self._col_ptr[e], self._col_ptr[e + 1]
            rows = self._entry_rows[lo:hi]
            self.best[rows] = np.maximum(self.best[rows], self._entry_vals[lo:hi])
            self.best[e] = max(self.best[e], 1.0)
        self.selected.append(int(e))
        self.selected_mask[e] = True
        # summing the maxima (not accumulating gains) keeps the value an
        # order-insensitive function of the selected set
        self.value = float(self.best.sum())
        return g

    def scratch_value(self, X) -> float:
        return facility_location_value(self.kernel, X)


class DisparityMin:
    """Incremental max-min dispersion state: per-element distance to X."""

    monotone_submodular = False

    def __init__(self, kernel: DistanceKernel):
        self.kernel = kernel
        self.n = kernel.n
        self.selected: list[int] = []
        self.selected_mask = np.zeros(self.n, dtype=bool)
        self.mindist = np.full(self.n, INF)
        self.value = INF

    def gain(self, e: int) -> float:
        """Farthest-point score: distance from e to the selected set."""
        _require_candidate(self, e)
        return float(self.mindist[e])

    def gains_all(self) -> np.ndarray:
        gains = self.mindist.copy()
        gains[self.selected_mask] = -1.0
        return gains

    def add(self, e: int) -> float:
        g = self.gain(e)
        if self.selected:
            self.value = min(self.value, float(self.mindist[e]))
        self.selected.append(int(e))
        self.selected_mask[e] = True
        np.minimum(self.mindist, self.kernel.dense[:, e], out=self.mindist)
        return g

    def scratch_value(self, X) -> float:
        return disparity_min_value(self.kernel, X)
