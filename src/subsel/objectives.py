"""Set objectives over a ground set with incremental marginal-gain state.

Facility location credits every ground element with its best selected
representative and sums the credits; it is monotone submodular, and its
empty-set value is 0. A candidate's gain is read down its kernel column;
on dense kernels ``gains_all`` computes each gain with ``gain``'s own
expression, so lazy and naive greedy see the same numbers.

Disparity min is the smallest pairwise distance among selected
elements; it is scored greedily by distance-to-selected (the
farthest-point rule), not by the change in the set value, and both its
empty and singleton values are the +inf sentinel.
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
        return float(kernel.dense[:, idx].max(axis=1).sum())
    best = np.zeros(kernel.n)
    for j in idx:
        _fold_column(best, kernel, j)
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
    """Incremental facility-location state: per-element best similarity.

    Candidate e is scored down column e: row e of ``_by_candidate`` (the
    kernel if symmetric, else a transposed view) or a stored sparse column.
    """

    monotone_submodular = True

    def __init__(self, kernel: SimilarityKernel):
        self.kernel = kernel
        self.n = kernel.n
        self.selected: list[int] = []
        self.selected_mask = np.zeros(self.n, dtype=bool)
        self.best = np.zeros(self.n)
        self.value = 0.0
        if kernel.is_sparse:
            # the column of every stored entry, for gains_all's scatter-add
            self._entry_cols = np.repeat(np.arange(self.n), np.diff(kernel.col_ptr))
        else:
            d = kernel.dense
            self._by_candidate = d if is_symmetric(d) else d.T

    def gain(self, e: int) -> float:
        """Marginal value of adding e: sum of max(0, s_ie - best_i); >= 0."""
        _require_candidate(self, e)
        k = self.kernel
        if not k.is_sparse:
            return float(np.maximum(self._by_candidate[e] - self.best, 0.0).sum())
        lo, hi = k.col_ptr[e], k.col_ptr[e + 1]
        g = max(0.0, 1.0 - self.best[e])
        g += np.maximum(k.values[lo:hi] - self.best[k.rows[lo:hi]], 0.0).sum()
        return float(g)

    def gains_all(self) -> np.ndarray:
        """Gains for every candidate; already-selected slots read -1.

        Dense gains are gain(e)'s expression over row blocks, each row
        summed in a C-ordered temporary, so they equal gain(e) bytewise.
        """
        k, best = self.kernel, self.best
        if not k.is_sparse:
            gains = np.empty(self.n)
            for lo, hi in row_blocks(self.n):
                terms = np.subtract(self._by_candidate[lo:hi], best, order="C")
                np.maximum(terms, 0.0, out=terms)
                gains[lo:hi] = terms.sum(axis=1)
        else:
            # implicit unit diagonal first, then scatter-add the stored entries
            gains = np.maximum(1.0 - best, 0.0)
            contrib = np.maximum(k.values - best[k.rows], 0.0)
            np.add.at(gains, self._entry_cols, contrib)
        gains[self.selected_mask] = -1.0
        return gains

    def add(self, e: int) -> None:
        """Select e and fold its column into the per-element maxima."""
        _require_candidate(self, e)
        if not self.kernel.is_sparse:
            np.maximum(self.best, self._by_candidate[e], out=self.best)
        else:
            _fold_column(self.best, self.kernel, e)
        self.selected.append(int(e))
        self.selected_mask[e] = True
        # summing the maxima (not accumulating gains) keeps the value an
        # order-insensitive function of the selected set
        self.value = float(self.best.sum())

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

    def add(self, e: int) -> None:
        """Select e and fold its distances into the per-element minima."""
        _require_candidate(self, e)
        if self.selected:
            self.value = min(self.value, float(self.mindist[e]))
        self.selected.append(int(e))
        self.selected_mask[e] = True
        np.minimum(self.mindist, self.kernel.dense[:, e], out=self.mindist)

    def scratch_value(self, X) -> float:
        return disparity_min_value(self.kernel, X)
