"""Pairwise similarity and distance kernels over a ground set.

Similarities are shifted cosines, ``(1 + cos) / 2``, so they land in
[0, 1] with an exact unit diagonal. Distances are euclidean. Each pair
is computed once and mirrored, which makes dense kernels exactly
symmetric. ``sparsify_knn`` keeps the top-kappa off-diagonal entries per
row; consumers treat dropped entries as similarity 0 and the diagonal
as an implicit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import FeatureMatrix
from .errors import ValidationError


@dataclass(frozen=True)
class SimilarityKernel:
    """Pairwise similarities in [0,1]; dense matrix or per-row top-k lists."""

    n: int
    dense: Optional[np.ndarray] = None
    row_ptr: Optional[np.ndarray] = None
    col_idx: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    @property
    def is_sparse(self) -> bool:
        return self.dense is None

    def entry(self, i: int, j: int) -> float:
        """Consumer view of s_ij: stored value, implicit diagonal, else 0."""
        if i == j:
            return 1.0
        if not self.is_sparse:
            return float(self.dense[i, j])
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        pos = np.searchsorted(self.col_idx[lo:hi], j)
        if pos < hi - lo and self.col_idx[lo + pos] == j:
            return float(self.values[lo + pos])
        return 0.0

    def to_dense(self) -> np.ndarray:
        """Materialize consumer semantics as a dense matrix."""
        if not self.is_sparse:
            return self.dense
        out = np.zeros((self.n, self.n))
        for i in range(self.n):
            lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
            out[i, self.col_idx[lo:hi]] = self.values[lo:hi]
        np.fill_diagonal(out, 1.0)
        return out

    def csc_arrays(self):
        """Column-grouped entry arrays (col_ptr, rows, vals, cols).

        Facility-location gains consume the kernel by candidate column,
        so the row-major storage is regrouped once here.
        """
        if self.is_sparse:
            rows = np.repeat(np.arange(self.n, dtype=np.int64),
                             np.diff(self.row_ptr))
            cols = self.col_idx
            vals = self.values
            order = np.argsort(cols, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
            col_ptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(cols, minlength=self.n), out=col_ptr[1:])
            return col_ptr, rows, vals, cols
        raise ValidationError("csc_arrays is only defined for sparse kernels")


@dataclass(frozen=True)
class DistanceKernel:
    """Dense symmetric nonnegative pairwise distances with a zero diagonal."""

    n: int
    dense: np.ndarray


def _mirror_upper(a: np.ndarray, diagonal: float) -> np.ndarray:
    """Read-only copy of a's upper triangle mirrored below, fixed diagonal.

    Mirroring makes the kernel exactly symmetric whatever order BLAS
    summed each pair in.
    """
    upper = np.triu(a, 1)
    out = upper + upper.T
    np.fill_diagonal(out, diagonal)
    out.flags.writeable = False
    return out


def _select_rows(m: FeatureMatrix, rows) -> tuple[np.ndarray, np.ndarray]:
    if rows is None:
        idx = np.arange(m.n, dtype=np.int64)
    else:
        idx = np.asarray(rows, dtype=np.int64)
        if idx.size == 0:
            raise ValidationError("row selection must be non-empty")
        if idx.min() < 0 or idx.max() >= m.n:
            raise ValidationError(f"row index out of range for n={m.n}")
    return m.values[idx].astype(np.float64), idx


def cosine_similarity(m: FeatureMatrix, rows=None) -> SimilarityKernel:
    """Dense shifted-cosine similarity kernel over the selected rows."""
    x, idx = _select_rows(m, rows)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(
            f"cosine similarity undefined for all-zero row {int(idx[zero[0]])}"
        )
    inv_norms = 1.0 / norms
    gram = x @ x.T
    sim = 0.5 * (1.0 + gram * np.outer(inv_norms, inv_norms))
    np.clip(sim, 0.0, 1.0, out=sim)
    return SimilarityKernel(n=x.shape[0], dense=_mirror_upper(sim, 1.0))


def euclidean_distance(m: FeatureMatrix, rows=None) -> DistanceKernel:
    """Dense euclidean distance kernel over the selected rows."""
    x, _ = _select_rows(m, rows)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    return DistanceKernel(n=x.shape[0], dense=_mirror_upper(np.sqrt(d2), 0.0))


def sparsify_knn(kernel: SimilarityKernel, kappa: int) -> SimilarityKernel:
    """Keep each row's kappa largest off-diagonal similarities.

    Boundary ties go to the lower column index. The diagonal stays
    implicit; dropped entries read as 0.
    """
    if kernel.is_sparse:
        raise ValidationError("sparsify_knn requires a dense kernel")
    n = kernel.n
    if not (1 <= kappa <= n - 1):
        raise ValidationError(f"kappa must be in [1, {n - 1}], got {kappa}")
    cols = np.arange(n, dtype=np.int64)
    row_ptr = np.arange(0, (n + 1) * kappa, kappa, dtype=np.int64)
    col_idx = np.empty(n * kappa, dtype=np.int64)
    values = np.empty(n * kappa, dtype=np.float64)
    for i in range(n):
        off = np.concatenate((cols[:i], cols[i + 1:]))
        vals = kernel.dense[i, off]
        # descending value, ascending index among ties
        order = np.lexsort((off, -vals))[:kappa]
        keep = np.sort(off[order])
        col_idx[i * kappa:(i + 1) * kappa] = keep
        values[i * kappa:(i + 1) * kappa] = kernel.dense[i, keep]
    col_idx.flags.writeable = False
    values.flags.writeable = False
    return SimilarityKernel(n=n, row_ptr=row_ptr, col_idx=col_idx, values=values)
