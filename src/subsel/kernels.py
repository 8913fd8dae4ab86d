"""Pairwise similarity and distance kernels over a ground set.

Similarities are shifted cosines, ``(1 + cos) / 2``, so they land in
[0, 1] with an exact unit diagonal. Distances are euclidean. Each pair
is computed once and mirrored, so dense kernels are exactly symmetric
(``SimilarityKernel.symmetric`` records it). ``sparsify_knn`` keeps the
top-kappa off-diagonal entries per row and stores them by column, the
order in which facility location reads a candidate; dropped entries read
as similarity 0 and the diagonal as an implicit 1. Which entries it
keeps is decided by ``first_k``, the package's one top-k rule (the first
k of a stable sort), which the kNN vote in ``models`` shares.

A dense build allocates one n x n array, the Gram matrix ``x @ x.T``,
and finishes it in place: each block of rows (see ``row_blocks``) has
its upper-triangle part turned into similarities or distances, and
``_mirror_upper`` then copies the upper triangle onto the lower one,
block by block. Working memory beyond the result is O(block * n), and
every entry goes through the same floating-point operations, in the
same order, as the whole-matrix expressions they replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import FeatureMatrix
from .errors import ValidationError


@dataclass(frozen=True)
class SimilarityKernel:
    """Pairwise similarities in [0,1]: a dense matrix, or kept entries by
    column: column j holds rows[col_ptr[j]:col_ptr[j + 1]] (ascending) with
    similarities values[...], an implicit unit diagonal and 0 elsewhere."""

    n: int
    dense: Optional[np.ndarray] = None
    col_ptr: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    symmetric: bool = False  # set by a builder that guarantees dense == dense.T

    @property
    def is_sparse(self) -> bool:
        return self.dense is None

    def to_dense(self) -> np.ndarray:
        """Materialize consumer semantics as a dense matrix."""
        if not self.is_sparse:
            return self.dense
        out = np.zeros((self.n, self.n))
        cols = np.repeat(np.arange(self.n), np.diff(self.col_ptr))
        out[self.rows, cols] = self.values
        np.fill_diagonal(out, 1.0)
        return out


@dataclass(frozen=True)
class DistanceKernel:
    """Dense symmetric nonnegative pairwise distances with a zero diagonal."""

    n: int
    dense: np.ndarray


# Elements per row block: the blocked passes over n x n arrays keep their
# temporaries at about this size (256 KiB of float64) instead of n x n.
_BLOCK_ELEMS = 1 << 15


def row_blocks(n: int, width: Optional[int] = None) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges covering range(n), ~_BLOCK_ELEMS / width
    rows each (at least one); a row costs width elements, n by default."""
    step = max(1, _BLOCK_ELEMS // max(n if width is None else width, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _mirror_upper(a: np.ndarray, diagonal: float) -> np.ndarray:
    """Copy a's upper triangle onto its lower one in place, set the
    diagonal, and return a made read-only.

    Mirroring makes the kernel exactly symmetric whatever order BLAS
    summed each pair in.
    """
    for lo, hi in row_blocks(a.shape[0]):
        a[lo:hi, :lo] = a[:lo, lo:hi].T
        tile = a[lo:hi, lo:hi]
        below = np.tri(hi - lo, k=-1, dtype=bool)
        tile[below] = tile.T[below]
    np.fill_diagonal(a, diagonal)
    a.flags.writeable = False
    return a


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


def cosine_norms(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Norms of x's float64 rows; an all-zero row raises, named by idx."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError("cosine similarity undefined for all-zero row "
                              f"{int(idx[zero[0]])}")
    return norms


def cosine_similarity(m: FeatureMatrix, rows=None) -> SimilarityKernel:
    """Dense shifted-cosine similarity kernel over the selected rows."""
    x, idx = _select_rows(m, rows)
    inv_norms = 1.0 / cosine_norms(x, idx)
    sim = x @ x.T
    for lo, hi in row_blocks(x.shape[0]):
        upper = sim[lo:hi, lo:]  # the lower triangle is mirrored over
        upper *= np.outer(inv_norms[lo:hi], inv_norms[lo:])
        upper += 1.0
        upper *= 0.5
        np.clip(upper, 0.0, 1.0, out=upper)
    return SimilarityKernel(n=x.shape[0], dense=_mirror_upper(sim, 1.0), symmetric=True)


def euclidean_distance(m: FeatureMatrix, rows=None) -> DistanceKernel:
    """Dense euclidean distance kernel over the selected rows."""
    x, _ = _select_rows(m, rows)
    sq = np.einsum("ij,ij->i", x, x)
    dist = x @ x.T
    for lo, hi in row_blocks(x.shape[0]):
        upper = dist[lo:hi, lo:]
        # (sq_i + sq_j) - 2 g_ij, exactly: negation and commuting are exact
        upper *= -2.0
        upper += np.add.outer(sq[lo:hi], sq[lo:])
        np.clip(upper, 0.0, None, out=upper)
        np.sqrt(upper, out=upper)
    return DistanceKernel(n=x.shape[0], dense=_mirror_upper(dist, 0.0))


def first_k(a: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k smallest entries, the first k of a
    stable argsort: the entries below the row's k-th smallest value t,
    then those equal to t by ascending column.

    NaN sorts last and never equals t, so it is kept by no row with k
    non-NaN entries; callers use it to exclude an entry.
    """
    t = np.partition(a, k - 1, axis=1)[:, k - 1:k].copy()
    keep = a <= t
    if np.count_nonzero(keep) > a.shape[0] * k:
        # rows with more than k entries at or below t (ties at t): keep the
        # entries below t, then tied ones by ascending column
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        vals, at = a[over], t[over]
        below = vals < at
        tied = vals == at
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
    return keep


def sparsify_knn(kernel: SimilarityKernel, kappa: int) -> SimilarityKernel:
    """Keep each row's kappa largest off-diagonal similarities.

    Boundary ties go to the lower column index (``first_k`` on the negated
    rows, with a NaN diagonal that is never kept). The kept entries are
    found row block by row block, then regrouped once by column (rows
    ascending within a column), the only layout the kernel stores. The
    diagonal stays implicit; dropped entries read as 0.
    """
    if kernel.is_sparse:
        raise ValidationError("sparsify_knn requires a dense kernel")
    n = kernel.n
    if not (1 <= kappa <= n - 1):
        raise ValidationError(f"kappa must be in [1, {n - 1}], got {kappa}")
    # entry i * kappa + t is row i's t-th kept column, ascending
    cols = np.empty(n * kappa, dtype=np.int64)
    for lo, hi in row_blocks(n):
        block = np.negative(kernel.dense[lo:hi])
        # not +inf: a -inf similarity negates to +inf and would tie it
        block[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        flat = np.flatnonzero(first_k(block, kappa))  # columns ascend within a row
        cols[lo * kappa:hi * kappa] = flat % n
    # regroup by column; the stable sort keeps rows ascending within each.
    # In place where it can be: the dense kernel is still alive here.
    rows = np.argsort(cols, kind="stable")
    cols.sort()
    rows //= kappa
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
    values = kernel.dense[rows, cols]
    for a in (col_ptr, rows, values):
        a.flags.writeable = False
    return SimilarityKernel(n=n, col_ptr=col_ptr, rows=rows, values=values)
