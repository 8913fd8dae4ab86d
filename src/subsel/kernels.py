"""Pairwise similarity and distance kernels over a ground set.

Similarities are shifted cosines, ``(1 + cos) / 2``, so they land in
[0, 1] with an exact unit diagonal. Every similarity kernel is stored by
column, the order in which facility location reads a candidate. It is
dense or sparse:

- A dense build allocates one n x n array, the Gram matrix ``x @ x.T``,
  finishes it in place, one block of whole rows at a time (see
  ``row_blocks``), in O(block * n) working memory beyond the result, and
  returns its transpose, a column-major view. numpy returns ``x @ x.T``
  exactly symmetric, and entry (i, j) of the finish depends only on g_ij
  and inv_i * inv_j, so the view holds the finished array's bytes. An
  allocation that fails raises ``CapacityError``.
- A kappa-sparse kernel keeps each row's kappa largest off-diagonal
  similarities, regrouped by column; dropped entries read as similarity 0
  and the diagonal as an implicit 1. ``cosine_similarity(..., kappa=)``
  builds it straight from the features, one row block ``x[lo:hi] @ x.T``
  at a time, in O(n * kappa + block * n) memory; ``sparsify_knn`` cuts a
  dense kernel.
  Both feed the same per-block top-kappa and column regroup. Which entries
  are kept is decided by ``first_k``, the package's one top-k rule (the
  first k of a stable sort), which the kNN vote in ``models`` shares.

Distances are euclidean and never stored: ``euclidean_distance`` keeps
the rows, their squared norms and a group label per row (rows with equal
values share one), O(n * d), and computes squared distances when farthest
point asks: one row per pick (a GEMV), and the exact maximum pair by a
scan of upper-triangle row blocks (a GEMM each). Two rows of one group
read squared distance exactly 0, where the products would leave rounding
noise of either sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dataset import FeatureMatrix
from .errors import CapacityError, ValidationError


@dataclass(frozen=True)
class SimilarityKernel:
    """Pairwise similarities in [0,1], stored by column, the order in which
    facility location reads a candidate: column j of a dense matrix is
    dense.T[j] (contiguous if dense is column-major); kept entries list
    column j as rows[col_ptr[j]:col_ptr[j + 1]] (ascending) with
    similarities values[...], an implicit unit diagonal and 0 elsewhere."""

    n: int
    dense: Optional[np.ndarray] = None
    col_ptr: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    @property
    def is_sparse(self) -> bool:
        return self.dense is None


@dataclass(frozen=True)
class DistanceKernel:
    """Euclidean distances among float64 feature rows x with squared norms
    sq: squared distances (sq_i + sq_j) - 2 x_i . x_j are computed, unclipped,
    when read, except that two rows of one group (group[i] == group[j], equal
    rows) read exactly 0."""

    n: int
    x: np.ndarray
    sq: np.ndarray
    group: np.ndarray

    def sq_row(self, e: int) -> np.ndarray:
        """Squared distances from every element to e; 0 on e's group."""
        d2 = _squared_distances(self.x, self.sq, -2.0 * self.x[e], self.sq[e])
        d2[self.group == self.group[e]] = 0.0
        return d2

    def max_pair(self) -> tuple[int, int]:
        """The lexicographically smallest pair i < j of different groups at
        the largest squared distance; (0, 1) if all rows form one group.

        Each block is the upper-triangle tile of rows lo:hi against rows lo:
        with j <= i, and same-group pairs, masked out: two products of one
        pair can differ in the last bit, so no symmetry argument holds.
        """
        i, j, top = 0, 1, -np.inf
        x2 = -2.0 * self.x
        copies = int(self.group.max()) + 1 < self.n
        for lo, hi in _gemm_blocks(self.n):
            block = _squared_distances(self.x[lo:hi], self.sq[lo:hi], x2[lo:], self.sq[lo:])
            block[:, :hi - lo][np.tri(hi - lo, dtype=bool)] = -np.inf
            if copies:
                block[self.group[lo:hi, None] == self.group[lo:]] = -np.inf
            r, c = divmod(int(block.argmax()), block.shape[1])
            if block[r, c] > top:
                i, j, top = lo + r, lo + c, block[r, c]
        return i, j


# Elements per row block: the blocked passes over n x n arrays keep their
# temporaries at about this size (256 KiB of float64) instead of n x n.
_BLOCK_ELEMS = 1 << 15
# Rows per block, at least, of a pass that multiplies each block by all the
# feature rows, so that they are read once per block rather than once per row.
_GEMM_ROWS = 32


def row_blocks(n: int, width: Optional[int] = None) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges covering range(n), ~_BLOCK_ELEMS / width
    rows each (at least one); a row costs width elements, n by default."""
    step = max(1, _BLOCK_ELEMS // max(n if width is None else width, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _gemm_blocks(n: int) -> list[tuple[int, int]]:
    """row_blocks(n) of at least _GEMM_ROWS rows (~_BLOCK_ELEMS / _GEMM_ROWS
    elements a row), for the passes that stream products of x."""
    return row_blocks(n, min(n, _BLOCK_ELEMS // _GEMM_ROWS))


def _gram(x: np.ndarray) -> np.ndarray:
    """x @ x.T, the n x n allocation of a dense build; CapacityError if it
    fails. numpy returns it exactly symmetric: it computes one triangle
    (BLAS syrk) and copies it onto the other."""
    try:
        return x @ x.T
    except MemoryError:
        n = x.shape[0]
        raise CapacityError(
            f"a dense {n} x {n} kernel needs {8 * n * n:,} bytes, more than can be "
            "allocated; fl with --knn-sparsify KAPPA, and dm, build no n x n matrix"
        ) from None


def _squared_distances(xa, sqa, xb2, sqb) -> np.ndarray:
    """(sq_a + sq_b) - 2 xa . xb for the rows of xa against the rows (or the
    one row) of xb, given xb2 = -2 xb, unclipped: scaling a factor by -2
    scales the product exactly."""
    d2 = np.dot(xa, xb2.T)
    d2 += np.add.outer(sqa, sqb)
    return d2


def cosine_norms(x: np.ndarray) -> np.ndarray:
    """Norms of x's float64 rows; an all-zero row raises, named by its index."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(f"cosine similarity undefined for all-zero row {zero[0]}")
    return norms


def cosine_similarity(m: FeatureMatrix, kappa: Optional[int] = None) -> SimilarityKernel:
    """Shifted-cosine similarity kernel over m's rows: dense, or with
    kappa each row's kappa largest off-diagonal entries, built row block by
    row block without an n x n matrix.

    The kappa-sparse kernel keeps what sparsify_knn of the dense kernel
    keeps, but each row's values come from its own block's product, so a
    value can differ from the dense one in its last bit, and a
    row whose kappa-th and next candidates differ only there can keep the
    other one.
    """
    x = m.values.astype(np.float64)
    inv_norms = 1.0 / cosine_norms(x)
    if kappa is not None:
        def negated_rows(lo, hi):
            block = x[lo:hi] @ x.T
            block *= np.outer(inv_norms[lo:hi], inv_norms)
            block += 1.0
            block *= -0.5  # the dense finish, negated: sign flips are exact
            np.clip(block, -1.0, 0.0, out=block)
            return block
        return _top_kappa(x.shape[0], kappa, negated_rows)
    sim = _gram(x)
    for lo, hi in row_blocks(x.shape[0]):
        block = sim[lo:hi]
        block *= np.outer(inv_norms[lo:hi], inv_norms)
        block += 1.0
        block *= 0.5
        np.clip(block, 0.0, 1.0, out=block)
    np.fill_diagonal(sim, 1.0)
    sim.flags.writeable = False
    return SimilarityKernel(n=x.shape[0], dense=sim.T)  # sim is symmetric: same bytes


def euclidean_distance(m: FeatureMatrix) -> DistanceKernel:
    """Feature-backed euclidean distance kernel over m's rows; rows with
    equal values form one group, found once by sorting the rows' bytes."""
    x = m.values.astype(np.float64)
    v = m.values + np.float32(0.0)  # -0.0 + 0.0 is 0.0: equal rows, equal bytes
    _, group = np.unique(v.view(np.dtype((np.void, v.itemsize * v.shape[1]))).ravel(),
                         return_inverse=True)
    return DistanceKernel(n=x.shape[0], x=x, sq=np.einsum("ij,ij->i", x, x), group=group)


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


def _top_kappa(n: int, kappa: int,
               negated_rows: Callable[[int, int], np.ndarray]) -> SimilarityKernel:
    """Each row's kappa largest off-diagonal similarities, stored by column.

    negated_rows(lo, hi) returns rows lo:hi of the negated similarities as a
    fresh array. Boundary ties go to the lower column index (``first_k``,
    with a NaN diagonal that is never kept). The kept entries are found row
    block by row block, then regrouped once by column (rows ascending within
    a column), the only layout the kernel stores.
    """
    if not (1 <= kappa <= n - 1):
        raise ValidationError(f"kappa must be in [1, {n - 1}], got {kappa}")
    # entry i * kappa + t is row i's t-th kept column, ascending, and its value
    cols = np.empty(n * kappa, dtype=np.int64)
    kept = np.empty(n * kappa)
    for lo, hi in _gemm_blocks(n):
        block = negated_rows(lo, hi)
        # not +inf: a -inf similarity negates to +inf and would tie it
        block[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        flat = np.flatnonzero(first_k(block, kappa))  # columns ascend within a row
        cols[lo * kappa:hi * kappa] = flat % n
        kept[lo * kappa:hi * kappa] = block.ravel()[flat]
    # regroup by column; the stable sort keeps rows ascending within each
    order = np.argsort(cols, kind="stable")
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
    values = np.negative(kept[order])
    rows = np.floor_divide(order, kappa, out=order)
    for a in (col_ptr, rows, values):
        a.flags.writeable = False
    return SimilarityKernel(n=n, col_ptr=col_ptr, rows=rows, values=values)


def sparsify_knn(kernel: SimilarityKernel, kappa: int) -> SimilarityKernel:
    """Keep each row's kappa largest off-diagonal similarities of a dense
    kernel (see _top_kappa); the diagonal stays implicit and dropped entries
    read as 0."""
    if kernel.is_sparse:
        raise ValidationError("sparsify_knn requires a dense kernel")
    return _top_kappa(kernel.n, kappa, lambda lo, hi: np.negative(kernel.dense[lo:hi]))
