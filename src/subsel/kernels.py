"""Pairwise similarity and distance kernels over a ground set.

Similarities are shifted cosines, ``(1 + cos) / 2``, so they land in
[0, 1] with an exact unit diagonal. Every similarity kernel is stored by
column, the order in which facility location reads a candidate. It is
dense or sparse:

- A dense kernel is one n x n float32 array, column-major. The build
  computes the upper triangle in float64, one block of rows at a time
  (see ``_gemm_blocks``), ``x[lo:hi] @ x[lo:].T`` finished in place, then
  rounds each block to float32 and writes it to its rows and, transposed,
  to its columns below the diagonal. So the kernel is exactly symmetric
  (its ``symmetric`` field says so) and holds 4 n^2 bytes plus
  O(block * n) working memory, and no n x n float64 array is ever made.
  An allocation that fails raises ``CapacityError``.
- A kappa-sparse kernel keeps each row's kappa largest off-diagonal
  similarities, regrouped by column; dropped entries read as similarity 0
  and the diagonal as an implicit 1. ``cosine_similarity(..., kappa=)``
  builds it straight from the features, one row block ``x[lo:hi] @ x.T``
  at a time, in O(n * kappa + block * n) memory. Each row is screened by
  one multiply, and only the columns within a proven rounding margin of
  its kappa-th screen value are finished, by the operations that would
  finish the whole block, so which entries are kept and their bytes do
  not depend on the screen (the proof is in ``cosine_similarity``).
  ``sparsify_knn`` cuts a dense kernel, reading a symmetric one's rows as
  its contiguous columns. Both go through ``_top_kappa`` (sparsify_knn
  with a zero margin), which regroups the kept entries once by column
  with a stable radix sort of their columns as small unsigned integers.
  Which entries are kept is decided by ``first_k``, the package's one
  top-k rule (the first k of a stable sort), which the kNN vote in
  ``models`` shares.

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

from .dataset import FeatureMatrix, require_int
from .errors import CapacityError, ValidationError


@dataclass(frozen=True)
class SimilarityKernel:
    """Pairwise similarities in [0,1], stored by column, the order in which
    facility location reads a candidate: column j of a dense matrix is
    dense.T[j] (contiguous if dense is column-major); kept entries list
    column j as rows[col_ptr[j]:col_ptr[j + 1]] (ascending) with
    similarities values[...], an implicit unit diagonal and 0 elsewhere.
    cosine_similarity stores dense kernels in float32 and kept entries in
    float64; a kernel built by hand may hold either.

    symmetric says that dense equals dense.T exactly; cosine_similarity sets
    it on its dense kernels. Lazy greedy then reads row i as the contiguous
    column i to find the candidates whose gain a pick can change, and keeps
    the other bounds fresh. Otherwise, and for every sparse kernel, a pick
    leaves every unpicked bound stale."""

    n: int
    dense: Optional[np.ndarray] = None
    col_ptr: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    symmetric: bool = False

    @property
    def is_sparse(self) -> bool:
        return self.dense is None


@dataclass(frozen=True)
class DistanceKernel:
    """Euclidean distances among float64 feature rows x with squared norms
    sq: squared distances (sq_i + sq_j) - 2 x_i . x_j are computed, unclipped,
    when read, except that two rows of one group (group[i] == group[j], equal
    rows) read exactly 0; copied[i] says whether i's group holds another row."""

    n: int
    x: np.ndarray
    sq: np.ndarray
    group: np.ndarray
    copied: np.ndarray

    def sq_row(self, e: int) -> np.ndarray:
        """Squared distances from every element to e; 0 on e's group."""
        d2 = _squared_distances(self.x, self.sq, -2.0 * self.x[e], self.sq[e])
        if self.copied[e]:
            d2[self.group == self.group[e]] = 0.0
        else:
            d2[e] = 0.0
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
        copies = self.copied.any()
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


def _gemm_blocks(n: int, width: Optional[int] = None) -> list[tuple[int, int]]:
    """row_blocks(n, width) of at least _GEMM_ROWS rows (~_BLOCK_ELEMS /
    _GEMM_ROWS elements a row), for the passes that stream products of x."""
    return row_blocks(n, min(n if width is None else width, _BLOCK_ELEMS // _GEMM_ROWS))


def _dense_array(n: int) -> np.ndarray:
    """An uninitialised n x n float32 column-major array, the one n x n
    allocation of a dense build; CapacityError if it fails."""
    try:
        return np.empty((n, n), dtype=np.float32, order="F")
    except MemoryError:
        raise CapacityError(
            f"a dense {n} x {n} kernel needs {4 * n * n:,} bytes, more than can be "
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


def _shifted_cosine(block: np.ndarray, inv_a: np.ndarray, inv_b: np.ndarray) -> np.ndarray:
    """(1 + cos) / 2, clipped to [0, 1], in place over a block of row products
    given both sides' inverse norms. Halving the outer product and adding
    0.5 gives the bytes of scaling, adding 1 and halving: a power of two
    commutes with rounding, and cos = -1 gives +0.0 either way."""
    block *= np.outer(0.5 * inv_a, inv_b)
    block += 0.5
    np.clip(block, 0.0, 1.0, out=block)
    return block


def cosine_similarity(m: FeatureMatrix, kappa: Optional[int] = None) -> SimilarityKernel:
    """Shifted-cosine similarity kernel over m's rows: dense float32, or with
    kappa each row's kappa largest off-diagonal entries in float64, built row
    block by row block without an n x n float64 matrix.

    The kappa-sparse kernel keeps what sparsify_knn would keep of the dense
    finish before its rounding to float32, but each row's values come from
    its own block's product, so a value can differ from that finish in its
    last bit, and a row whose kappa-th and next candidates differ only there
    can keep the other one.

    Each row block's product q = x[lo:hi] @ x.T, in the blocks of the
    dense finish, is screened: sigma = q * inv_norms, one multiply, orders
    row i's columns as its similarities do, up to a margin Delta_i. Only
    the candidates, the columns whose sigma is at least the row's kappa-th
    largest off-diagonal sigma tau less Delta_i, are finished, by the
    operations that finish a whole block: fl(q * fl(inv_i * inv_j)), + 1,
    * -0.5, clipped to [-1, 0]. So the kept entries, their tie order and
    their value bytes are those of finishing every entry (_top_kappa).

    Proof that Delta_i = (2d + 40) u n_i suffices, n_i the computed norm
    (u = 2^-53, gamma_m = m u / (1 - m u); Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 3). Float32 features leave no
    product to under- or overflow, and second-order terms in u, below
    0.1 u |x_i| for d up to a million, go to the slack in the constants.

    1. With a = inv_i > 0, the finish w_j = fl(q_j fl(a inv_j)) and the
       screen sigma_j = fl(q_j inv_j) are three roundings apart: w_j =
       a sigma_j (1 + eta_j), |eta_j| <= gamma_3.
    2. q_j is within gamma_d |x_i| |x_j| of x_i . x_j (Cauchy-Schwarz),
       inv_j |x_j| within gamma_d / 2 + 2u of 1 (a sum of squares, a root
       and a reciprocal), and fl(a inv_j) |x_i| |x_j| within gamma_d + 5u.
       So |sigma_j| <= 1.01 |x_i|, and a computed cosine passes +-1 by at
       most beta = 2 gamma_d + 6u.
    3. If w_c - w_j > beta + 4u, c's similarity is strictly the larger.
       fl(w + 1) is within 2u of w + 1 on [-1, 4), so fl(w_c + 1) >
       fl(w_j + 1), and halving is exact. The clip ties them at 1 only if
       fl(w_j + 1) >= 2, so w_j >= 1 - u and w_c - w_j <= beta + u, and at
       0 only if w_c <= -1, so w_j < -1 - beta: neither can happen.
    4. At least kappa columns c have sigma_c >= tau, all candidates. A
       column j left out has sigma_j < fl(tau - Delta_i), so sigma_c -
       sigma_j > Delta_i - u (|tau| + Delta_i) >= (2d + 38.8) u |x_i|
       (n_i >= (1 - gamma_d) |x_i|), and by 1 and 2 w_c - w_j >
       (2d + 38.8 - 6.1) u a |x_i| > 2d u + 32u > beta + 4u (a |x_i| >=
       1 - gamma_d). By 3, each such c is strictly more similar than j.
    5. So a column left out follows at least kappa others in the row's
       stable sort and is not kept: the row keeps the first kappa of its
       candidates in that sort, which first_k finds in column order.
    """
    x = m.values.astype(np.float64)
    n, d = x.shape
    norms = cosine_norms(x)
    inv_norms = 1.0 / norms
    if kappa is not None:
        margin = (2 * d + 40) * 2.0 ** -53 * norms

        def screened(lo, hi):
            q = x[lo:hi] @ x.T

            def finish(r, c):
                w = q[r, c]
                w *= inv_norms[lo + r] * inv_norms[c]
                w += 1.0
                w *= -0.5
                return np.clip(w, -1.0, 0.0, out=w)

            return q * inv_norms, margin[lo:hi], finish

        return _top_kappa(n, kappa, screened)
    sim = _dense_array(n)
    triu = {}  # block height -> its tile's upper-triangle indices
    for lo, hi in _gemm_blocks(n):
        upper = _shifted_cosine(x[lo:hi] @ x[lo:].T, inv_norms[lo:hi],
                                inv_norms[lo:]).astype(np.float32)
        tile = upper[:, :hi - lo]  # the diagonal tile: mirror its upper triangle
        if hi - lo not in triu:
            triu[hi - lo] = np.triu_indices(hi - lo, 1)
        i, j = triu[hi - lo]
        tile[j, i] = tile[i, j]
        np.fill_diagonal(tile, 1.0)
        sim[lo:hi, lo:] = upper
        sim[hi:, lo:hi] = upper[:, hi - lo:].T
    sim.flags.writeable = False
    return SimilarityKernel(n=n, dense=sim, symmetric=True)


def euclidean_distance(m: FeatureMatrix) -> DistanceKernel:
    """Feature-backed euclidean distance kernel over m's rows; rows with
    equal values form one group, found once by sorting the rows' bytes."""
    x = m.values.astype(np.float64)
    v = m.values + np.float32(0.0)  # -0.0 + 0.0 is 0.0: equal rows, equal bytes
    _, group, size = np.unique(v.view(np.dtype((np.void, v.itemsize * v.shape[1]))).ravel(),
                               return_inverse=True, return_counts=True)
    return DistanceKernel(n=x.shape[0], x=x, sq=np.einsum("ij,ij->i", x, x), group=group,
                          copied=size[group] > 1)


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


def _top_kappa(n: int, kappa: int, screened: Callable) -> SimilarityKernel:
    """Each row's kappa largest off-diagonal similarities, stored by column.

    screened(lo, hi) returns, for rows lo:hi, a fresh array of screen scores,
    each row's margin (an array, or 0.0 where the scores are the
    similarities), and finish(r, c), the exact negated similarities at rows
    lo + r and columns c. The screen must order each row's columns as its
    similarities do, except within the margin: a column that scores more
    than the margin below the row's kappa-th largest score must be strictly
    less similar than every column that scores at least that.

    The candidates are the columns within the margin of the kappa-th score,
    with the diagonal excluded (a NaN, which no entry ties); only they are
    finished. A row with more candidates than kappa keeps the first kappa
    of a stable sort of their negated similarities (first_k, lower column
    first among ties), NaN-padded in ascending column order. The kept
    entries are regrouped once by column (rows ascending within a column),
    the only layout the kernel stores, by a stable sort of columns in the
    smallest unsigned type that holds n - 1: numpy's radix sort when n <=
    65,536, and the same permutation as any other stable sort.
    """
    kappa = require_int(kappa, "kappa", 1, n - 1)
    # entry i * kappa + t is row i's t-th kept column, ascending, and its value
    cols = np.empty(n * kappa, dtype=np.min_scalar_type(n - 1))
    kept = np.empty(n * kappa)
    for lo, hi in _gemm_blocks(n):
        scores, margin, finish = screened(lo, hi)
        scores[np.arange(hi - lo), np.arange(lo, hi)] = np.nan  # sorts last
        tau = np.partition(scores, n - 1 - kappa, axis=1)[:, n - 1 - kappa]
        r, c = np.divmod(np.flatnonzero(scores >= (tau - margin)[:, None]), n)
        v = finish(r, c)
        if c.size > (hi - lo) * kappa:
            # a row with more candidates than kappa (ties or near-ties): first_k
            # over each row's candidates, in column order, NaN-padded
            count = np.bincount(r, minlength=hi - lo)
            at = np.arange(c.size) - (np.cumsum(count) - count)[r]  # place in its row
            padded = np.full((hi - lo, count.max()), np.nan)
            padded[r, at] = v
            keep = first_k(padded, kappa)[r, at]
            c, v = c[keep], v[keep]
        cols[lo * kappa:hi * kappa] = c
        kept[lo * kappa:hi * kappa] = v
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
    kernel (see _top_kappa, with a zero margin); the diagonal stays implicit
    and dropped entries read as 0. Row i of a symmetric kernel is read as
    column i, contiguous in the column-major kernels cosine_similarity
    builds."""
    if kernel.is_sparse:
        raise ValidationError("sparsify_knn requires a dense kernel")
    dense = kernel.dense.T if kernel.symmetric else kernel.dense

    def screened(lo, hi):
        block = np.array(dense[lo:hi])
        return block, 0.0, lambda r, c: np.negative(block[r, c])

    return _top_kappa(kernel.n, kappa, screened)
