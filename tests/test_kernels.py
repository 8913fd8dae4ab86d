import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_features, random_similarity_kernel
from subsel import kernels
from subsel.dataset import FeatureMatrix
from subsel.errors import ValidationError
from subsel.kernels import (
    SimilarityKernel,
    cosine_similarity,
    euclidean_distance,
    is_symmetric,
    sparsify_knn,
)
from subsel.objectives import FacilityLocation
from subsel.optimize import BudgetSpec, greedy_naive

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# Row-block sizes, in elements, for the blocked passes: one row per block,
# a few rows per block, and the default.
BLOCK_ELEMS = st.sampled_from([1, 7, 40, kernels._BLOCK_ELEMS])


# Whole-matrix reference implementations: the blocked kernels must give
# the same bytes.

def reference_mirror_upper(a, diagonal):
    upper = np.triu(a, 1)
    out = upper + upper.T
    np.fill_diagonal(out, diagonal)
    return out


def reference_rows(m, rows):
    idx = np.arange(m.n) if rows is None else np.asarray(rows, dtype=np.int64)
    return m.values[idx].astype(np.float64)


def reference_cosine(m, rows=None):
    x = reference_rows(m, rows)
    inv_norms = 1.0 / np.sqrt(np.einsum("ij,ij->i", x, x))
    gram = x @ x.T
    sim = 0.5 * (1.0 + gram * np.outer(inv_norms, inv_norms))
    np.clip(sim, 0.0, 1.0, out=sim)
    return reference_mirror_upper(sim, 1.0)


def reference_euclidean(m, rows=None):
    x = reference_rows(m, rows)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    return reference_mirror_upper(np.sqrt(d2), 0.0)


def reference_sparsify(dense, kappa):
    """Per-row top-kappa: descending value, ascending column among ties."""
    n = dense.shape[0]
    cols = np.arange(n, dtype=np.int64)
    col_idx = np.empty(n * kappa, dtype=np.int64)
    values = np.empty(n * kappa, dtype=np.float64)
    for i in range(n):
        off = np.concatenate((cols[:i], cols[i + 1:]))
        order = np.lexsort((off, -dense[i, off]))[:kappa]
        keep = np.sort(off[order])
        col_idx[i * kappa:(i + 1) * kappa] = keep
        values[i * kappa:(i + 1) * kappa] = dense[i, keep]
    return col_idx, values


def reference_csc(dense, kappa):
    """reference_sparsify regrouped by column, rows ascending within each
    column: (col_ptr, rows, values)."""
    n = dense.shape[0]
    col_idx, values = reference_sparsify(dense, kappa)
    rows = np.repeat(np.arange(n, dtype=np.int64), kappa)
    order = np.lexsort((rows, col_idx))
    col_ptr = np.searchsorted(col_idx[order], np.arange(n + 1)).astype(np.int64)
    return col_ptr, rows[order], values[order]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def features_and_rows(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).standard_normal((n, d))
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = values[0]  # an exact duplicate row
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    return FeatureMatrix(values), rows


@st.composite
def tied_kernels(draw):
    """Small square kernels over a 3-4 value alphabet: ties everywhere."""
    n = draw(st.integers(2, 12))
    alphabet = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -np.inf]),
                             min_size=3, max_size=4, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dense = np.random.default_rng(seed).choice(alphabet, size=(n, n))
    return SimilarityKernel(n=n, dense=dense)


class TestCosine:
    def test_identical_rows_score_one(self):
        m = FeatureMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        k = cosine_similarity(m)
        np.testing.assert_allclose(k.dense[0, 1], 1.0, atol=1e-12)

    def test_orthogonal_rows_score_half(self):
        m = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        k = cosine_similarity(m)
        assert k.dense[0, 1] == 0.5

    def test_opposite_rows_score_zero(self):
        m = FeatureMatrix(np.array([[1.0, 2.0], [-1.0, -2.0]]))
        k = cosine_similarity(m)
        np.testing.assert_allclose(k.dense[0, 1], 0.0, atol=1e-12)

    def test_diagonal_is_exactly_one(self):
        m = random_features(np.random.default_rng(0), 20, 6)
        k = cosine_similarity(m)
        assert (np.diag(k.dense) == 1.0).all()

    def test_entries_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = cosine_similarity(random_features(rng, 15, 4))
            assert k.dense.min() >= 0.0 and k.dense.max() <= 1.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = cosine_similarity(random_features(rng, 12, 5))
            assert np.abs(k.dense - k.dense.T).max() == 0.0

    def test_zero_norm_row_names_the_row(self):
        values = np.ones((4, 3))
        values[2] = 0.0
        with pytest.raises(ValidationError, match="2"):
            cosine_similarity(FeatureMatrix(values))

    def test_zero_norm_error_uses_original_index_under_row_selection(self):
        values = np.ones((5, 2))
        values[3] = 0.0
        with pytest.raises(ValidationError, match="3"):
            cosine_similarity(FeatureMatrix(values), rows=[0, 3, 4])


class TestEuclidean:
    def test_points_on_a_line(self):
        m = FeatureMatrix(np.array([[0.0], [3.0]]))
        assert euclidean_distance(m).dense[0, 1] == 3.0

    def test_three_four_five_triangle(self):
        m = FeatureMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert euclidean_distance(m).dense[0, 1] == 5.0

    def test_diagonal_is_exactly_zero(self):
        k = euclidean_distance(random_features(np.random.default_rng(3), 9, 4))
        assert (np.diag(k.dense) == 0.0).all()

    def test_symmetry_is_exact_on_50_random_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = euclidean_distance(random_features(rng, 10, 3))
            assert np.abs(k.dense - k.dense.T).max() == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = euclidean_distance(random_features(rng, 12, 4)).dense
            for k in range(12):
                assert (d <= d[:, [k]] + d[[k], :] + 1e-9).all()


class TestSparsify:
    def test_top_entry_survives(self):
        dense = np.array([[1.0, 0.9, 0.1],
                          [0.9, 1.0, 0.2],
                          [0.1, 0.2, 1.0]])
        from subsel.kernels import SimilarityKernel

        sparse = sparsify_knn(SimilarityKernel(n=3, dense=dense), 1)
        dense_view = sparse.to_dense()
        assert dense_view[0, 1] == 0.9
        assert dense_view[0, 2] == 0.0  # dropped entries read as zero
        assert dense_view[0, 0] == 1.0  # implicit diagonal

    def test_boundary_ties_go_to_the_lower_index(self):
        dense = np.full((4, 4), 0.5)
        np.fill_diagonal(dense, 1.0)
        from subsel.kernels import SimilarityKernel

        sparse = sparsify_knn(SimilarityKernel(n=4, dense=dense), 2)
        kept = [j for j in range(4)
                if 3 in sparse.rows[sparse.col_ptr[j]:sparse.col_ptr[j + 1]]]
        assert kept == [0, 1]

    def test_kappa_out_of_range(self):
        k = cosine_similarity(random_features(np.random.default_rng(6), 5, 3))
        with pytest.raises(ValidationError):
            sparsify_knn(k, 0)
        with pytest.raises(ValidationError):
            sparsify_knn(k, 5)

    def test_sparse_input_rejected(self):
        k = cosine_similarity(random_features(np.random.default_rng(6), 5, 3))
        sparse = sparsify_knn(k, 2)
        with pytest.raises(ValidationError):
            sparsify_knn(sparse, 1)

    def test_nothing_dropped_matches_dense_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            dense = cosine_similarity(random_features(rng, 14, 4))
            sparse = sparsify_knn(dense, 13)
            a = greedy_naive(FacilityLocation(dense), BudgetSpec(5))
            b = greedy_naive(FacilityLocation(sparse), BudgetSpec(5))
            assert a.indices == b.indices
            assert a.step_values == b.step_values

    def test_knn_sparsified_greedy_value_stays_close(self):
        # spec floor is 0.9; observed worst ratio at build time was 0.9885
        # (20 kernels, 50 points, kappa=10, budget 10), frozen at 0.98
        rng = np.random.default_rng(2024)
        worst = np.inf
        for _ in range(20):
            m = random_features(rng, 50, 8)
            dense = cosine_similarity(m)
            sparse = sparsify_knn(dense, 10)
            vd = greedy_naive(FacilityLocation(dense), BudgetSpec(10)).final_value
            vs = greedy_naive(FacilityLocation(sparse), BudgetSpec(10)).final_value
            worst = min(worst, vs / vd)
        assert worst >= 0.98

    def test_to_dense_and_csc_agree(self):
        rng = np.random.default_rng(9)
        source = cosine_similarity(random_features(rng, 8, 3))
        kernel = sparsify_knn(source, 3)
        col_idx, values = reference_sparsify(source.dense, 3)
        rebuilt = np.zeros((8, 8))
        rebuilt[np.repeat(np.arange(8), 3), col_idx] = values
        np.fill_diagonal(rebuilt, 1.0)
        assert np.array_equal(kernel.to_dense(), rebuilt)
        assert (np.diff(kernel.col_ptr) == np.bincount(col_idx, minlength=8)).all()


class TestBlockedBuildsMatchReference:
    @PROPERTY
    @given(features_and_rows(), BLOCK_ELEMS)
    def test_cosine_is_byte_identical(self, case, block_elems):
        m, rows = case
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            built = cosine_similarity(m, rows=rows).dense
        assert same_bytes(built, reference_cosine(m, rows))

    @PROPERTY
    @given(features_and_rows(), BLOCK_ELEMS)
    def test_euclidean_is_byte_identical(self, case, block_elems):
        m, rows = case
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            built = euclidean_distance(m, rows=rows).dense
        assert same_bytes(built, reference_euclidean(m, rows))

    @PROPERTY
    @given(tied_kernels(), BLOCK_ELEMS)
    def test_sparsify_is_byte_identical_for_every_kappa(self, kernel, block_elems):
        for kappa in range(1, kernel.n):
            with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
                sparse = sparsify_knn(kernel, kappa)
            col_ptr, rows, values = reference_csc(kernel.dense, kappa)
            assert same_bytes(sparse.col_ptr, col_ptr)
            assert same_bytes(sparse.rows, rows)
            assert same_bytes(sparse.values, values)

    def test_sparsify_matches_reference_at_benchmark_scale(self):
        m = random_features(np.random.default_rng(11), 700, 16)
        dense = cosine_similarity(m).dense
        for kappa in (1, 25, 699):
            col_ptr, rows, values = reference_csc(dense, kappa)
            sparse = sparsify_knn(SimilarityKernel(n=700, dense=dense), kappa)
            assert same_bytes(sparse.col_ptr, col_ptr)
            assert same_bytes(sparse.rows, rows)
            assert same_bytes(sparse.values, values)

    def test_builds_match_reference_across_several_default_blocks(self):
        m = random_features(np.random.default_rng(12), 600, 8)
        assert len(kernels.row_blocks(600)) > 1
        assert same_bytes(cosine_similarity(m).dense, reference_cosine(m))
        assert same_bytes(euclidean_distance(m).dense, reference_euclidean(m))


class TestIsSymmetric:
    @pytest.mark.parametrize("block_elems", [1, 7, kernels._BLOCK_ELEMS])
    def test_one_flipped_entry_anywhere_is_found(self, block_elems):
        dense = random_similarity_kernel(np.random.default_rng(13), 9).dense
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            assert is_symmetric(dense)
            for i, j in [(8, 0), (0, 8), (4, 3), (5, 6)]:
                flipped = dense.copy()
                flipped[i, j] = np.nextafter(flipped[i, j], 2.0)
                assert not is_symmetric(flipped)


def _peak_bytes(fn):
    """Peak bytes newly allocated while fn runs (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    @pytest.mark.parametrize("build", [cosine_similarity, euclidean_distance])
    def test_dense_build_peaks_near_one_n_by_n_array(self, build):
        n = 1000
        m = random_features(np.random.default_rng(14), n, 16)
        assert _peak_bytes(lambda: build(m)) <= 1.5 * 8 * n * n


def test_row_selection_builds_subkernel():
    m = random_features(np.random.default_rng(10), 10, 4)
    rows = [7, 2, 5]
    sub = cosine_similarity(m, rows=rows)
    full = cosine_similarity(m)
    for a, ia in enumerate(rows):
        for b, ib in enumerate(rows):
            if a != b:
                np.testing.assert_allclose(sub.dense[a, b], full.dense[ia, ib],
                                           rtol=0, atol=1e-12)


def test_random_similarity_fixture_is_valid():
    k = random_similarity_kernel(np.random.default_rng(0), 6)
    assert (np.diag(k.dense) == 1.0).all()
    assert np.abs(k.dense - k.dense.T).max() == 0.0
