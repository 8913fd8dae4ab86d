from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    distances_among,
    full_finish_kappa,
    greedy_naive,
    no_room_for_dense_kernels,
    peak_bytes,
    random_features,
    random_similarity_kernel,
    reference_euclidean,
    reference_mirror_upper,
    to_dense,
)
from subsel import kernels
from subsel.dataset import FeatureMatrix
from subsel.errors import CapacityError, ValidationError
from subsel.kernels import (
    SimilarityKernel,
    cosine_similarity,
    euclidean_distance,
    first_k,
    sparsify_knn,
)
from subsel.objectives import FacilityLocation

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# Row-block sizes, in elements, for the blocked passes: one row per block,
# a few rows per block, and the default.
BLOCK_ELEMS = st.sampled_from([1, 7, 40, kernels._BLOCK_ELEMS])


# Whole-matrix reference implementations: the blocked kernels must give
# the same bytes.

def reference_cosine(m):
    x = m.values.astype(np.float64)
    inv_norms = 1.0 / np.sqrt(np.einsum("ij,ij->i", x, x))
    gram = x @ x.T
    sim = 0.5 * (1.0 + gram * np.outer(inv_norms, inv_norms))
    np.clip(sim, 0.0, 1.0, out=sim)
    return reference_mirror_upper(sim, 1.0)


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


def same_entries(kernel, reference):
    """A sparse kernel's col_ptr, rows and values have the dtypes and bytes
    of reference's three arrays."""
    return all(map(same_bytes, (kernel.col_ptr, kernel.rows, kernel.values), reference))


def assert_rounds_the_reference(built, m):
    """built is a float32, column-major, exactly symmetric kernel with a
    unit diagonal, and each entry is reference_cosine(m)'s, rounded to the
    nearest float32, or the other float32 neighbour where the reference
    lies within delta of a rounding midpoint.

    The build and the reference finish entry (i, j), i != j, by the same
    float64 operations, clip(0.5 * fl(1 + fl(g * p))), with the same
    p = fl(inv_i inv_j), from two computed dot products g of rows i and j: a
    GEMM block's and numpy's x @ x.T. Each g lies within gamma_d |x_i| |x_j|
    of the exact product (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3, and Cauchy-Schwarz), gamma_d = d u / (1 - d u),
    u = 2^-53, and p |x_i| |x_j| is within gamma_d + 5 u of 1 (the norms'
    sums, square roots and divisions). So the two g * p differ by at most
    2.02 gamma_d and are at most 1.01 in magnitude; their roundings, the
    sums with 1 and the sums' roundings add at most 6.1 u, the halving is
    exact, and the clip moves no two values apart: the two finishes differ
    by at most 1.01 gamma_d + 3.1 u. delta = 2 gamma_d + 8 u covers that
    and the rounding of r -/+ delta below. Rounding to float32 is monotone,
    so the built entry lies between the float32 roundings of r - delta and
    r + delta, and those are one value unless r lies within delta of a
    midpoint. The diagonals are exactly 1 in both.
    """
    ref = reference_cosine(m)
    d = m.values.shape[1]
    u = 2.0 ** -53
    delta = 2.0 * d * u / (1.0 - d * u) + 8.0 * u
    assert built.dtype == np.float32 and built.shape == ref.shape
    assert built.flags.f_contiguous
    assert np.array_equal(built, built.T)
    assert (np.diag(built) == 1.0).all()
    low, high = (ref - delta).astype(np.float32), (ref + delta).astype(np.float32)
    assert ((low <= built) & (built <= high)).all()


@st.composite
def ground_sets(draw):
    """Random features, or a draw of their rows (repeats allowed), as
    select_batch slices a filtered set out of the pool."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).standard_normal((n, d))
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = values[0]  # an exact duplicate row
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    return FeatureMatrix(values if rows is None else values[rows])


@st.composite
def tied_kernels(draw):
    """Small square kernels over a 3-4 value alphabet: ties everywhere."""
    n = draw(st.integers(2, 12))
    alphabet = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -np.inf]),
                             min_size=3, max_size=4, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dense = np.random.default_rng(seed).choice(alphabet, size=(n, n))
    return SimilarityKernel(n=n, dense=dense)


@st.composite
def tied_rows(draw):
    """Small 2-D arrays of a few integers and +-inf: ties in every row."""
    rows, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    values = st.sampled_from([-np.inf, -1.0, 0.0, 1.0, 2.0, np.inf])
    flat = draw(st.lists(values, min_size=rows * m, max_size=rows * m))
    return np.array(flat).reshape(rows, m)


@st.composite
def near_tie_features(draw):
    """Features whose similarities tie, exactly or to the last bit: a small
    integer grid, or dyadic rows (few mantissa bits) and one-hot rows with
    exact duplicates, power-of-two scaled copies, copies scaled by 3, 5, 7
    or 40 (the same cosine, rounded another way) and antipodal copies."""
    d = draw(st.integers(1, 8) | st.integers(9, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        rows = rng.integers(-2, 3, size=(draw(st.integers(2, 30)), d)).astype(np.float64)
    else:
        rows = np.vstack([(64.0 * rng.standard_normal((draw(st.integers(2, 10)), d))).round() / 64,
                          np.eye(d)[rng.integers(0, d, size=draw(st.integers(0, 4)))]])
        factors = st.sampled_from([1.0, 0.25, 2.0, 8.0, 3.0, 5.0, 7.0, 40.0, -1.0, -2.0, -3.0])
        copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), factors), max_size=20))
        rows = np.vstack([rows] + [f * rows[i] for i, f in copies])
    rows[~rows.any(axis=1), 0] = 1.0  # no all-zero row
    return FeatureMatrix(rows)


class TestFirstK:
    @PROPERTY
    @given(tied_rows())
    def test_is_the_first_k_of_a_stable_argsort(self, a):
        order = np.argsort(a, axis=1, kind="stable")
        for k in range(1, a.shape[1] + 1):
            expected = np.zeros(a.shape, dtype=bool)
            np.put_along_axis(expected, order[:, :k], True, axis=1)
            assert np.array_equal(first_k(a, k), expected)


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
        # the build writes each upper-triangle block to both triangles, so
        # check it at the benchmark's shapes too: select's 2,100 x 64, sweep's
        # 536 x 32 training split, and al's filtered sets of rows from
        # 600 x 128 features
        rng = np.random.default_rng(2)
        cases = [random_features(rng, 12, 5) for _ in range(20)]
        cases += [random_features(rng, 2100, 64), random_features(rng, 536, 32)]
        pool = random_features(rng, 600, 128)
        cases.append(FeatureMatrix(pool.values[rng.permutation(600)[:70]]))
        for m in cases:
            k = cosine_similarity(m)
            assert k.dense.T.flags.c_contiguous
            assert np.abs(k.dense - k.dense.T).max() == 0.0

    @pytest.mark.parametrize("block_elems", [40, kernels._BLOCK_ELEMS])
    def test_symmetric_when_the_two_products_of_a_pair_differ(self, block_elems):
        # the build must not rely on a GEMM rounding (i, j) and (j, i) alike
        m = random_features(np.random.default_rng(3), 70, 5)
        uneven = SimpleNamespace(values=m.values.view(_UnevenProducts))
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            dense = cosine_similarity(uneven).dense
        assert np.array_equal(dense, dense.T)
        assert (np.diag(dense) == 1.0).all()
        assert not np.array_equal(dense, cosine_similarity(m).dense)  # the noise shows

    def test_zero_norm_row_names_the_row(self):
        values = np.ones((4, 3))
        values[2] = 0.0
        with pytest.raises(ValidationError, match="2"):
            cosine_similarity(FeatureMatrix(values))

    def test_zero_norm_error_names_the_position_in_a_row_slice(self):
        values = np.ones((5, 2))
        values[3] = 0.0
        with pytest.raises(ValidationError, match="all-zero row 1"):
            cosine_similarity(FeatureMatrix(values[[0, 3, 4]]))


class _UnevenProducts(np.ndarray):
    """Rows whose matrix products carry a different error, within 1e-3, in
    every entry: the two products of a pair never agree."""

    def __matmul__(self, other):
        product = np.asarray(np.matmul(np.asarray(self), np.asarray(other)))
        return product + np.random.default_rng(product.size).uniform(-1e-3, 1e-3, product.shape)


def all_distances(kernel):
    return distances_among(kernel, np.arange(kernel.n))


class TestEuclidean:
    def test_points_on_a_line(self):
        m = FeatureMatrix(np.array([[0.0], [3.0]]))
        assert all_distances(euclidean_distance(m))[0, 1] == 3.0
        assert euclidean_distance(m).sq_row(0)[1] == 9.0

    def test_three_four_five_triangle(self):
        m = FeatureMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert all_distances(euclidean_distance(m))[0, 1] == 5.0

    def test_diagonal_is_exactly_zero(self):
        k = euclidean_distance(random_features(np.random.default_rng(3), 9, 4))
        assert (np.diag(all_distances(k)) == 0.0).all()
        assert all(k.sq_row(e)[e] == 0.0 for e in range(k.n))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = all_distances(euclidean_distance(random_features(rng, 12, 4)))
            for k in range(12):
                assert (d <= d[:, [k]] + d[[k], :] + 1e-9).all()

    def test_matches_the_whole_matrix_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = FeatureMatrix(random_features(rng, 10, 3).values[rng.permutation(10)[:7]])
            k = euclidean_distance(m)
            ref = reference_euclidean(m)
            np.testing.assert_allclose(all_distances(k), ref, rtol=1e-12, atol=1e-12)
            for e in range(k.n):
                np.testing.assert_allclose(k.sq_row(e), ref[e] ** 2, rtol=1e-12, atol=1e-12)

    def test_equal_rows_form_one_group_whatever_the_sign_of_zero(self):
        values = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
        k = euclidean_distance(FeatureMatrix(values))
        assert k.group[0] == k.group[1] == k.group[3] != k.group[2]
        assert (k.sq_row(1)[[0, 1, 3]] == 0.0).all()

    @pytest.mark.parametrize("copies", [[], [3, 3, 17]], ids=["no-copies", "copies"])
    def test_sq_row_zeroes_exactly_its_group(self, copies):
        # a row without copies has its own entry zeroed; one with copies,
        # its whole group: byte for byte what a pass over every group gives
        values = np.random.default_rng(6).standard_normal((40, 3))
        k = euclidean_distance(FeatureMatrix(np.concatenate((values, values[copies]))))
        sizes = np.bincount(k.group)[k.group]
        assert np.array_equal(k.copied, sizes > 1) and k.copied.any() == bool(copies)
        for e in range(k.n):
            d2 = kernels._squared_distances(k.x, k.sq, -2.0 * k.x[e], k.sq[e])
            d2[k.group == k.group[e]] = 0.0
            assert k.sq_row(e).tobytes() == d2.tobytes()


class TestSparsify:
    def test_top_entry_survives(self):
        dense = np.array([[1.0, 0.9, 0.1],
                          [0.9, 1.0, 0.2],
                          [0.1, 0.2, 1.0]])
        from subsel.kernels import SimilarityKernel

        sparse = sparsify_knn(SimilarityKernel(n=3, dense=dense), 1)
        dense_view = to_dense(sparse)
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
            a = greedy_naive(FacilityLocation(dense), 5)
            b = greedy_naive(FacilityLocation(sparse), 5)
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
            vd = greedy_naive(FacilityLocation(dense), 10).final_value
            vs = greedy_naive(FacilityLocation(sparse), 10).final_value
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
        assert np.array_equal(to_dense(kernel), rebuilt)
        assert (np.diff(kernel.col_ptr) == np.bincount(col_idx, minlength=8)).all()

    def test_a_symmetric_kernel_is_read_by_column(self):
        kernel = cosine_similarity(random_features(np.random.default_rng(15), 300, 8))
        assert kernel.symmetric and kernel.dense.flags.f_contiguous
        by_row = SimilarityKernel(n=300, dense=kernel.dense)  # not marked symmetric
        reference = reference_csc(kernel.dense, 25)
        for built in (sparsify_knn(kernel, 25), sparsify_knn(by_row, 25)):
            assert same_entries(built, reference)

    def test_only_a_kernel_marked_symmetric_is_read_by_column(self):
        dense = np.random.default_rng(16).uniform(size=(12, 12))  # not symmetric
        for symmetric, read in ((False, dense), (True, dense.T)):
            built = sparsify_knn(SimilarityKernel(n=12, dense=dense, symmetric=symmetric), 3)
            reference = reference_csc(read, 3)
            assert same_entries(built, reference)
        assert not same_bytes(reference_csc(dense, 3)[1], reference_csc(dense.T, 3)[1])

    def test_ties_and_minus_inf_never_keep_the_diagonal(self):
        # each diagonal entry is at least its row's best, and row 2 is -inf
        # throughout, so only the exclusion keeps the diagonal out
        dense = np.array([[1.0, -np.inf, -np.inf, -np.inf],
                          [0.5, 0.5, 0.5, 0.5],
                          [-np.inf, -np.inf, -np.inf, -np.inf],
                          [0.25, -np.inf, 0.25, 0.25]])
        for kappa in (1, 2, 3):
            built = sparsify_knn(SimilarityKernel(n=4, dense=dense), kappa)
            cols = np.repeat(np.arange(4), np.diff(built.col_ptr))
            assert not (built.rows == cols).any()
            reference = reference_csc(dense, kappa)
            assert same_entries(built, reference)


class TestBlockedBuildsMatchReference:
    @PROPERTY
    @given(ground_sets(), BLOCK_ELEMS)
    def test_cosine_rounds_the_reference(self, m, block_elems):
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            built = cosine_similarity(m).dense
        assert_rounds_the_reference(built, m)

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

    @PROPERTY
    @given(near_tie_features())
    def test_dense_finish_is_the_three_pass_finish(self, m):
        # scale, + 1, * 0.5, clip: the bytes the halved outer product must keep
        x = m.values.astype(np.float64)
        inv_norms = 1.0 / kernels.cosine_norms(x)
        three_pass = x @ x.T
        three_pass *= np.outer(inv_norms, inv_norms)
        three_pass += 1.0
        three_pass *= 0.5
        np.clip(three_pass, 0.0, 1.0, out=three_pass)
        assert same_bytes(kernels._shifted_cosine(x @ x.T, inv_norms, inv_norms), three_pass)

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
        assert len(kernels._gemm_blocks(600)) > 1
        assert_rounds_the_reference(cosine_similarity(m).dense, m)


class TestPeakMemory:
    @pytest.mark.parametrize("build", [cosine_similarity])
    def test_dense_build_peaks_near_one_n_by_n_array(self, build):
        n = 1000
        m = random_features(np.random.default_rng(14), n, 16)
        assert peak_bytes(lambda: build(m)) <= 1.5 * 4 * n * n


@pytest.mark.parametrize("build", [cosine_similarity])
def test_a_dense_build_that_cannot_be_allocated_is_a_capacity_error(build):
    m = random_features(np.random.default_rng(43), 100, 4)
    with no_room_for_dense_kernels():
        with pytest.raises(CapacityError, match=r"100 x 100 kernel needs 40,000 bytes"
                                                r".*--knn-sparsify"):
            build(m)


def test_row_selection_builds_subkernel():
    m = random_features(np.random.default_rng(10), 10, 4)
    rows = [7, 2, 5]
    sub = cosine_similarity(FeatureMatrix(m.values[rows]))
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


def max_abs_diff(a, b):
    return float(np.abs(a - b).max()) if a.size else 0.0


class TestStreamedTopKappa:
    """cosine_similarity(m, kappa=) against the top-kappa cut of the float64
    reference kernel: the same entries, values within a few ulp of 1 (the
    two products of a pair may round differently)."""

    @staticmethod
    def check(m, kappa, reference):
        streamed = cosine_similarity(m, kappa=kappa)
        col_ptr, rows, values = reference_csc(reference, kappa)
        assert streamed.n == m.n and streamed.is_sparse
        assert same_bytes(streamed.col_ptr, col_ptr)
        assert same_bytes(streamed.rows, rows)
        assert streamed.values.dtype == values.dtype
        assert max_abs_diff(streamed.values, values) <= 4 * np.finfo(float).eps

    @PROPERTY
    @given(ground_sets(), BLOCK_ELEMS)
    def test_keeps_the_entries_of_the_dense_cut_for_every_kappa(self, m, block_elems):
        reference = reference_cosine(m)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            for kappa in range(1, m.n):
                self.check(m, kappa, reference)

    def test_keeps_the_entries_of_the_dense_cut_at_benchmark_scale(self):
        m = random_features(np.random.default_rng(40), 2100, 64)
        assert len(kernels._gemm_blocks(2100)) > 1
        reference = reference_cosine(m)
        for kappa in (1, 25):
            self.check(m, kappa, reference)

    def test_kappa_out_of_range(self):
        m = random_features(np.random.default_rng(41), 5, 3)
        for kappa in (0, 5):
            with pytest.raises(ValidationError, match=r"kappa must be in \[1, 4\]"):
                cosine_similarity(m, kappa=kappa)

    def test_zero_norm_row_names_the_row(self):
        values = np.ones((5, 2))
        values[3] = 0.0
        with pytest.raises(ValidationError, match="all-zero row 1"):
            cosine_similarity(FeatureMatrix(values[[0, 3, 4]]), kappa=1)

    def test_peaks_far_below_one_n_by_n_array(self):
        n = 1000
        m = random_features(np.random.default_rng(42), n, 16)
        assert peak_bytes(lambda: cosine_similarity(m, kappa=10)) <= 0.25 * 8 * n * n

    @PROPERTY
    @given(near_tie_features(), BLOCK_ELEMS)
    # an exactly antipodal pair, cos = -1: its similarity is +0.0, not -0.0
    @example(FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])), kernels._BLOCK_ELEMS)
    def test_is_the_full_finish_byte_for_byte(self, m, block_elems):
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            for kappa in sorted({1, 2, m.n - 1} & set(range(1, m.n))):
                built = cosine_similarity(m, kappa=kappa)
                reference = full_finish_kappa(m, kappa)
                assert same_entries(built, reference)

    def test_is_the_full_finish_byte_for_byte_at_benchmark_scale(self):
        m = random_features(np.random.default_rng(44), 2100, 64)
        built = cosine_similarity(m, kappa=25)
        reference = full_finish_kappa(m, 25)
        assert same_entries(built, reference)

    @pytest.mark.parametrize("rows, row, screened_first, kept", [
        # every cosine is 1; the finish rounds columns 0 and 1 of row 2 to 1
        # or above, and the clip ties them, so the lower column is kept
        ([[1, 1], [3, 3], [5, 5]], 2, 1, 0),
        # columns 1 and 2 of row 0 have one cosine, which the finish rounds
        # to one value and the screen to two
        ([[1, 1], [5, 15], [6, 18]], 0, 2, 1),
    ])
    def test_keeps_a_near_tie_that_the_screen_orders_the_other_way(self, rows, row,
                                                                   screened_first, kept):
        m = FeatureMatrix(np.array(rows))
        x = m.values.astype(np.float64)
        sigma = (x @ x.T) * (1.0 / kernels.cosine_norms(x))
        # a screen without its margin would keep screened_first
        assert sigma[row, screened_first] > sigma[row, kept]
        built = cosine_similarity(m, kappa=1)
        assert row in built.rows[built.col_ptr[kept]:built.col_ptr[kept + 1]]
        reference = full_finish_kappa(m, 1)
        assert same_entries(built, reference)
