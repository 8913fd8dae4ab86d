import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    disparity_min_value,
    greedy_naive,
    random_distance_kernel,
    random_features,
    random_similarity_kernel,
    reference_euclidean,
    to_dense,
)
from subsel import kernels
from subsel.dataset import FeatureMatrix
from subsel.errors import ValidationError
from subsel.kernels import (
    SimilarityKernel,
    cosine_similarity,
    euclidean_distance,
    sparsify_knn,
)
from subsel.objectives import (
    INF,
    DisparityMin,
    FacilityLocation,
    facility_location_value,
)
from subsel.optimize import greedy_lazy


def scratch_fl(dense, selected):
    """Independent direct-formula oracle: sum_i max_{j in X} s_ij."""
    if not selected:
        return 0.0
    return float(sum(max(dense[i][j] for j in selected) for i in range(len(dense))))


def scratch_dm(dense, selected):
    """Independent oracle: min over distinct selected pairs."""
    if len(selected) <= 1:
        return INF
    return float(min(dense[i][j] for i in selected for j in selected if i < j))


class TestFacilityLocationEval:
    def test_empty_set_scores_zero(self, hand_similarity):
        assert facility_location_value(hand_similarity, []) == 0.0

    def test_hand_values(self, hand_similarity):
        s = hand_similarity.dense
        np.testing.assert_allclose(facility_location_value(hand_similarity, [1]),
                                   scratch_fl(s, [1]), atol=1e-12)
        assert abs(facility_location_value(hand_similarity, [1]) - 2.1) < 1e-9
        assert abs(facility_location_value(hand_similarity, [0, 2]) - 2.9) < 1e-9

    def test_out_of_range_rejected(self, hand_similarity):
        with pytest.raises(ValidationError):
            facility_location_value(hand_similarity, [3])


class TestFacilityLocationState:
    def test_gain_matches_eval_difference(self, hand_similarity):
        state = FacilityLocation(hand_similarity)
        state.add(1)
        assert abs(state.gain(2) - 0.8) < 1e-9
        assert abs(state.gain(0) - 0.1) < 1e-9

    def test_gain_at_empty_equals_singleton_value(self, hand_similarity):
        state = FacilityLocation(hand_similarity)
        for e in range(3):
            np.testing.assert_allclose(
                state.gain(e), facility_location_value(hand_similarity, [e]),
                rtol=0, atol=1e-12)

    def test_update_sequence_reaches_pair_value(self, hand_similarity):
        state = FacilityLocation(hand_similarity)
        state.add(1)
        state.add(2)
        assert abs(state.value - 2.9) < 1e-9

    def test_selecting_everything_sums_row_maxima(self, hand_similarity):
        state = FacilityLocation(hand_similarity)
        for e in range(3):
            state.add(e)
        assert abs(state.value - 3.0) < 1e-9  # all row maxima sit on the diagonal

    def test_incremental_matches_scratch_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            kernel = random_similarity_kernel(rng, n)
            state = FacilityLocation(kernel)
            order = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            prev_best = state.best.copy()
            for e in order:
                state.add(int(e))
                assert (state.best >= prev_best - 1e-15).all()
                prev_best = state.best.copy()
                expected = facility_location_value(kernel, state.selected)
                assert abs(state.value - expected) <= 1e-9

    def test_gains_never_negative(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            state = FacilityLocation(random_similarity_kernel(rng, n))
            for e in rng.permutation(n):
                assert state.gain(int(e)) >= 0.0
                state.add(int(e))
                if len(state.selected) == n:
                    break

    def test_gain_on_selected_element_rejected(self, hand_similarity):
        state = FacilityLocation(hand_similarity)
        state.add(0)
        with pytest.raises(ValidationError):
            state.gain(0)
        with pytest.raises(ValidationError):
            state.add(0)

    def test_submodularity_exhaustive_small(self):
        rng = np.random.default_rng(23)
        for _ in range(30)[:30]:
            n = int(rng.integers(2, 7))
            dense = random_similarity_kernel(rng, n).dense
            values = {}
            for mask in range(1 << n):
                sel = [i for i in range(n) if mask >> i & 1]
                values[mask] = scratch_fl(dense, sel)
            for b_mask in range(1 << n):
                a_mask = b_mask
                while True:
                    for x in range(n):
                        if b_mask >> x & 1:
                            continue
                        bit = 1 << x
                        gain_a = values[a_mask | bit] - values[a_mask]
                        gain_b = values[b_mask | bit] - values[b_mask]
                        assert gain_a >= gain_b - 1e-9
                    if a_mask == 0:
                        break
                    a_mask = (a_mask - 1) & b_mask


class TestSparseConsumers:
    def test_missing_entries_read_as_zero(self):
        rng = np.random.default_rng(24)
        dense_kernel = random_similarity_kernel(rng, 8)
        sparse = sparsify_knn(dense_kernel, 3)
        equivalent = SimilarityKernel(n=8, dense=to_dense(sparse))
        for _ in range(10):
            subset = rng.permutation(8)[:int(rng.integers(1, 5))].tolist()
            np.testing.assert_allclose(
                facility_location_value(sparse, subset),
                facility_location_value(equivalent, subset),
                rtol=0, atol=1e-12)

    def test_sparse_gains_match_consumer_dense(self):
        rng = np.random.default_rng(25)
        dense_kernel = random_similarity_kernel(rng, 9)
        sparse = sparsify_knn(dense_kernel, 4)
        equivalent = SimilarityKernel(n=9, dense=to_dense(sparse))
        a = FacilityLocation(sparse)
        b = FacilityLocation(equivalent)
        for e in (2, 7, 0):
            np.testing.assert_allclose(a.gain(e), b.gain(e), rtol=0, atol=1e-12)
            a.add(e)
            b.add(e)
            np.testing.assert_allclose(a.value, b.value, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                a.gains_all()[~a.selected_mask], b.gains_all()[~b.selected_mask],
                rtol=0, atol=1e-12)


def column_gain(dense, best, e):
    """The gain of e read down column e of the kernel, whole-array form."""
    return float(np.maximum(dense[:, e] - best, 0.0).sum())


def candidate_gains_all(dense, best):
    """All gains as one whole-array sum: the terms laid out one C-ordered
    row per candidate, each row summed on its own."""
    terms = np.ascontiguousarray(dense.T) - best
    return np.maximum(terms, 0.0).sum(axis=1)


def sequential_sparse_gain(kernel, best, e):
    """The gain of e over sparse column e, added term by term in entry order
    after the implicit unit diagonal: the loop gains_of vectorizes."""
    lo, hi = kernel.col_ptr[e], kernel.col_ptr[e + 1]
    g = max(0.0, 1.0 - float(best[e]))
    for t in np.maximum(kernel.values[lo:hi] - best[kernel.rows[lo:hi]], 0.0).tolist():
        g += t
    return g


def reference_gain(state, e):
    """e's gain computed without FacilityLocation: column_gain on a dense
    kernel, the sequential per-term loop on a sparse one."""
    if state.kernel.is_sparse:
        return sequential_sparse_gain(state.kernel, state.best, e)
    return column_gain(state.kernel.dense, state.best, e)


def reference_gains_all(state):
    """gains_all's reference: reference_gain per candidate, -1 where selected."""
    return np.array([-1.0 if state.selected_mask[e] else reference_gain(state, e)
                     for e in range(state.n)])


def asymmetric_kernels(rng, n):
    """A random non-symmetric dense kernel and a densified top-kappa one."""
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(raw, 1.0)
    while True:  # a small top-kappa kernel can be symmetric by chance
        topk = to_dense(sparsify_knn(random_similarity_kernel(rng, n), max(1, n // 3)))
        if not np.array_equal(topk, topk.T):
            break
    return [SimilarityKernel(n=n, dense=raw), SimilarityKernel(n=n, dense=topk)]


class TestDenseGainReads:
    """gain(e) reads column e of any dense kernel, whatever its layout or
    symmetry."""

    @pytest.mark.parametrize("kind", [0, 1])
    def test_gain_follows_columns_of_asymmetric_kernels(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            kernel = asymmetric_kernels(rng, n)[kind]
            assert not np.array_equal(kernel.dense, kernel.dense.T)
            state = FacilityLocation(kernel)
            for pick in rng.permutation(n)[:n // 2]:
                for e in np.flatnonzero(~state.selected_mask):
                    assert state.gain(int(e)) == column_gain(kernel.dense, state.best, e)
                best = np.maximum(state.best, kernel.dense[:, pick])
                state.add(int(pick))
                assert np.array_equal(state.best, best)

    @pytest.mark.parametrize("kind", [0, 1])
    def test_lazy_matches_naive_on_asymmetric_kernels(self, kind):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(3, 14))
            kernel = asymmetric_kernels(rng, n)[kind]
            b = int(rng.integers(1, n + 1))
            lazy = greedy_lazy(FacilityLocation(kernel), b)
            naive = greedy_naive(FacilityLocation(kernel), b)
            assert lazy.indices == naive.indices
            assert lazy.step_values == naive.step_values

    def test_symmetric_gain_is_byte_equal_to_the_column_read(self):
        rng = np.random.default_rng(31)
        kernel = random_similarity_kernel(rng, 40)
        state = FacilityLocation(kernel)
        for pick in (3, 17, 29):
            for e in np.flatnonzero(~state.selected_mask):
                assert state.gain(int(e)) == column_gain(kernel.dense, state.best, e)
            state.add(pick)

    def test_layout_changes_no_byte(self):
        # one cosine kernel read down contiguous columns (column-major, as
        # built) and down strided ones (a C-order copy): gains and the greedy
        # run agree, at 300 x 8 and at select's 2,100 x 64 with b = 210
        rng = np.random.default_rng(33)
        for n, d, b in ((300, 8, 30), (2100, 64, 210)):
            kernel = cosine_similarity(random_features(rng, n, d))
            c_order = SimilarityKernel(n=n, dense=np.ascontiguousarray(kernel.dense))
            assert kernel.dense.T.flags.c_contiguous and c_order.dense.flags.c_contiguous
            cols, strided = FacilityLocation(kernel), FacilityLocation(c_order)
            for pick in (7, n - 59, 2, n // 2):
                assert cols.gains_all().tobytes() == strided.gains_all().tobytes()
                free = np.flatnonzero(~cols.selected_mask)
                assert (np.array([cols.gain(int(e)) for e in free]).tobytes()
                        == np.array([strided.gain(int(e)) for e in free]).tobytes())
                cols.add(pick)
                strided.add(pick)
            by_column = greedy_lazy(FacilityLocation(kernel), b)
            by_strided = greedy_lazy(FacilityLocation(c_order), b)
            assert by_column.indices == by_strided.indices
            assert by_column.step_values == by_strided.step_values
            assert by_column.final_value == by_strided.final_value


class TestDenseGainsAll:
    """Dense gains_all equals column_gain per candidate, byte for byte."""

    @pytest.mark.parametrize("n", [7, 300, 2100])
    def test_byte_equal_to_the_whole_matrix_sum(self, n):
        # entries spread over 16 orders of magnitude make any change in
        # summation order visible in the last bits
        rng = np.random.default_rng(n)
        raw = 10.0 ** rng.uniform(-16.0, 0.0, size=(n, n))
        upper = np.triu(raw, 1)
        symmetric = upper + upper.T + np.diag(np.diag(raw))
        topk = to_dense(sparsify_knn(SimilarityKernel(n=n, dense=symmetric),
                                     max(1, n // 3)))
        best = 10.0 ** rng.uniform(-16.0, 0.0, size=n)
        for dense in (raw, symmetric, topk):
            state = FacilityLocation(SimilarityKernel(n=n, dense=dense))
            state.best = best.copy()
            gains = state.gains_all()
            assert gains.tobytes() == reference_gains_all(state).tobytes()
            assert gains.tobytes() == candidate_gains_all(dense, best).tobytes()

    @pytest.mark.parametrize("block_elems", [1, 7, 40])
    def test_byte_equal_with_small_row_blocks(self, block_elems):
        rng = np.random.default_rng(32)
        cases = [random_similarity_kernel(rng, 23)] + asymmetric_kernels(rng, 23)
        for kernel in cases:
            state = FacilityLocation(kernel)
            for pick in (4, 11):
                state.add(pick)
            expected = reference_gains_all(state)
            with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
                assert state.gains_all().tobytes() == expected.tobytes()

    def test_empty_ground_set_gives_no_gains(self):
        state = FacilityLocation(SimilarityKernel(n=0, dense=np.zeros((0, 0))))
        assert state.gains_all().shape == (0,)

    def test_peak_memory_stays_far_below_one_n_by_n_array(self):
        n = 1000
        state = FacilityLocation(random_similarity_kernel(np.random.default_rng(33), n))
        state.add(0)
        tracemalloc.start()
        try:
            state.gains_all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n


class TestSparseGainsAll:
    """Sparse gains_all equals the sequential per-term sum of each candidate,
    byte for byte."""

    @pytest.mark.parametrize("n", [7, 300, 2100])
    def test_byte_equal_to_gain_calls(self, n):
        # entries spread over 16 orders of magnitude make any change in
        # summation order visible in the last bits
        rng = np.random.default_rng(n)
        raw = 10.0 ** rng.uniform(-16.0, 0.0, size=(n, n))
        upper = np.triu(raw, 1)
        kappa = max(1, min(n // 3, 60))
        for dense in (raw, upper + upper.T):
            state = FacilityLocation(sparsify_knn(SimilarityKernel(n=n, dense=dense), kappa))
            state.best = 10.0 ** rng.uniform(-16.0, 0.0, size=n)
            for pick in (None, 2, 5):
                if pick is not None:
                    state.add(pick)
                assert state.gains_all().tobytes() == reference_gains_all(state).tobytes()


def wide_range_states(rng, n):
    """FacilityLocation states on a column-major symmetric kernel (read
    down contiguous columns), a C-order asymmetric one (strided columns)
    and a kappa-sparse kernel, entries and per-element maxima spread over
    16 orders of magnitude so that a change in summation order shows in
    the last bits, each with a few elements selected."""
    raw = 10.0 ** rng.uniform(-16.0, 0.0, size=(n, n))
    upper = np.triu(raw, 1)
    symmetric = upper + upper.T + np.diag(np.diag(raw))
    states = [FacilityLocation(SimilarityKernel(n=n, dense=np.asfortranarray(symmetric))),
              FacilityLocation(SimilarityKernel(n=n, dense=raw)),
              FacilityLocation(sparsify_knn(SimilarityKernel(n=n, dense=raw),
                                            max(1, n // 4)))]
    for state in states:
        state.best = 10.0 ** rng.uniform(-16.0, 0.0, size=n)
        for pick in rng.permutation(n)[:min(3, n - 1)]:
            state.add(int(pick))
    return states


class TestGainsOf:
    """gains_of, the one candidate-gain expression, against references that
    share none of its code: column_gain on dense kernels and the sequential
    per-term loop on sparse ones, byte for byte, in idx's order."""

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_byte_equal_to_the_references(self, n):
        rng = np.random.default_rng(34 + n)
        for state in wide_range_states(rng, n):
            perm = rng.permutation(n)
            forms = [perm, perm[::-2], perm[:1], [int(perm[-1])], slice(0, n),
                     slice(n // 3, n // 3 + 1), slice(n // 2, n)]
            for idx in forms:
                expected = [reference_gain(state, int(e)) for e in np.arange(n)[idx]]
                assert (state.gains_of(idx).tobytes()
                        == np.array(expected, dtype=np.float64).tobytes())

    def test_dense_gains_follow_an_unsorted_non_contiguous_index_array(self):
        rng = np.random.default_rng(35)
        kernel = random_similarity_kernel(rng, 50)
        state = FacilityLocation(kernel)
        state.add(12)
        idx = rng.permutation(50)[::3]
        assert not idx.flags.c_contiguous and np.any(np.diff(idx) < 0)
        gains = state.gains_of(idx)
        assert gains.shape == idx.shape
        for t, e in enumerate(idx):
            assert gains[t] == column_gain(kernel.dense, state.best, e)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_kappa_n_minus_one_sparse_gains_match_dense(n, seed):
    rng = np.random.default_rng(seed)
    dense_kernel = random_similarity_kernel(rng, n)
    dense = FacilityLocation(dense_kernel)
    sparse = FacilityLocation(sparsify_knn(dense_kernel, n - 1))
    for pick in rng.permutation(n):
        np.testing.assert_allclose(sparse.gains_all(), dense.gains_all(),
                                   rtol=0, atol=1e-12)
        for e in np.flatnonzero(~dense.selected_mask):
            np.testing.assert_allclose(sparse.gain(int(e)), dense.gain(int(e)),
                                       rtol=0, atol=1e-12)
        sparse.add(int(pick))
        dense.add(int(pick))
        np.testing.assert_allclose(sparse.value, dense.value, rtol=0, atol=1e-12)


class TestGainsAllSentinel:
    @pytest.mark.parametrize("kappa", [None, 3])
    def test_selected_slots_read_minus_one_for_fl(self, kappa):
        kernel = random_similarity_kernel(np.random.default_rng(28), 8)
        if kappa is not None:
            kernel = sparsify_knn(kernel, kappa)
        state = FacilityLocation(kernel)
        for e in (5, 1):
            state.add(e)
        gains = state.gains_all()
        assert gains[5] == -1.0 and gains[1] == -1.0
        assert (gains[~state.selected_mask] >= 0.0).all()

    def test_selected_slots_read_minus_one_for_dm(self, line_distance):
        state = DisparityMin(line_distance)
        state.add(2)
        gains = state.gains_all()
        assert gains[2] == -1.0
        assert (gains[[0, 1]] >= 0.0).all()


class TestDisparityMin:
    def test_eval_examples(self, line_distance):
        assert disparity_min_value(line_distance, [0, 2]) == 10.0
        assert disparity_min_value(line_distance, [0, 1, 2]) == 1.0
        assert disparity_min_value(line_distance, [1]) == INF
        assert disparity_min_value(line_distance, []) == INF

    def test_gain_examples(self, line_distance):
        state = DisparityMin(line_distance)
        assert state.gain(1) == INF  # empty selection
        state.add(0)
        assert state.gain(2) == 100.0  # squared distances
        state.add(2)
        assert state.gain(1) == 1.0

    def test_value_non_increasing(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            state = DisparityMin(random_distance_kernel(rng, n))
            prev = INF
            for e in rng.permutation(n):
                state.add(int(e))
                assert state.value <= prev
                prev = state.value

    def test_incremental_matches_scratch(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            m = random_features(rng, n, 3)
            pts = m.values.astype(np.float64)
            dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
            state = DisparityMin(euclidean_distance(m))
            for e in rng.permutation(n)[:int(rng.integers(1, n + 1))]:
                state.add(int(e))
                expected = scratch_dm(dist, state.selected)
                if math.isinf(expected):
                    assert math.isinf(state.value)
                else:
                    assert abs(state.value - expected) <= 1e-9
                # mindist agrees with a direct minimum of squares over the selection
                left = ~state.selected_mask
                direct = (dist[:, state.selected] ** 2).min(axis=1)
                np.testing.assert_allclose(state.mindist[left], direct[left],
                                           rtol=0, atol=1e-12)

    def test_selected_element_rejected(self, line_distance):
        state = DisparityMin(line_distance)
        state.add(2)
        with pytest.raises(ValidationError):
            state.gain(2)


class TestFeatureBackedDisparityMin:
    def test_tracks_squared_distances_of_the_dense_state(self):
        # the dense state: distances to the selection over the whole-matrix
        # reference, which the feature-backed state holds squared
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            m = random_features(rng, n, 3)
            dist = reference_euclidean(m)
            kernel = euclidean_distance(m)
            feat = DisparityMin(kernel)
            for e in rng.permutation(n)[:int(rng.integers(1, n + 1))]:
                feat.add(int(e))
                expected = scratch_dm(dist, feat.selected)
                assert math.isclose(feat.value, expected, rel_tol=1e-12)
                assert math.isclose(feat.value, disparity_min_value(kernel, feat.selected),
                                    rel_tol=1e-12)
                gains = feat.gains_all()
                assert not gains.flags.writeable
                assert (gains[feat.selected_mask] == -1.0).all()
                left = ~feat.selected_mask
                np.testing.assert_allclose(gains[left],
                                           dist[left][:, feat.selected].min(axis=1) ** 2,
                                           rtol=1e-12, atol=1e-12)
                for i in np.flatnonzero(left)[:2]:
                    assert feat.gain(int(i)) == gains[i]

    def test_two_copies_of_a_row_are_at_distance_zero(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            v = rng.standard_normal((2, int(rng.integers(2, 65))))
            kernel = euclidean_distance(FeatureMatrix(v[[0, 1, 0]]))
            assert disparity_min_value(kernel, [0, 2]) == 0.0
            assert disparity_min_value(kernel, [0, 1, 2]) == 0.0

    def test_scratch_value_of_a_pair_is_its_distance(self):
        m = FeatureMatrix(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]))
        kernel = euclidean_distance(m)
        assert disparity_min_value(kernel, [0, 2]) == 10.0
        assert disparity_min_value(kernel, [0, 1, 2]) == 5.0
        assert disparity_min_value(kernel, [1]) == INF
