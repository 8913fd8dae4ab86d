import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distance_kernel, random_similarity_kernel
from subsel import kernels
from subsel.errors import ValidationError
from subsel.kernels import SimilarityKernel, sparsify_knn
from subsel.objectives import (
    INF,
    DisparityMin,
    FacilityLocation,
    disparity_min_value,
    facility_location_value,
)
from subsel.optimize import BudgetSpec, greedy_lazy, greedy_naive


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
        equivalent = SimilarityKernel(n=8, dense=sparse.to_dense())
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
        equivalent = SimilarityKernel(n=9, dense=sparse.to_dense())
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


def gains_by_gain(state):
    """gains_all's reference: one gain(e) call per candidate, -1 where selected."""
    return np.array([-1.0 if state.selected_mask[e] else state.gain(e)
                     for e in range(state.n)])


def asymmetric_kernels(rng, n):
    """A random non-symmetric dense kernel and a densified top-kappa one."""
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(raw, 1.0)
    while True:  # a small top-kappa kernel can be symmetric by chance
        topk = sparsify_knn(random_similarity_kernel(rng, n), max(1, n // 3)).to_dense()
        if not np.array_equal(topk, topk.T):
            break
    return [SimilarityKernel(n=n, dense=raw), SimilarityKernel(n=n, dense=topk)]


class TestDenseGainReads:
    """gain(e) reads row e only when the kernel is exactly symmetric."""

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
            lazy = greedy_lazy(FacilityLocation(kernel), BudgetSpec(b))
            naive = greedy_naive(FacilityLocation(kernel), BudgetSpec(b))
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


class TestDenseGainsAll:
    """Dense gains_all equals one gain(e) call per candidate, byte for byte."""

    @pytest.mark.parametrize("n", [7, 300, 2100])
    def test_byte_equal_to_the_whole_matrix_sum(self, n):
        # entries spread over 16 orders of magnitude make any change in
        # summation order visible in the last bits
        rng = np.random.default_rng(n)
        raw = 10.0 ** rng.uniform(-16.0, 0.0, size=(n, n))
        upper = np.triu(raw, 1)
        symmetric = upper + upper.T + np.diag(np.diag(raw))
        topk = sparsify_knn(SimilarityKernel(n=n, dense=symmetric),
                            max(1, n // 3)).to_dense()
        best = 10.0 ** rng.uniform(-16.0, 0.0, size=n)
        for dense in (raw, symmetric, topk):
            state = FacilityLocation(SimilarityKernel(n=n, dense=dense))
            state.best = best.copy()
            gains = state.gains_all()
            assert gains.tobytes() == gains_by_gain(state).tobytes()
            assert gains.tobytes() == candidate_gains_all(dense, best).tobytes()

    @pytest.mark.parametrize("block_elems", [1, 7, 40])
    def test_byte_equal_with_small_row_blocks(self, block_elems):
        rng = np.random.default_rng(32)
        cases = [random_similarity_kernel(rng, 23)] + asymmetric_kernels(rng, 23)
        for kernel in cases:
            state = FacilityLocation(kernel)
            for pick in (4, 11):
                state.add(pick)
            expected = gains_by_gain(state)
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
        assert state.gain(2) == 10.0
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
            kernel = random_distance_kernel(rng, n)
            state = DisparityMin(kernel)
            for e in rng.permutation(n)[:int(rng.integers(1, n + 1))]:
                state.add(int(e))
                expected = scratch_dm(kernel.dense, state.selected)
                if math.isinf(expected):
                    assert math.isinf(state.value)
                else:
                    assert abs(state.value - expected) <= 1e-9
                # mindist agrees with a direct minimum over the selection
                direct = kernel.dense[:, state.selected].min(axis=1)
                np.testing.assert_allclose(state.mindist, direct, rtol=0, atol=1e-12)

    def test_selected_element_rejected(self, line_distance):
        state = DisparityMin(line_distance)
        state.add(2)
        with pytest.raises(ValidationError):
            state.gain(2)
