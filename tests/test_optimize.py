import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force,
    distances_among,
    greedy_naive,
    peak_bytes,
    random_distance_kernel,
    random_features,
    random_similarity_kernel,
    reference_euclidean,
    reference_farthest_point,
)
from subsel import kernels
from subsel.dataset import FeatureMatrix
from subsel.errors import UnsupportedObjectiveError, ValidationError
from subsel.kernels import (
    SimilarityKernel,
    cosine_similarity,
    euclidean_distance,
    sparsify_knn,
)
from subsel.objectives import DisparityMin, FacilityLocation, facility_location_value
from subsel.optimize import farthest_point, greedy_lazy, select_subset


class TestNaiveGreedy:
    def test_budget_one_picks_best_singleton(self, hand_similarity):
        sel = greedy_naive(FacilityLocation(hand_similarity), 1)
        assert sel.indices == [1]
        assert abs(sel.final_value - 2.1) < 1e-9

    def test_budget_two(self, hand_similarity):
        sel = greedy_naive(FacilityLocation(hand_similarity), 2)
        assert sel.indices == [1, 2]
        assert abs(sel.final_value - 2.9) < 1e-9

    def test_gain_evals_count_every_scanned_candidate(self, hand_similarity):
        sel = greedy_naive(FacilityLocation(hand_similarity), 2)
        assert sel.gain_evals == 3 + 2

    def test_full_budget_reaches_ground_set_value(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            kernel = random_similarity_kernel(rng, n)
            sel = greedy_naive(FacilityLocation(kernel), n)
            full = facility_location_value(kernel, list(range(n)))
            assert abs(sel.final_value - full) < 1e-9

    def test_zero_gain_elements_are_not_added(self):
        # duplicate columns: after both distinct points are in, gains are 0
        dense = np.array([[1.0, 1.0, 0.2],
                          [1.0, 1.0, 0.2],
                          [0.2, 0.2, 1.0]])
        from subsel.kernels import SimilarityKernel

        sel = greedy_naive(FacilityLocation(SimilarityKernel(n=3, dense=dense)), 3)
        assert sel.indices == [0, 2]  # element 1 has zero gain and stays out

    def test_step_values_non_decreasing(self):
        rng = np.random.default_rng(32)
        kernel = random_similarity_kernel(rng, 15)
        sel = greedy_naive(FacilityLocation(kernel), 8)
        assert all(b >= a for a, b in zip(sel.step_values, sel.step_values[1:]))

    def test_budget_above_ground_set_rejected(self, hand_similarity):
        with pytest.raises(ValidationError):
            greedy_naive(FacilityLocation(hand_similarity), 4)


@pytest.mark.parametrize("b", [0, 4])
def test_every_optimizer_rejects_budgets_outside_one_to_n(hand_similarity, line_distance, b):
    message = "budget must be >= 1, got 0" if b == 0 else "budget 4 exceeds ground-set size 3"
    features = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    calls = [lambda: greedy_naive(FacilityLocation(hand_similarity), b),
             lambda: greedy_lazy(FacilityLocation(hand_similarity), b),
             lambda: farthest_point(DisparityMin(line_distance), b),
             lambda: brute_force(FacilityLocation(hand_similarity), b),
             lambda: select_subset(features, "fl", b),
             lambda: select_subset(features, "dm", b)]
    for call in calls:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


@st.composite
def tie_dense_kernels(draw):
    """Symmetric kernels over a 3-value alphabet, unit diagonal, dense or
    kept to the top kappa per row, and a budget: many equal gains, whose
    sums differ in the last bits if two code paths add the same terms in
    different orders."""
    n = draw(st.integers(9, 120))  # stale runs span several refresh blocks
    alphabet = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9]),
                             min_size=3, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.choice(alphabet, size=(n, n)), 1)
    dense = upper + upper.T
    np.fill_diagonal(dense, 1.0)
    kernel = SimilarityKernel(n=n, dense=dense)
    kappa = draw(st.none() | st.integers(1, n - 1))
    if kappa is not None:
        kernel = sparsify_knn(kernel, kappa)
    return kernel, draw(st.integers(1, n))


@st.composite
def tie_dense_streamed_kernels(draw):
    """kappa-sparse kernels streamed from features over {-1, 1, 2}: repeated
    rows and equal cosines, so many equal gains; and a budget."""
    n, d = draw(st.integers(9, 120)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = FeatureMatrix(rng.choice([-1.0, 1.0, 2.0], size=(n, d)))
    kernel = cosine_similarity(m, kappa=draw(st.integers(1, n - 1)))
    return kernel, draw(st.integers(1, n))


class TestLazyGreedy:
    def test_matches_naive_on_the_hand_kernel(self, hand_similarity):
        sel = greedy_lazy(FacilityLocation(hand_similarity), 2)
        assert sel.indices == [1, 2]

    def test_equivalent_to_naive_on_100_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 61))
            b = int(rng.integers(1, min(10, n) + 1))
            kernel = random_similarity_kernel(rng, n)
            naive = greedy_naive(FacilityLocation(kernel), b)
            lazy = greedy_lazy(FacilityLocation(kernel), b)
            assert lazy.indices == naive.indices
            assert lazy.step_values == naive.step_values
            assert lazy.gain_evals <= naive.gain_evals

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tie_dense_kernels())
    def test_equivalent_to_naive_on_tie_dense_kernels(self, case):
        kernel, b = case
        naive = greedy_naive(FacilityLocation(kernel), b)
        lazy = greedy_lazy(FacilityLocation(kernel), b)
        assert lazy.indices == naive.indices
        assert lazy.step_values == naive.step_values
        assert lazy.gain_evals <= naive.gain_evals

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tie_dense_streamed_kernels())
    def test_equivalent_to_naive_on_streamed_kernels(self, case):
        kernel, b = case
        naive = greedy_naive(FacilityLocation(kernel), b)
        lazy = greedy_lazy(FacilityLocation(kernel), b)
        assert lazy.indices == naive.indices
        assert lazy.step_values == naive.step_values
        assert lazy.gain_evals <= naive.gain_evals

    def test_rejects_non_submodular_objective(self, line_distance):
        with pytest.raises(UnsupportedObjectiveError):
            greedy_lazy(DisparityMin(line_distance), 2)


class TestFarthestPoint:
    def test_seeds_with_the_max_distance_pair(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), 2)
        assert sel.indices == [0, 2]
        assert sel.final_value == 10.0

    def test_budget_three_is_forced(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), 3)
        assert sel.indices == [0, 2, 1]
        assert sel.final_value == 1.0

    def test_gain_evals_count_the_pair_seed_and_each_scan(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), 3)
        assert sel.gain_evals == 3 + 1  # all 3 pairs, then 1 candidate left

    def test_budget_one_returns_lowest_index_singleton(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), 1)
        assert sel.indices == [0]
        assert math.isinf(sel.final_value)

    def test_pair_tie_breaks_lexicographically(self):
        # pairs (0,1) and (0,2) tie at 10; 1 and 2 are copies
        m = FeatureMatrix(np.array([[0.0], [10.0], [10.0]]))
        sel = farthest_point(DisparityMin(euclidean_distance(m)), 2)
        assert sel.indices == [0, 1]

    @pytest.mark.parametrize("block_elems", [1, 7, 40, kernels._BLOCK_ELEMS])
    def test_pair_seed_matches_the_whole_matrix_argmax(self, block_elems):
        # the lexicographically smallest maximum pair, as the row-major
        # first maximum of the strict upper triangle
        rng = np.random.default_rng(35)
        cases = []
        for n in (2, 3, 9, 31, 300):
            cases.append(random_features(rng, n, 3))
            # integer lattice points: exact distances, many equal maxima, copies
            cases.append(FeatureMatrix(rng.integers(-2, 3, size=(n, 2))))
            cases.append(FeatureMatrix(np.eye(n)))  # every pair ties at squared 2
            cases.append(FeatureMatrix(np.ones((n, 3))))  # n copies: seeds (0, 1)
        # a benchmark-sized kernel over many row blocks
        cases.append(random_features(rng, 2100, 8))
        for m in cases:
            flat = int(np.argmax(np.where(np.tri(m.n, dtype=bool), -1.0,
                                          reference_euclidean(m))))
            with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
                sel = farthest_point(DisparityMin(euclidean_distance(m)), 2)
            assert sel.indices == list(divmod(flat, m.n))

    def test_half_approximation_against_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            b = int(rng.integers(2, min(4, n) + 1))
            kernel = random_distance_kernel(rng, n)
            greedy = farthest_point(DisparityMin(kernel), b)
            exact = brute_force(DisparityMin(kernel), b)
            assert greedy.final_value >= 0.5 * exact.final_value - 1e-12

    def test_rejects_facility_location(self, hand_similarity):
        with pytest.raises(UnsupportedObjectiveError):
            farthest_point(FacilityLocation(hand_similarity), 2)


class TestFeatureBackedFarthestPoint:
    @staticmethod
    def both(m, b):
        """reference_farthest_point over the dense reference matrix, and the
        feature-backed farthest point."""
        feat = farthest_point(DisparityMin(euclidean_distance(m)), b)
        return reference_farthest_point(reference_euclidean(m), b), feat

    def test_picks_the_dense_indices_on_the_test_corpus(self):
        # distinct points: with exact copies the reference matrix holds a
        # rounding-noise distance between them, where the kernel holds 0
        rng = np.random.default_rng(44)
        for _ in range(150):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 9))
            m = random_features(rng, n, d)
            if not rng.integers(2):
                m = FeatureMatrix(m.values[rng.permutation(n)[:int(rng.integers(2, n + 1))]])
            for b in {1, 2, int(rng.integers(1, m.n + 1)), m.n}:
                (indices, steps), feat = self.both(m, b)
                assert feat.indices == indices
                np.testing.assert_allclose(feat.step_values, steps, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block_elems", [40, kernels._BLOCK_ELEMS])
    def test_picks_the_dense_indices_at_benchmark_scale(self, block_elems):
        m = random_features(np.random.default_rng(45), 2100, 64)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            assert len(kernels._gemm_blocks(2100)) > 1
            (indices, steps), feat = self.both(m, 210)
        assert feat.indices == indices
        np.testing.assert_allclose(feat.step_values, steps, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block_elems", [1, 7, 40, kernels._BLOCK_ELEMS])
    def test_max_pair_ties_go_to_the_lowest_pair_on_collinear_points(self, block_elems):
        # points t * (3, 4): every distance is exactly 5 |t_i - t_j|
        t = np.array([1, -2, 3, -2, 3, 0, 1, 3, -2])
        m = FeatureMatrix(t[:, None] * np.array([3.0, 4.0]))
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            sel = farthest_point(DisparityMin(euclidean_distance(m)), 2)
        assert sel.indices == [1, 2]  # the pairs of -2 and 3 tie at 25
        assert sel.step_values == [math.inf, 25.0]

    def test_max_pair_is_the_scans_exact_argmax_above_the_diagonal(self):
        rng = np.random.default_rng(46)
        for n in (2, 3, 31, 300):
            kernel = euclidean_distance(random_features(rng, n, 4))
            d2 = kernel.x @ kernel.x.T
            d2 *= -2.0
            d2 += np.add.outer(kernel.sq, kernel.sq)
            d2[np.tri(n, dtype=bool)] = -np.inf
            assert kernel.max_pair() == divmod(int(np.argmax(d2)), n)

    @pytest.mark.parametrize("block_elems", [1, 40, kernels._BLOCK_ELEMS])
    def test_max_pair_stays_above_the_diagonal_when_a_pairs_products_differ(
            self, block_elems):
        # a BLAS may round x_i . x_j and x_j . x_i differently; here every
        # tile's j <= i entries are raised by an ulp, so an unmasked argmax
        # would return the max pair as (j, i) or a point paired with itself
        squared_distances = kernels._squared_distances

        def lower_copies_one_ulp_up(xa, sqa, xb2, sqb):
            d2 = squared_distances(xa, sqa, xb2, sqb)
            lower = np.tri(*d2.shape, dtype=bool)
            d2[lower] = np.nextafter(d2[lower], np.inf)
            return d2

        rng = np.random.default_rng(50)
        for n in (2, 3, 9, 31, 300):
            kernel = euclidean_distance(random_features(rng, n, 4))
            with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
                expected = kernel.max_pair()
                with mock.patch.object(kernels, "_squared_distances",
                                       lower_copies_one_ulp_up):
                    assert kernel.max_pair() == expected
            assert expected[0] < expected[1]

    def test_copies_of_a_max_pair_in_either_order_tie(self):
        # rows P, R, Q, P: the pairs (0, 2) and (2, 3) are both {P, Q}, the
        # second with its points the other way round; summing
        # |x_i|^2 + |x_j|^2 - 2 x_i . x_j in one dot product would rank
        # (2, 3) an ulp higher here
        p, q = np.array([0.38, -2.61, 0.25]), np.array([-0.06, 0.08, -1.08])
        m = FeatureMatrix(np.stack((p, 0.5 * (p + q), q, p)))
        sel = farthest_point(DisparityMin(euclidean_distance(m)), 2)
        assert sel.indices == [0, 2]

    def test_never_selects_two_copies_of_a_row(self):
        # products leave two copies of a row a rounding-noise squared
        # distance of either sign; the kernel reads exactly 0 between them
        rng = np.random.default_rng(52)
        for _ in range(200):
            n, d = int(rng.integers(2, 24)), int(rng.integers(2, 17))
            base = rng.standard_normal((int(rng.integers(1, n + 1)), d))
            m = FeatureMatrix(base[rng.integers(base.shape[0], size=n)])
            kernel = euclidean_distance(m)
            copies = (m.values[:, None] == m.values[None]).all(axis=2)
            distinct = np.unique(m.values, axis=0).shape[0]
            assert (distances_among(kernel, np.arange(n))[copies] == 0.0).all()  # diagonal too
            for b in range(1, n + 1):
                sel = farthest_point(DisparityMin(kernel), b)
                if distinct == 1 and b > 1:
                    assert sel.indices == [0, 1] and sel.final_value == 0.0
                    continue
                assert copies[np.ix_(sel.indices, sel.indices)].sum() == len(sel.indices)
                # it stops once only copies of selected rows remain
                assert len(sel.indices) == min(b, distinct)
                assert sel.final_value > 0.0 or b == 1

    def test_max_pair_never_pairs_two_copies_of_a_row(self):
        # copies of a row a and of b, one ulp from a in one coordinate, at a
        # large norm: the noise between two copies can exceed |a - b|^2
        rng = np.random.default_rng(53)
        for _ in range(200):
            n, d = int(rng.integers(2, 40)), int(rng.integers(2, 65))
            a = (1e4 * rng.standard_normal(d)).astype(np.float32)
            b = a.copy()
            b[0] = np.nextafter(a[0], np.float32(np.inf))
            m = FeatureMatrix(np.stack((a, b))[rng.permutation(np.arange(n) % 2)])
            i, j = euclidean_distance(m).max_pair()
            assert i < j and (m.values[i] != m.values[j]).any()

    def test_budget_one_returns_the_lowest_index_singleton(self):
        m = random_features(np.random.default_rng(47), 6, 3)
        sel = farthest_point(DisparityMin(euclidean_distance(m)), 1)
        assert sel.indices == [0] and math.isinf(sel.final_value)

    def test_half_approximation_against_brute_force(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            b = int(rng.integers(2, min(4, n) + 1))
            kernel = euclidean_distance(random_features(rng, n, 3))
            greedy = farthest_point(DisparityMin(kernel), b)
            exact = brute_force(DisparityMin(kernel), b)
            assert greedy.final_value >= 0.5 * exact.final_value - 1e-12

    def test_memory_stays_far_below_one_n_by_n_array(self):
        n = 1000
        m = random_features(np.random.default_rng(49), n, 16)
        state = DisparityMin(euclidean_distance(m))
        assert peak_bytes(lambda: farthest_point(state, 100)) <= 0.25 * 8 * n * n


class TestBruteForce:
    def test_hand_kernel_prefers_lexicographically_smallest(self, hand_similarity):
        sel = brute_force(FacilityLocation(hand_similarity), 2)
        assert sel.indices == [0, 2]  # ties {0,2} and {1,2} at 2.9
        assert abs(sel.final_value - 2.9) < 1e-9

    def test_line_points(self, line_distance):
        sel = brute_force(DisparityMin(line_distance), 2)
        assert sel.indices == [0, 2]
        assert sel.final_value == 10.0

    def test_full_budget_returns_whole_ground_set(self, hand_similarity):
        sel = brute_force(FacilityLocation(hand_similarity), 3)
        assert sel.indices == [0, 1, 2]


class TestGuarantees:
    def test_greedy_respects_the_submodular_bound(self):
        bound = 1.0 - 1.0 / math.e
        rng = np.random.default_rng(36)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            b = int(rng.integers(1, min(4, n) + 1))
            kernel = random_similarity_kernel(rng, n)
            greedy = greedy_naive(FacilityLocation(kernel), b)
            exact = brute_force(FacilityLocation(kernel), b)
            assert greedy.final_value >= bound * exact.final_value - 1e-12

    def test_selections_are_deterministic(self, hand_similarity):
        a = greedy_naive(FacilityLocation(hand_similarity), 2)
        b = greedy_naive(FacilityLocation(hand_similarity), 2)
        assert a.indices == b.indices and a.step_values == b.step_values

    def test_selections_respect_budget_and_distinctness(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            b = int(rng.integers(1, n + 1))
            sel = greedy_naive(FacilityLocation(random_similarity_kernel(rng, n)), b)
            assert len(sel.indices) <= b
            assert len(set(sel.indices)) == len(sel.indices)

    def test_fresh_state_required(self, hand_similarity):
        obj = FacilityLocation(hand_similarity)
        obj.add(0)
        with pytest.raises(ValidationError):
            greedy_naive(obj, 2)


class TestSelectSubset:
    @pytest.mark.parametrize("rows", [None, [3, 17, 0, 29, 8, 11, 22, 5, 14, 26]])
    @pytest.mark.parametrize("objective,kappa", [("fl", None), ("fl", 4), ("dm", None)])
    def test_route_matches_the_direct_composition(self, objective, kappa, rows):
        features = random_features(np.random.default_rng(38), 30, 5)
        if rows is not None:
            features = FeatureMatrix(features.values[rows])
        if objective == "fl":
            kernel = cosine_similarity(features)
            if kappa is not None:
                kernel = sparsify_knn(kernel, kappa)
            direct = greedy_lazy(FacilityLocation(kernel), 6)
        else:
            direct = farthest_point(DisparityMin(euclidean_distance(features)), 6)
        routed = select_subset(features, objective, 6, kappa=kappa)
        assert routed.indices == direct.indices
        assert routed.step_values == direct.step_values

    @pytest.mark.parametrize("objective,kappa,message", [
        ("dm", 3, "--knn-sparsify applies only to the fl objective"),
        ("us", None, "unknown objective 'us'"),
    ])
    def test_route_rejects(self, objective, kappa, message):
        features = random_features(np.random.default_rng(39), 10, 3)
        with pytest.raises(ValidationError, match=message):
            select_subset(features, objective, 3, kappa=kappa)

    @pytest.mark.parametrize("budget", [0, 11])
    @pytest.mark.parametrize("objective,kappa", [("fl", None), ("fl", 2), ("dm", None)])
    def test_budget_outside_one_to_n_rejected_before_any_kernel(self, monkeypatch, objective,
                                                                kappa, budget):
        def no_build(*args, **kwargs):
            pytest.fail("a kernel was built for a budget outside [1, n]")

        monkeypatch.setattr("subsel.optimize.cosine_similarity", no_build)
        monkeypatch.setattr("subsel.optimize.euclidean_distance", no_build)
        features = random_features(np.random.default_rng(40), 10, 3)
        with pytest.raises(ValidationError, match="^budget "):
            select_subset(features, objective, budget, kappa=kappa)
