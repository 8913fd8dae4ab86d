import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distance_kernel, random_features, random_similarity_kernel
from subsel import kernels, optimize
from subsel.errors import CapacityError, UnsupportedObjectiveError, ValidationError
from subsel.kernels import (
    DistanceKernel,
    SimilarityKernel,
    cosine_similarity,
    euclidean_distance,
    sparsify_knn,
)
from subsel.objectives import DisparityMin, FacilityLocation
from subsel.optimize import (
    BudgetSpec,
    brute_force,
    farthest_point,
    greedy_lazy,
    greedy_naive,
    select_subset,
)


class TestNaiveGreedy:
    def test_budget_one_picks_best_singleton(self, hand_similarity):
        sel = greedy_naive(FacilityLocation(hand_similarity), BudgetSpec(1))
        assert sel.indices == [1]
        assert abs(sel.final_value - 2.1) < 1e-9

    def test_budget_two(self, hand_similarity):
        sel = greedy_naive(FacilityLocation(hand_similarity), BudgetSpec(2))
        assert sel.indices == [1, 2]
        assert abs(sel.final_value - 2.9) < 1e-9

    def test_gain_evals_count_every_scanned_candidate(self, hand_similarity):
        sel = greedy_naive(FacilityLocation(hand_similarity), BudgetSpec(2))
        assert sel.gain_evals == 3 + 2

    def test_full_budget_reaches_ground_set_value(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            kernel = random_similarity_kernel(rng, n)
            sel = greedy_naive(FacilityLocation(kernel), BudgetSpec(n))
            full = FacilityLocation(kernel).scratch_value(list(range(n)))
            assert abs(sel.final_value - full) < 1e-9

    def test_zero_gain_elements_are_not_added(self):
        # duplicate columns: after both distinct points are in, gains are 0
        dense = np.array([[1.0, 1.0, 0.2],
                          [1.0, 1.0, 0.2],
                          [0.2, 0.2, 1.0]])
        from subsel.kernels import SimilarityKernel

        sel = greedy_naive(FacilityLocation(SimilarityKernel(n=3, dense=dense)),
                           BudgetSpec(3))
        assert sel.indices == [0, 2]  # element 1 has zero gain and stays out

    def test_step_values_non_decreasing(self):
        rng = np.random.default_rng(32)
        kernel = random_similarity_kernel(rng, 15)
        sel = greedy_naive(FacilityLocation(kernel), BudgetSpec(8))
        assert all(b >= a for a, b in zip(sel.step_values, sel.step_values[1:]))

    def test_budget_above_ground_set_rejected(self, hand_similarity):
        with pytest.raises(ValidationError):
            greedy_naive(FacilityLocation(hand_similarity), BudgetSpec(4))

    def test_budget_spec_validates(self):
        with pytest.raises(ValidationError):
            BudgetSpec(0)


@st.composite
def tie_dense_kernels(draw):
    """Symmetric dense kernels over a 3-value alphabet, unit diagonal, and
    a budget: many equal gains, whose sums differ in the last bits if two
    code paths add the same terms in different orders."""
    n = draw(st.integers(9, 39))
    alphabet = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9]),
                             min_size=3, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.choice(alphabet, size=(n, n)), 1)
    dense = upper + upper.T
    np.fill_diagonal(dense, 1.0)
    return SimilarityKernel(n=n, dense=dense), draw(st.integers(1, n))


class TestLazyGreedy:
    def test_matches_naive_on_the_hand_kernel(self, hand_similarity):
        sel = greedy_lazy(FacilityLocation(hand_similarity), BudgetSpec(2))
        assert sel.indices == [1, 2]

    def test_equivalent_to_naive_on_100_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 61))
            b = int(rng.integers(1, min(10, n) + 1))
            kernel = random_similarity_kernel(rng, n)
            naive = greedy_naive(FacilityLocation(kernel), BudgetSpec(b))
            lazy = greedy_lazy(FacilityLocation(kernel), BudgetSpec(b))
            assert lazy.indices == naive.indices
            assert lazy.step_values == naive.step_values
            assert lazy.gain_evals <= naive.gain_evals

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tie_dense_kernels())
    def test_equivalent_to_naive_on_tie_dense_kernels(self, case):
        kernel, b = case
        naive = greedy_naive(FacilityLocation(kernel), BudgetSpec(b))
        lazy = greedy_lazy(FacilityLocation(kernel), BudgetSpec(b))
        assert lazy.indices == naive.indices
        assert lazy.step_values == naive.step_values

    def test_rejects_non_submodular_objective(self, line_distance):
        with pytest.raises(UnsupportedObjectiveError):
            greedy_lazy(DisparityMin(line_distance), BudgetSpec(2))


class TestFarthestPoint:
    def test_seeds_with_the_max_distance_pair(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), BudgetSpec(2))
        assert sel.indices == [0, 2]
        assert sel.final_value == 10.0

    def test_budget_three_is_forced(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), BudgetSpec(3))
        assert sel.indices == [0, 2, 1]
        assert sel.final_value == 1.0

    def test_gain_evals_count_the_pair_seed_and_each_scan(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), BudgetSpec(3))
        assert sel.gain_evals == 3 + 1  # all 3 pairs, then 1 candidate left

    def test_budget_one_returns_lowest_index_singleton(self, line_distance):
        sel = farthest_point(DisparityMin(line_distance), BudgetSpec(1))
        assert sel.indices == [0]
        assert math.isinf(sel.final_value)

    def test_pair_tie_breaks_lexicographically(self):
        from subsel.kernels import DistanceKernel

        pts = np.array([0.0, 10.0, 10.0])  # pairs (0,1) and (0,2) tie at 10
        dense = np.abs(pts[:, None] - pts[None, :])
        sel = farthest_point(DisparityMin(DistanceKernel(n=3, dense=dense)),
                             BudgetSpec(2))
        assert sel.indices == [0, 1]

    @pytest.mark.parametrize("block_elems", [1, 7, 40, kernels._BLOCK_ELEMS])
    def test_pair_seed_matches_the_whole_matrix_argmax(self, block_elems):
        # the lexicographically smallest maximum pair, as the row-major
        # first maximum of the strict upper triangle
        rng = np.random.default_rng(35)
        cases = []
        for n in (2, 3, 9, 31, 300):
            cases.append(random_distance_kernel(rng, n).dense)
            tied = np.round(random_distance_kernel(rng, n).dense)  # many equal maxima
            cases.append(tied)
            cases.append(np.ones((n, n)) - np.eye(n))  # every pair ties
        for dist in cases:
            n = dist.shape[0]
            flat = int(np.argmax(np.where(np.tri(n, dtype=bool), -1.0, dist)))
            with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
                sel = farthest_point(DisparityMin(DistanceKernel(n=n, dense=dist)),
                                     BudgetSpec(2))
            assert sel.indices == list(divmod(flat, n))

    def test_medoid_seeding_path(self, line_distance):
        with mock.patch.object(optimize, "EXACT_PAIR_THRESHOLD", 1):
            sel = farthest_point(DisparityMin(line_distance), BudgetSpec(2))
        assert len(sel.indices) == 2
        assert sel.final_value == 10.0  # medoid is 1; farthest from it is 2; then 0

    def test_half_approximation_against_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            b = int(rng.integers(2, min(4, n) + 1))
            kernel = random_distance_kernel(rng, n)
            greedy = farthest_point(DisparityMin(kernel), BudgetSpec(b))
            exact = brute_force(DisparityMin(kernel), BudgetSpec(b))
            assert greedy.final_value >= 0.5 * exact.final_value - 1e-12

    def test_rejects_facility_location(self, hand_similarity):
        with pytest.raises(UnsupportedObjectiveError):
            farthest_point(FacilityLocation(hand_similarity), BudgetSpec(2))


class TestBruteForce:
    def test_hand_kernel_prefers_lexicographically_smallest(self, hand_similarity):
        sel = brute_force(FacilityLocation(hand_similarity), BudgetSpec(2))
        assert sel.indices == [0, 2]  # ties {0,2} and {1,2} at 2.9
        assert abs(sel.final_value - 2.9) < 1e-9

    def test_line_points(self, line_distance):
        sel = brute_force(DisparityMin(line_distance), BudgetSpec(2))
        assert sel.indices == [0, 2]
        assert sel.final_value == 10.0

    def test_full_budget_returns_whole_ground_set(self, hand_similarity):
        sel = brute_force(FacilityLocation(hand_similarity), BudgetSpec(3))
        assert sel.indices == [0, 1, 2]

    def test_capacity_cap(self):
        kernel = random_similarity_kernel(np.random.default_rng(35), 80)
        with pytest.raises(CapacityError):
            brute_force(FacilityLocation(kernel), BudgetSpec(10))


class TestGuarantees:
    def test_greedy_respects_the_submodular_bound(self):
        bound = 1.0 - 1.0 / math.e
        rng = np.random.default_rng(36)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            b = int(rng.integers(1, min(4, n) + 1))
            kernel = random_similarity_kernel(rng, n)
            greedy = greedy_naive(FacilityLocation(kernel), BudgetSpec(b))
            exact = brute_force(FacilityLocation(kernel), BudgetSpec(b))
            assert greedy.final_value >= bound * exact.final_value - 1e-12

    def test_selections_are_deterministic(self, hand_similarity):
        a = greedy_naive(FacilityLocation(hand_similarity), BudgetSpec(2))
        b = greedy_naive(FacilityLocation(hand_similarity), BudgetSpec(2))
        assert a.indices == b.indices and a.step_values == b.step_values

    def test_selections_respect_budget_and_distinctness(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            b = int(rng.integers(1, n + 1))
            sel = greedy_naive(FacilityLocation(random_similarity_kernel(rng, n)),
                               BudgetSpec(b))
            assert len(sel.indices) <= b
            assert len(set(sel.indices)) == len(sel.indices)

    def test_fresh_state_required(self, hand_similarity):
        obj = FacilityLocation(hand_similarity)
        obj.add(0)
        with pytest.raises(ValidationError):
            greedy_naive(obj, BudgetSpec(2))


class TestSelectSubset:
    @pytest.mark.parametrize("rows", [None, [3, 17, 0, 29, 8, 11, 22, 5, 14, 26]])
    @pytest.mark.parametrize("objective,kappa", [("fl", None), ("fl", 4), ("dm", None)])
    def test_route_matches_the_direct_composition(self, objective, kappa, rows):
        features = random_features(np.random.default_rng(38), 30, 5)
        if objective == "fl":
            kernel = cosine_similarity(features, rows=rows)
            if kappa is not None:
                kernel = sparsify_knn(kernel, kappa)
            direct = greedy_lazy(FacilityLocation(kernel), BudgetSpec(6))
        else:
            direct = farthest_point(DisparityMin(euclidean_distance(features, rows=rows)),
                                    BudgetSpec(6))
        routed = select_subset(features, objective, 6, rows=rows, kappa=kappa)
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
