import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel.active import (
    ALConfig,
    ALState,
    UncertaintyMethod,
    ceil_pct,
    fass_round,
    filter_uncertain,
    initial_state,
    run_al,
    select_batch,
    uncertainty_scores,
)
from subsel.dataset import FeatureMatrix, SplitSpec, gen_synthetic, split
from subsel.errors import ValidationError
from subsel.models import logreg_fit

LC = UncertaintyMethod.LEAST_CONFIDENCE
MARGIN = UncertaintyMethod.MARGIN
ENTROPY = UncertaintyMethod.ENTROPY


class TestUncertainty:
    def test_uniform_over_four_classes(self):
        p = [0.25, 0.25, 0.25, 0.25]
        assert uncertainty_scores([p], LC)[0] == 0.75
        assert uncertainty_scores([p], MARGIN)[0] == 1.0
        assert uncertainty_scores([p], ENTROPY)[0] == 2.0

    def test_one_hot_is_certain(self):
        p = [0.0, 1.0, 0.0]
        assert uncertainty_scores([p], LC)[0] == 0.0
        assert uncertainty_scores([p], MARGIN)[0] == 0.0
        assert uncertainty_scores([p], ENTROPY)[0] == 0.0

    def test_worked_three_class_vector(self):
        p = [0.5, 0.3, 0.2]
        assert abs(uncertainty_scores([p], LC)[0] - 0.5) <= 1e-6
        assert abs(uncertainty_scores([p], MARGIN)[0] - 0.8) <= 1e-6
        # high-precision reference: 1.4854752972273343195 bits
        assert abs(uncertainty_scores([p], ENTROPY)[0] - 1.4854752972273343) <= 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            uncertainty_scores([[1.0]], LC)

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValidationError):
            uncertainty_scores([[0.9, 0.3]], LC)  # does not sum to 1
        with pytest.raises(ValidationError):
            uncertainty_scores([[1.2, -0.2]], LC)
        for p in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf],
                  [-np.inf, 1.0], [np.inf, 0.0]):
            for method in (LC, MARGIN, ENTROPY):
                with pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
                    uncertainty_scores([p], method)
        with pytest.raises(ValidationError):
            uncertainty_scores([[np.nan, np.nan], [0.5, 0.5]], ENTROPY)
        with pytest.raises(ValidationError):
            filter_uncertain([[np.nan, np.nan], [0.5, 0.5]], np.arange(2), 50.0, MARGIN)

    def test_ranges(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            C = int(rng.integers(2, 6))
            raw = rng.uniform(0, 1, C)
            p = (raw / raw.sum())[None, :]
            assert 0.0 <= uncertainty_scores(p, LC)[0] <= 1.0 - 1.0 / C + 1e-12
            assert 0.0 <= uncertainty_scores(p, MARGIN)[0] <= 1.0
            assert 0.0 <= uncertainty_scores(p, ENTROPY)[0] <= np.log2(C) + 1e-12


class TestFilter:
    def test_tie_with_last_element_is_included(self):
        # margin uncertainties: 0.9, 0.5, 0.5, ~0.1; base count 2 of 4
        probs = np.array([[0.55, 0.45],
                          [0.75, 0.25],
                          [0.75, 0.25],
                          [0.95, 0.05]])
        fset = filter_uncertain(probs, np.arange(4), 50.0, MARGIN)
        assert len(fset) == 3
        assert fset.indices.tolist() == [0, 1, 2]
        assert fset.cutoff_value == fset.scores[-1]

    def test_full_beta_keeps_everything(self):
        probs = np.tile([0.6, 0.4], (5, 1))
        fset = filter_uncertain(probs, np.arange(5), 100.0, LC)
        assert fset.indices.tolist() == [0, 1, 2, 3, 4]

    def test_all_equal_uncertainties_keep_everything(self):
        probs = np.tile([0.7, 0.3], (6, 1))
        fset = filter_uncertain(probs, np.arange(6), 10.0, ENTROPY)
        assert len(fset) == 6

    def test_ordering_is_descending_with_index_ties(self):
        probs = np.array([[0.9, 0.1], [0.6, 0.4], [0.9, 0.1], [0.5, 0.5]])
        fset = filter_uncertain(probs, np.array([10, 20, 30, 40]), 100.0, LC)
        assert fset.indices.tolist() == [40, 20, 10, 30]
        assert (np.diff(fset.scores) <= 0).all()

    def test_cutoff_invariants(self):
        rng = np.random.default_rng(52)
        raw = rng.uniform(0.1, 1.0, (30, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        U = np.arange(100, 130)
        fset = filter_uncertain(probs, U, 25.0, ENTROPY)
        scores = uncertainty_scores(probs, ENTROPY)
        inside = np.isin(U, fset.indices)
        assert (scores[inside] >= fset.cutoff_value).all()
        assert (scores[~inside] < fset.cutoff_value).all()
        assert len(fset) >= ceil_pct(25.0, 30)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]), min_size=1, max_size=25),
           st.randoms(use_true_random=False),
           st.sampled_from([1.0, 5.0, 12.5, 33.3, 50.0, 99.9, 100.0]))
    def test_keeps_the_first_ceil_beta_then_cutoff_ties(self, tops, random, beta):
        # two-class rows [t, 1 - t] or [1 - t, t] repeat each score often
        probs = np.array([[t, 1.0 - t] if random.random() < 0.5 else [1.0 - t, t]
                          for t in tops])
        U = np.array(random.sample(range(1000), len(tops)), dtype=np.int64)
        scores = uncertainty_scores(probs, LC)
        order = sorted(range(len(tops)), key=lambda i: (-scores[i], U[i]))
        base = ceil_pct(beta, len(tops))
        cutoff = scores[order[base - 1]]
        kept = order[:base] + [i for i in order[base:] if scores[i] == cutoff]
        fset = filter_uncertain(probs, U, beta, LC)
        assert fset.indices.tolist() == U[kept].tolist()
        assert fset.cutoff_value == cutoff
        assert fset.scores.tolist() == scores[kept].tolist()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            filter_uncertain(np.empty((0, 2)), np.array([], dtype=int), 10.0, LC)


class TestCeilPct:
    def test_exact_for_decimal_percentages(self):
        assert ceil_pct(20, 380) == 76  # no float drift to 77
        assert ceil_pct(5, 400) == 20
        assert ceil_pct(0.9, 1614) == 15
        assert ceil_pct(10, 4) == 1


def three_point_features():
    # rows embed the worked 3x3 similarity kernel: pairwise shifted cosines
    # are 0.9, 0.1, 0.2
    gram = np.array([[1.0, 0.8, -0.8],
                     [0.8, 1.0, -0.6],
                     [-0.8, -0.6, 1.0]])
    return FeatureMatrix(np.linalg.cholesky(gram))


class TestSelectBatch:
    def _fset(self, indices, scores=None):
        from subsel.active import FilteredSet

        idx = np.asarray(indices, dtype=np.int64)
        s = np.asarray(scores if scores is not None else np.ones(idx.size))
        return FilteredSet(indices=idx, cutoff_value=float(s[-1]), scores=s)

    def test_small_filtered_set_is_taken_whole(self):
        features = FeatureMatrix(np.random.default_rng(53).standard_normal((6, 2)))
        fset = self._fset([3, 1, 5])
        assert select_batch(fset, features, "fl", 5) == [3, 1, 5]

    def test_uncertainty_selector_takes_the_head(self):
        features = FeatureMatrix(np.random.default_rng(54).standard_normal((6, 2)))
        fset = self._fset([4, 0, 2], [0.9, 0.8, 0.7])
        assert select_batch(fset, features, "us", 2) == [4, 0]

    def test_facility_location_matches_the_worked_kernel(self):
        fset = self._fset([0, 1, 2])
        chosen = select_batch(fset, three_point_features(), "fl", 2)
        assert chosen == [1, 2]

    def test_random_is_seeded_and_in_set(self):
        features = FeatureMatrix(np.random.default_rng(55).standard_normal((10, 2)))
        fset = self._fset([9, 7, 5, 3, 1])
        a = select_batch(fset, features, "random", 3, np.random.default_rng(2))
        b = select_batch(fset, features, "random", 3, np.random.default_rng(2))
        assert a == b
        assert set(a) <= {9, 7, 5, 3, 1} and len(a) == 3
        with pytest.raises(ValidationError):
            select_batch(fset, features, "random", 3)

    @pytest.mark.parametrize("selector", ["fl", "dm"])
    def test_greedy_selectors_fill_the_batch_on_duplicates(self, selector):
        # five points, each twice: greedy gains reach zero before 8 picks
        base = np.random.default_rng(56).standard_normal((5, 3))
        features = FeatureMatrix(np.concatenate((base, base)))
        chosen = select_batch(self._fset(np.arange(10)), features, selector, 8)
        assert len(chosen) == 8 and len(set(chosen)) == 8
        assert set(chosen) <= set(range(10))

    @pytest.mark.parametrize("selector", ["fl", "dm", "us", "random"])
    def test_out_of_range_indices_rejected(self, selector):
        features = FeatureMatrix(np.random.default_rng(57).standard_normal((10, 2)))
        for bad in ([9, 7, -1, 3, 1], [9, 7, 10, 3, 1]):
            with pytest.raises(ValidationError, match="index out of range for n=10"):
                select_batch(self._fset(bad), features, selector, 3,
                             np.random.default_rng(0))

    def test_zero_row_is_named_by_its_position_in_the_set(self):
        values = np.random.default_rng(58).standard_normal((10, 2))
        values[7] = 0.0
        with pytest.raises(ValidationError, match="all-zero row 1$"):
            select_batch(self._fset([9, 7, 5, 3, 1]), FeatureMatrix(values), "fl", 2)

    def test_unknown_selector_rejected(self):
        features = FeatureMatrix(np.zeros((2, 1)) + 1.0)
        with pytest.raises(ValidationError):
            select_batch(self._fset([0, 1]), features, "qbc", 1)


def small_al_problem(n=90, C=3, sep=3.0, seed=6):
    ds = gen_synthetic(n, 4, C, sep, seed)
    return split(ds, SplitSpec(holdout_fraction=0.3, seed=1))


class TestFassRound:
    def test_bookkeeping(self):
        train, hold = small_al_problem()
        cfg = ALConfig(B_percent=10, beta_percent=50, rounds=1, selector="fl", seed=3)
        rng = np.random.default_rng(cfg.seed)
        state = initial_state(train.labels.labels, 6, rng)
        before = state.labeled.size
        after = fass_round(state, train, hold, cfg, rng)
        assert after.history[-1].round == 1
        assert after.labeled.size == before + ceil_pct(10, train.n)
        assert after.history[-1].labeled_count == before
        chosen = np.setdiff1d(after.labeled, state.labeled)
        assert after.labeled.dtype == np.int64
        assert np.array_equal(after.labeled,
                              np.sort(np.concatenate((state.labeled, chosen))))
        again = fass_round(after, train, hold, cfg, rng)
        assert [r.round for r in again.history] == [1, 2]

    @pytest.mark.parametrize("bad", [-1, "n", "repeat"])
    def test_bad_labeled_pool_rejected(self, bad):
        # -1 would otherwise alias row n-1 in the mask that builds the
        # unlabeled pool, and a repeat would count one row twice
        train, hold = small_al_problem()
        cfg = ALConfig(B_percent=10, beta_percent=50, rounds=1, selector="us", seed=3)
        labeled = initial_state(train.labels.labels, 6, np.random.default_rng(3)).labeled
        extra = {-1: -1, "n": train.n, "repeat": labeled[0]}[bad]
        with pytest.raises(ValidationError, match=r"distinct and in \[0, "):
            fass_round(ALState(np.append(labeled, extra)), train, hold, cfg,
                       np.random.default_rng(3))

    def test_batch_is_inside_the_filtered_set(self):
        train, hold = small_al_problem(seed=7)
        cfg = ALConfig(B_percent=10, beta_percent=30, rounds=1, selector="fl", seed=3)
        rng = np.random.default_rng(cfg.seed)
        state = initial_state(train.labels.labels, 6, rng)
        model = logreg_fit(train.subset(state.labeled), n_classes=train.n_classes)
        unlabeled = np.setdiff1d(np.arange(train.n), state.labeled)
        probs = model.predict_proba_batch(train.features.values[unlabeled])
        fset = filter_uncertain(probs, unlabeled, cfg.beta_percent, cfg.method)
        after = fass_round(state, train, hold, cfg, np.random.default_rng(cfg.seed))
        chosen = np.setdiff1d(after.labeled, state.labeled)
        assert set(chosen.tolist()) <= set(fset.indices.tolist())
        assert set(fset.indices.tolist()) <= set(unlabeled.tolist())

    def test_small_pool_is_exhausted(self):
        train, hold = small_al_problem(n=30)
        cfg = ALConfig(B_percent=100, beta_percent=100, rounds=1, selector="us", seed=0)
        rng = np.random.default_rng(0)
        state = initial_state(train.labels.labels, 3, rng)
        after = fass_round(state, train, hold, cfg, rng)
        assert np.array_equal(after.labeled, np.arange(train.n))
        with pytest.raises(ValidationError, match="unlabeled pool is empty"):
            fass_round(after, train, hold, cfg, rng)

    def test_published_parameterization_runs_clean(self):
        # batch 5% with a 10% filter, ten rounds
        train, hold = small_al_problem(n=200, seed=11)
        cfg = ALConfig(B_percent=5, beta_percent=10, rounds=10, selector="fl", seed=1)
        curve = run_al(train, hold, cfg)
        assert len(curve) == 10
        counts = [r.labeled_count for r in curve]
        assert all(b > a for a, b in zip(counts, counts[1:]))


class TestRunAl:
    def test_deterministic_with_random_selector(self):
        train, hold = small_al_problem(seed=8)
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=4, selector="random",
                       seed=21)
        assert run_al(train, hold, cfg) == run_al(train, hold, cfg)

    def test_single_round_curve(self):
        train, hold = small_al_problem(seed=9)
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=1, selector="us",
                       seed=2, initial_seed_size=9)
        curve = run_al(train, hold, cfg)
        assert len(curve) == 1
        assert curve[0].round == 1
        assert curve[0].labeled_count == 9
        direct = logreg_fit(train.subset(
            initial_state(train.labels.labels, 9,
                          np.random.default_rng(2)).labeled),
            n_classes=train.n_classes).accuracy(hold)
        assert curve[0].accuracy == direct

    def test_seed_below_class_count_rejected(self):
        train, hold = small_al_problem(seed=10)
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=1, selector="us",
                       seed=2, initial_seed_size=2)
        with pytest.raises(ValidationError):
            run_al(train, hold, cfg)

    def test_initial_pool_is_stratified(self):
        labels = np.array([0] * 40 + [1] * 40 + [2] * 20)
        state = initial_state(labels, 10, np.random.default_rng(5))
        counts = np.bincount(labels[state.labeled], minlength=3)
        assert counts.tolist() == [4, 4, 2]
        assert state.labeled.size == 10

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ALConfig(B_percent=0, beta_percent=10, rounds=1, selector="fl")
        with pytest.raises(ValidationError):
            ALConfig(B_percent=10, beta_percent=101, rounds=1, selector="fl")
        with pytest.raises(ValidationError):
            ALConfig(B_percent=10, beta_percent=10, rounds=0, selector="fl")
        with pytest.raises(ValidationError):
            ALConfig(B_percent=10, beta_percent=10, rounds=1, selector="committee")
