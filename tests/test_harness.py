import re
from fractions import Fraction

import numpy as np
import pytest

import subsel.active
import subsel.harness
from subsel.active import (
    SELECTORS,
    UNCERTAINTY,
    ALConfig,
    FilteredSet,
    filter_uncertain,
    run_al,
    select_batch,
    uncertainty_scores,
)
from subsel.dataset import gen_synthetic, round_half_up, split, split_indices
from subsel.errors import ValidationError
from subsel.harness import (
    SWEEP_METHODS,
    CurveRecord,
    emit_csv,
    parse_csv,
    run_goal2,
    selection_order,
    summarize_random,
    sweep_goal1,
)
from subsel.kernels import cosine_similarity, euclidean_distance, sparsify_knn
from subsel.models import knn_accuracy, knn_subset_accuracies
from subsel.objectives import DisparityMin, FacilityLocation
from subsel.optimize import OBJECTIVES, farthest_point, greedy_lazy, select_subset


@pytest.fixture(scope="module")
def problem():
    ds = gen_synthetic(120, 6, 3, 2.5, 13)
    return split(ds, holdout_fraction=0.25, seed=2)


class TestSweep:
    def test_full_fraction_is_method_independent(self, problem):
        train, hold = problem
        records = sweep_goal1(train, hold, fractions=(50, 100),
                              methods=("fl", "dm", "random"), seeds=(1, 2), k=3)
        at_full = {r.accuracy for r in records if r.x == 100}
        assert len(at_full) == 1

    def test_greedy_prefixes_match_per_fraction_runs(self, problem):
        train, _ = problem
        fl_order = selection_order(train, "fl")
        dm_order = selection_order(train, "dm")
        for p in (10, 30, 60):
            b = round(p / 100 * train.n)
            direct = greedy_lazy(FacilityLocation(cosine_similarity(train.features)), b)
            assert fl_order[:b].tolist() == direct.indices
            direct_dm = farthest_point(DisparityMin(euclidean_distance(train.features)), b)
            assert dm_order[:b].tolist() == direct_dm.indices

    def test_labeled_counts_follow_half_up_rounding(self, problem):
        import math

        train, hold = problem
        records = sweep_goal1(train, hold, fractions=(5, 25, 50), methods=("fl",), seeds=())
        assert [r.labeled_count for r in records] == [
            math.floor(p / 100 * train.n + 0.5) for p in (5, 25, 50)
        ]

    def test_budget_rounds_the_exact_share(self):
        # 0.58 * 25 is 14.4999... in floating point; the share is 14.5
        train, hold = gen_synthetic(25, 4, 2, 2.0, 3), gen_synthetic(10, 4, 2, 2.0, 4)
        records = sweep_goal1(train, hold, fractions=(58,), methods=("fl", "random"),
                              seeds=(1,))
        assert [r.labeled_count for r in records] == [15, 15]

    def test_random_arm_varies_only_with_seed(self, problem):
        train, hold = problem
        a, b = sweep_goal1(train, hold, fractions=(20,), methods=("random",), seeds=(1, 2))
        (c,) = sweep_goal1(train, hold, fractions=(20,), methods=("random",), seeds=(1,))
        assert a.accuracy == c.accuracy  # same seed, same draw
        assert a.seed == 1 and b.seed == 2

    def test_random_arms_of_fractions_with_one_integer_part_draw_apart(self, problem,
                                                                      monkeypatch):
        # 20% and 20.5% of 90 rows are both 18 rows, and int(p) is 20 for
        # both, yet each fraction draws its own subset
        train, hold = problem
        kw = dict(fractions=(20, 20.5), methods=("random",), seeds=(1,))
        drawn, score = [], subsel.harness.knn_subset_accuracies

        def recording(train, holdout, subsets, k):
            drawn.extend(subsets)
            return score(train, holdout, subsets, k)

        monkeypatch.setattr(subsel.harness, "knn_subset_accuracies", recording)
        records = sweep_goal1(train, hold, **kw)
        assert [r.labeled_count for r in records] == [18, 18]
        first = np.random.default_rng([1, 20]).choice(train.n, size=18, replace=False)
        assert np.array_equal(drawn[0], np.sort(first))
        assert not np.array_equal(drawn[0], drawn[1])
        assert records == per_arm_sweep(train, hold, **kw)

    def test_config_validation(self, problem):
        train, hold = problem
        with pytest.raises(ValidationError):
            sweep_goal1(train, hold, fractions=(10, 10))
        with pytest.raises(ValidationError):
            sweep_goal1(train, hold, fractions=(0, 50))
        with pytest.raises(ValidationError):
            sweep_goal1(train, hold, methods=("fl", "qbc"))
        with pytest.raises(ValidationError, match="sweep method 'fl'"):
            sweep_goal1(train, hold, methods=("fl", "random", "fl"))
        with pytest.raises(ValidationError, match="sweep seed 1"):
            sweep_goal1(train, hold, seeds=(1, 2, 1))
        with pytest.raises(ValidationError, match="needs at least one seed"):
            sweep_goal1(train, hold, methods=("fl", "random"), seeds=())
        with pytest.raises(ValidationError, match="k must be >= 1, got 0"):
            sweep_goal1(train, hold, k=0)

    def test_seeds_are_read_before_repeats_are_rejected(self, problem):
        train, hold = problem
        with pytest.raises(ValidationError, match=r"^sweep seed 2 given more than once$"):
            sweep_goal1(train, hold, methods=("random",), seeds=(2, np.int64(2)))
        with pytest.raises(ValidationError,
                           match=r"^sweep seed must be an integer, got 1\.5$"):
            sweep_goal1(train, hold, methods=("random",), seeds=(1.5, 1.5))

    def test_every_fraction_below_k_is_an_error(self, problem):
        train, hold = problem
        with pytest.raises(ValidationError, match=f"k=20 for training size {train.n}"):
            sweep_goal1(train, hold, fractions=(5, 10), methods=("fl", "random"), k=20)

    def test_records_equal_the_per_arm_loop_at_the_benchmark_shape(self):
        train, hold = split(gen_synthetic(800, 32, 10, 0.5, 31), holdout_fraction=0.33, seed=0)
        kw = dict(fractions=tuple(range(10, 101, 10)), seeds=(1, 2, 3))
        assert sweep_goal1(train, hold, **kw) == per_arm_sweep(train, hold, **kw)

    def test_summary_means(self):
        records = [CurveRecord("random", 1, 10, 5, 0.5),
                   CurveRecord("random", 2, 10, 5, 0.7),
                   CurveRecord("fl", 0, 10, 5, 0.9)]
        assert summarize_random(records) == {10: 0.6}


def per_arm_sweep(train, hold, *, fractions, methods=SWEEP_METHODS, seeds, k=5):
    """sweep_goal1 as it was before the shared distance matrix: one kNN
    call on a copied training subset per (fraction, method, seed)."""
    orders = {m: selection_order(train, m) for m in methods if m != "random"}
    records = []
    for p in fractions:
        budget = round_half_up(Fraction(str(p)) * train.n / 100)
        if budget < k:
            continue
        for method in methods:
            if method == "random":
                share = Fraction(str(p))
                for seed in seeds:
                    key = ([int(seed), int(p)] if share.denominator == 1
                           else [int(seed), share.numerator, share.denominator])
                    rng = np.random.default_rng(key)
                    subset = np.sort(rng.choice(train.n, size=budget, replace=False))
                    acc = knn_accuracy(train.subset(subset), hold, k)
                    records.append(CurveRecord("random", int(seed), p, budget, acc))
            else:
                subset = orders[method][:budget]
                acc = knn_accuracy(train.subset(subset), hold, k)
                records.append(CurveRecord(method, 0, p, budget, acc))
    return records


ARMS = ("fl", "dm", "us", "random")


class TestGoal2:
    def test_paired_runs_share_the_initial_point(self, problem):
        train, hold = problem
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=3)
        records = run_goal2(train, hold, cfg, ARMS, (1, 2))
        assert len(records) == 8 * 3
        for seed in (1, 2):
            first = {r.accuracy for r in records if r.seed == seed and r.x == 1}
            assert len(first) == 1  # identical seed pool => identical round-1 model

    def test_us_equals_fl_when_the_filter_fits_the_batch(self, problem):
        train, hold = problem
        # filter keeps ~5% of U while the batch is 50% of the pool, so every
        # round takes the whole filtered set regardless of selector
        cfg = ALConfig(B_percent=50, beta_percent=5, rounds=3)
        curves = {sel: run_goal2(train, hold, cfg, [sel], [4]) for sel in ("us", "fl")}
        assert [(r.x, r.labeled_count, r.accuracy) for r in curves["us"]] == \
               [(r.x, r.labeled_count, r.accuracy) for r in curves["fl"]]

    def test_a_repeated_selector_is_rejected(self, problem):
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=2)
        with pytest.raises(ValidationError, match=r"^selector 'fl' given more than once$"):
            run_goal2(*problem, cfg, ["us", "fl", "dm", "fl"], [1, 2])

    def test_a_repeated_seed_is_rejected(self, problem):
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=2)
        with pytest.raises(ValidationError, match=r"^seed 2 given more than once$"):
            run_goal2(*problem, cfg, ["us", "fl"], [1, 2, 3, np.int64(2)])

    @pytest.mark.parametrize("selectors,seeds,message", [
        (ARMS + ("qbc",), (1, 2), r"^unknown selector 'qbc'"),
        (ARMS, (1, 2, -1), r"^seed must be >= 0, got -1$"),
        (ARMS, (1, 2, 2.5), r"^seed must be an integer, got 2.5$"),
        (ARMS + ("us",), (1, 2), r"^selector 'us' given more than once$"),
        (ARMS, (1, 2, 1), r"^seed 1 given more than once$"),
        ((), (1,), r"^at least one active-learning selector and seed required$"),
        (ARMS, (), r"^at least one active-learning selector and seed required$"),
    ], ids=["bad selector", "negative seed", "float seed", "repeated selector",
            "repeated seed", "no selector", "no seed"])
    def test_a_bad_last_arm_fails_before_any_fit(self, problem, monkeypatch, selectors,
                                                 seeds, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("logreg_fit called")

        monkeypatch.setattr(subsel.active, "logreg_fit", no_fit)
        cfg = ALConfig(B_percent=10, beta_percent=40, rounds=2)
        with pytest.raises(ValidationError, match=message):
            run_goal2(*problem, cfg, selectors, seeds)

    @pytest.mark.parametrize("cfg", [
        ALConfig(B_percent=10, beta_percent=40, rounds=3),
        # the filter keeps fewer rows than the batch, so every selector
        # takes the whole filtered set and the arms of a seed share every pool
        ALConfig(B_percent=50, beta_percent=5, rounds=3),
    ], ids=["B10 beta40", "B50 beta5"])
    def test_shared_fits_give_the_records_of_separate_runs(self, monkeypatch, cfg):
        # overlapping classes, so that accuracy moves with the labeled pool
        train, hold = split(gen_synthetic(120, 6, 3, 0.6, 13), holdout_fraction=0.25, seed=2)
        seeds = (1, 2)
        round_fn, fit_fn = subsel.active.fass_round, subsel.active.logreg_fit

        def visited(run):
            """Records of run() and the labeled pools its rounds start from."""
            pools = set()

            def recording_round(state, *args, **kwargs):
                pools.add(tuple(state.labeled.tolist()))
                return round_fn(state, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(subsel.active, "fass_round", recording_round)
                return run(), pools

        separate, pools = visited(lambda: [
            CurveRecord(sel, seed, rec.round, rec.labeled_count, rec.accuracy)
            for sel in ARMS for seed in seeds for rec in run_al(train, hold, cfg, sel, seed)])
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit_fn(*args, **kwargs)

        monkeypatch.setattr(subsel.active, "logreg_fit", counting_fit)
        shared, shared_pools = visited(lambda: run_goal2(train, hold, cfg, ARMS, seeds))
        assert shared == separate
        assert shared_pools == pools
        assert len(fits) == len(pools) < cfg.rounds * len(ARMS) * len(seeds)
        if cfg.B_percent == 50:
            assert len(pools) == cfg.rounds * len(seeds)

    def test_labeled_counts_are_non_decreasing(self, problem):
        train, hold = problem
        cfg = ALConfig(B_percent=15, beta_percent=50, rounds=4)
        records = run_goal2(train, hold, cfg, ["dm"], [9])
        counts = [r.labeled_count for r in sorted(records, key=lambda r: r.x)]
        assert counts == sorted(counts)


class TestCsv:
    def _records(self):
        return [CurveRecord("fl", 0, 10, 5, 0.5),
                CurveRecord("dm", 0, 10, 5, 0.25),
                CurveRecord("random", 2, 20, 9, 1.0),
                CurveRecord("random", 1, 20, 9, 0.125)]

    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "method,seed,x,labeled_count,accuracy\n"

    def test_rows_are_sorted_and_formatted(self, tmp_path):
        path = tmp_path / "c.csv"
        emit_csv(self._records(), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "dm,0,10,5,0.250000"
        assert lines[2] == "fl,0,10,5,0.500000"
        assert lines[3] == "random,1,20,9,0.125000"
        assert lines[4] == "random,2,20,9,1.000000"

    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        records = self._records()
        emit_csv(records, path)
        back = parse_csv(path)
        assert sorted(back, key=lambda r: (r.method, r.seed, r.x)) == \
               sorted(records, key=lambda r: (r.method, r.seed, r.x))

    @pytest.mark.parametrize("content,message", [
        (b"fl,0,10,5\n", r"line 3: not enough values to unpack"),
        (b"fl,0,ten,5,0.5\n", r"line 3: could not convert string to float: 'ten'"),
        (b"fl,0,10,5,0.5\xff\n", r"not UTF-8 text: byte 0xff at offset 69"),
    ], ids=["short", "non-numeric", "non-utf8"])
    def test_a_bad_row_is_a_validation_error(self, tmp_path, content, message):
        path = tmp_path / "c.csv"
        path.write_bytes(b"method,seed,x,labeled_count,accuracy\ndm,0,10,5,0.250000\n"
                         + content)
        with pytest.raises(ValidationError, match=f"{path}: {message}"):
            parse_csv(path)

    def test_rows_split_only_at_line_feeds(self, tmp_path):
        # str.splitlines also breaks at \x1e and \x0c: it read the first file
        # as two rows, and the second's bad line 3 as an empty line 3
        path = tmp_path / "c.csv"
        header = b"method,seed,x,labeled_count,accuracy\n"
        path.write_bytes(header + b"fl,0,10,54,0.5\x1erandom,1,10,54,0.4\n")
        with pytest.raises(ValidationError, match=f"{path}: line 2: too many values"):
            parse_csv(path)
        path.write_bytes(header + b"fl,0,10,54,0.5\x0c\nfl,0,ten,5,0.5\n")
        with pytest.raises(ValidationError,
                           match=f"{path}: line 3: could not convert string to float"):
            parse_csv(path)
        path.write_bytes(header + b"fl,0,10,54,0.5\x0c\n")
        assert parse_csv(path) == [CurveRecord("fl", 0, 10, 54, 0.5)]

    def test_x_reads_back_exactly(self, tmp_path):
        # :g alone wrote both fractions as 10
        path = tmp_path / "c.csv"
        records = [CurveRecord("random", 1, x, 5, 0.5) for x in (10, 10.000001, 10.000002)]
        emit_csv(records, path)
        assert [line.split(",")[2] for line in path.read_text().splitlines()[1:]] == \
            ["10", "10.000001", "10.000002"]
        assert parse_csv(path) == records

    def test_emission_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self._records(), a)
        emit_csv(list(reversed(self._records())), b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        from types import SimpleNamespace

        path = tmp_path / "c.csv"
        emit_csv(self._records(), path)
        before = path.read_bytes()
        # sorts between the fl and random rows, so the failure comes partway
        bad = SimpleNamespace(method="fl", seed=0, x=20, labeled_count=9,
                              accuracy=None)
        with pytest.raises(TypeError):
            emit_csv(self._records() + [bad], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]

    def test_accuracy_range_enforced(self):
        with pytest.raises(ValidationError):
            CurveRecord("fl", 0, 10, 5, 1.5)


class TestInputChecks:
    # every seed and count is an integer (Python or numpy), and every unknown
    # name is a ValidationError naming the allowed ones
    SEEDED = {
        "split_indices": lambda train, hold, seed: split_indices(train.labels, 0.3, seed),
        "split": lambda train, hold, seed: split(train, 0.3, seed),
        "sweep_goal1": lambda train, hold, seed: sweep_goal1(
            train, hold, fractions=(50,), methods=("random",), seeds=(1, seed)),
        "run_al": lambda train, hold, seed: run_al(
            train, hold, ALConfig(B_percent=10, beta_percent=40, rounds=1), "us", seed),
        "run_goal2": lambda train, hold, seed: run_goal2(
            train, hold, ALConfig(B_percent=10, beta_percent=40, rounds=1), ("us",), (1, seed)),
        "gen_synthetic": lambda train, hold, seed: gen_synthetic(10, 2, 2, 3.0, seed),
    }

    @pytest.mark.parametrize("name", SEEDED)
    def test_seeds_must_be_integers(self, problem, name):
        call = self.SEEDED[name]
        call(*problem, np.int64(3))
        call(*problem, np.uint8(3))
        for seed in (1.5, 3.0, "3", None):
            with pytest.raises(ValidationError, match="must be an integer, got"):
                call(*problem, seed)
        # sweep seeds are one 32-bit word of a random stream (see sweep_goal1)
        bound = r"in \[0, 4294967295\]" if name == "sweep_goal1" else ">= 0"
        with pytest.raises(ValidationError, match=f"must be {bound}, got -1$"):
            call(*problem, -1)
        if name == "sweep_goal1":
            with pytest.raises(ValidationError, match=f"must be {bound}, got 4294967296$"):
                call(*problem, 2 ** 32)

    # (argument named in the error, call with count v)
    COUNTED = {
        "gen_synthetic n": ("n", lambda train, hold, v: gen_synthetic(v, 2, 2, 3.0, 0)),
        "gen_synthetic d": ("d", lambda train, hold, v: gen_synthetic(10, v, 2, 3.0, 0)),
        "gen_synthetic n_classes": (
            "n_classes", lambda train, hold, v: gen_synthetic(10, 2, v, 3.0, 0)),
        "ALConfig rounds": ("rounds", lambda train, hold, v: ALConfig(
            B_percent=10, beta_percent=40, rounds=v)),
        "run_al initial_seed_size": ("initial seed size", lambda train, hold, v: run_al(
            train, hold, ALConfig(B_percent=10, beta_percent=40, rounds=1,
                                  initial_seed_size=v), "us", 0)),
        "sweep_goal1 k": ("k", lambda train, hold, v: sweep_goal1(
            train, hold, fractions=(50,), methods=("dm",), seeds=(), k=v)),
        "knn_subset_accuracies k": ("k", lambda train, hold, v: knn_subset_accuracies(
            train, hold, [np.arange(10)], v)),
        "cosine_similarity kappa": ("kappa", lambda train, hold, v: cosine_similarity(
            train.features, kappa=v)),
        "sparsify_knn kappa": ("kappa", lambda train, hold, v: sparsify_knn(
            cosine_similarity(train.features), v)),
        "select_subset fl": ("budget", lambda train, hold, v: select_subset(
            train.features, "fl", v)),
        "select_subset dm": ("budget", lambda train, hold, v: select_subset(
            train.features, "dm", v)),
        "greedy_lazy": ("budget", lambda train, hold, v: greedy_lazy(
            FacilityLocation(cosine_similarity(train.features)), v)),
        "farthest_point": ("budget", lambda train, hold, v: farthest_point(
            DisparityMin(euclidean_distance(train.features)), v)),
        "select_batch us": ("batch size", lambda train, hold, v: select_batch(
            FilteredSet(np.arange(10), 0.0, np.zeros(10)), train.features, "us", v)),
        "select_batch fl": ("batch size", lambda train, hold, v: select_batch(
            FilteredSet(np.arange(10), 0.0, np.zeros(10)), train.features, "fl", v)),
    }

    @pytest.mark.parametrize("name", COUNTED)
    def test_counts_must_be_integers(self, problem, name):
        # a float count is an error, not its ceiling: select_subset(..., 2.5) picks no 3
        what, call = self.COUNTED[name]
        call(*problem, np.int64(3))
        for count in (2.5, "3"):
            message = f"^{re.escape(what)} must be an integer, got {re.escape(repr(count))}$"
            with pytest.raises(ValidationError, match=message):
                call(*problem, count)

    def test_a_numpy_seed_is_its_int(self, problem):
        train, hold = problem
        kw = dict(fractions=(50,), methods=("random",))
        assert sweep_goal1(train, hold, seeds=(np.int64(4),), **kw) == \
            sweep_goal1(train, hold, seeds=(4,), **kw)
        assert np.array_equal(split_indices(train.labels, 0.3, np.int32(4))[1],
                              split_indices(train.labels, 0.3, 4)[1])

    @pytest.mark.parametrize("call,allowed", [
        (lambda train, hold: select_subset(train.features, "bogus", 1), OBJECTIVES),
        (lambda train, hold: select_batch(FilteredSet(np.arange(2), 0.0, np.zeros(2)),
                                          train.features, "bogus", 1), SELECTORS),
        (lambda train, hold: run_al(train, hold, ALConfig(B_percent=10, beta_percent=40,
                                                          rounds=1), "bogus", 0), SELECTORS),
        (lambda train, hold: run_goal2(train, hold, ALConfig(B_percent=10, beta_percent=40,
                                                             rounds=1), ("fl", "bogus"), (1,)),
         SELECTORS),
        (lambda train, hold: sweep_goal1(train, hold, methods=("fl", "bogus")),
         SWEEP_METHODS),
        (lambda train, hold: uncertainty_scores([[0.5, 0.5]], "bogus"), UNCERTAINTY),
        (lambda train, hold: filter_uncertain([[0.5, 0.5]], [0], 50.0, "bogus"),
         UNCERTAINTY),
        (lambda train, hold: ALConfig(B_percent=10, beta_percent=40, rounds=1,
                                      method="bogus"), UNCERTAINTY),
    ], ids=["select_subset objective", "select_batch selector", "run_al selector",
            "run_goal2 selector",
            "sweep_goal1 method", "uncertainty_scores", "filter_uncertain",
            "ALConfig method"])
    def test_an_unknown_name_is_rejected_naming_the_allowed_ones(self, problem, call,
                                                                 allowed):
        with pytest.raises(ValidationError, match="'bogus'") as info:
            call(*problem)
        assert str(allowed) in str(info.value)
