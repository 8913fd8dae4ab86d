import pytest

from subsel.active import ALConfig
from subsel.dataset import SplitSpec, gen_synthetic, split
from subsel.errors import ValidationError
from subsel.harness import (
    CurveRecord,
    SweepConfig,
    emit_csv,
    parse_csv,
    run_goal2,
    selection_order,
    summarize_random,
    sweep_goal1,
)
from subsel.kernels import cosine_similarity, euclidean_distance
from subsel.objectives import DisparityMin, FacilityLocation
from subsel.optimize import BudgetSpec, farthest_point, greedy_lazy


@pytest.fixture(scope="module")
def problem():
    ds = gen_synthetic(120, 6, 3, 2.5, 13)
    return split(ds, SplitSpec(holdout_fraction=0.25, seed=2))


class TestSweep:
    def test_full_fraction_is_method_independent(self, problem):
        train, hold = problem
        cfg = SweepConfig(fractions=(50, 100), methods=("fl", "dm", "random"),
                          seeds=(1, 2), k=3)
        records = sweep_goal1(train, hold, cfg)
        at_full = {r.accuracy for r in records if r.x == 100}
        assert len(at_full) == 1

    def test_greedy_prefixes_match_per_fraction_runs(self, problem):
        train, _ = problem
        fl_order = selection_order(train, "fl")
        dm_order = selection_order(train, "dm")
        for p in (10, 30, 60):
            b = round(p / 100 * train.n)
            direct = greedy_lazy(FacilityLocation(cosine_similarity(train.features)),
                                 BudgetSpec(b))
            assert fl_order[:b].tolist() == direct.indices
            direct_dm = farthest_point(DisparityMin(euclidean_distance(train.features)),
                                       BudgetSpec(b))
            assert dm_order[:b].tolist() == direct_dm.indices

    def test_labeled_counts_follow_half_up_rounding(self, problem):
        import math

        train, hold = problem
        cfg = SweepConfig(fractions=(5, 25, 50), methods=("fl",), seeds=())
        records = sweep_goal1(train, hold, cfg)
        assert [r.labeled_count for r in records] == [
            math.floor(p / 100 * train.n + 0.5) for p in (5, 25, 50)
        ]

    def test_random_arm_varies_only_with_seed(self, problem):
        train, hold = problem
        cfg = SweepConfig(fractions=(20,), methods=("random",), seeds=(1, 2))
        a, b = sweep_goal1(train, hold, cfg)
        (c,) = sweep_goal1(train, hold, SweepConfig(fractions=(20,), methods=("random",),
                                                    seeds=(1,)))
        assert a.accuracy == c.accuracy  # same seed, same draw
        assert a.seed == 1 and b.seed == 2

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SweepConfig(fractions=(10, 10))
        with pytest.raises(ValidationError):
            SweepConfig(fractions=(0, 50))
        with pytest.raises(ValidationError):
            SweepConfig(methods=("fl", "qbc"))
        with pytest.raises(ValidationError, match="sweep method 'fl'"):
            SweepConfig(methods=("fl", "random", "fl"))
        with pytest.raises(ValidationError, match="sweep seed 1"):
            SweepConfig(seeds=(1, 2, 1))

    def test_summary_means(self):
        records = [CurveRecord("random", 1, 10, 5, 0.5),
                   CurveRecord("random", 2, 10, 5, 0.7),
                   CurveRecord("fl", 0, 10, 5, 0.9)]
        assert summarize_random(records) == {10: 0.6}


class TestGoal2:
    def test_paired_runs_share_the_initial_point(self, problem):
        train, hold = problem
        cfgs = [ALConfig(B_percent=10, beta_percent=40, rounds=3, selector=s, seed=seed)
                for s in ("fl", "dm", "us", "random") for seed in (1, 2)]
        records = run_goal2(train, hold, cfgs)
        assert len(records) == 8 * 3
        for seed in (1, 2):
            first = {r.accuracy for r in records if r.seed == seed and r.x == 1}
            assert len(first) == 1  # identical seed pool => identical round-1 model

    def test_us_equals_fl_when_the_filter_fits_the_batch(self, problem):
        train, hold = problem
        # filter keeps ~5% of U while the batch is 50% of the pool, so every
        # round takes the whole filtered set regardless of selector
        curves = {}
        for sel in ("us", "fl"):
            cfg = ALConfig(B_percent=50, beta_percent=5, rounds=3, selector=sel,
                           seed=4)
            curves[sel] = run_goal2(train, hold, [cfg])
        assert [(r.x, r.labeled_count, r.accuracy) for r in curves["us"]] == \
               [(r.x, r.labeled_count, r.accuracy) for r in curves["fl"]]

    def test_round_count_must_match(self, problem):
        train, hold = problem
        cfgs = [ALConfig(B_percent=10, beta_percent=40, rounds=2, selector="us"),
                ALConfig(B_percent=10, beta_percent=40, rounds=3, selector="fl")]
        with pytest.raises(ValidationError):
            run_goal2(train, hold, cfgs)

    def test_repeated_selector_seed_pair_rejected(self, problem):
        train, hold = problem
        cfgs = [ALConfig(B_percent=10, beta_percent=40, rounds=2, selector=sel, seed=seed)
                for sel, seed in [("us", 1), ("fl", 1), ("us", 2), ("fl", 1)]]
        with pytest.raises(ValidationError, match=r"\('fl', 1\) given more than once"):
            run_goal2(train, hold, cfgs)

    def test_labeled_counts_are_non_decreasing(self, problem):
        train, hold = problem
        cfg = ALConfig(B_percent=15, beta_percent=50, rounds=4, selector="dm", seed=9)
        records = run_goal2(train, hold, [cfg])
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
