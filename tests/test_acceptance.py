"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs too.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    brute_force,
    greedy_naive,
    random_distance_kernel,
    random_similarity_kernel,
    softmax_gradients,
    softmax_objective,
)
from subsel.active import ALConfig, UncertaintyMethod, filter_uncertain, uncertainty_scores
from subsel.cli import main
from subsel.dataset import FeatureMatrix, SplitSpec, gen_synthetic, load_features, save_features, split
from subsel.harness import SweepConfig, run_goal2, sweep_goal1
from subsel.models import logreg_fit
from subsel.objectives import DisparityMin, FacilityLocation
from subsel.optimize import farthest_point, greedy_lazy


# Criteria 5 and 6 share one dataset. At this separation the classes
# overlap, so accuracy on the full training pool stays below
# SATURATED_ACCURACY (each test asserts it) and a better selection can show
# as a higher holdout accuracy. On separable data every arm scores 1.0 and
# the comparisons cannot tell a good selector from a poor one. One holdout
# point (res = 1 / hold.n) is the finest difference a run can show, so every
# "no worse than" comparison is judged at that resolution.
DESK_SEP = 0.7
SATURATED_ACCURACY = 0.95


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _desk_split():
    ds = gen_synthetic(600, 16, 3, DESK_SEP, 42)
    return split(ds, SplitSpec(holdout_fraction=1 / 3, seed=0))


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run the kernels, greedy and kNN once first, so that the timed criteria
    # (1 and 2) exclude one-time costs such as lazy imports and BLAS start-up
    m = FeatureMatrix(np.random.default_rng(0).standard_normal((8, 3)))
    from subsel.kernels import cosine_similarity, euclidean_distance
    from subsel.models import knn_accuracy
    from subsel.dataset import LabeledDataset, LabelVector

    k = cosine_similarity(m)
    euclidean_distance(m)
    greedy_naive(FacilityLocation(k), 3)
    ds = LabeledDataset(m, LabelVector(np.arange(8) % 2))
    knn_accuracy(ds, ds, 1)


def test_criterion_1_greedy_guarantee():
    bound = 1.0 - 1.0 / math.e
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    violations = 0
    ratios = []
    for _ in range(200):
        n = int(rng.integers(2, 13))
        b = int(rng.integers(1, min(4, n) + 1))
        kernel = random_similarity_kernel(rng, n)
        greedy = greedy_naive(FacilityLocation(kernel), b)
        exact = brute_force(FacilityLocation(kernel), b)
        ratios.append(greedy.final_value / exact.final_value)
        if greedy.final_value < bound * exact.final_value - 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    # the near-optimality of greedy in practice is reported, not enforced
    _report(1, ok, f"{violations} violations of the (1-1/e) bound over 200 "
                   f"instances in {elapsed:.2f}s; measured greedy/optimal "
                   f"min {min(ratios):.4f}, mean {np.mean(ratios):.4f}")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_2_lazy_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 61))
        b = int(rng.integers(1, min(10, n) + 1))
        kernel = random_similarity_kernel(rng, n)
        naive = greedy_naive(FacilityLocation(kernel), b)
        lazy = greedy_lazy(FacilityLocation(kernel), b)
        if lazy.indices != naive.indices or lazy.step_values != naive.step_values:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(2, ok, f"{mismatches} lazy/naive mismatches over 100 instances "
                   f"in {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_3_dispersion_bound():
    rng = np.random.default_rng(1003)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        b = int(rng.integers(1, min(4, n) + 1))
        kernel = random_distance_kernel(rng, n)
        greedy = farthest_point(DisparityMin(kernel), b)
        exact = brute_force(DisparityMin(kernel), b)
        if greedy.final_value < 0.5 * exact.final_value - 1e-12:
            violations += 1
    ok = violations == 0
    _report(3, ok, f"{violations} violations of the 1/2 dispersion bound "
                   f"over 200 instances")
    assert violations == 0


def test_criterion_4_submodularity_and_monotonicity():
    rng = np.random.default_rng(1004)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        dense = random_similarity_kernel(rng, n).dense
        values = np.empty(1 << n)
        values[0] = 0.0
        for mask in range(1, 1 << n):
            cols = [i for i in range(n) if mask >> i & 1]
            values[mask] = dense[:, cols].max(axis=1).sum()
        for b_mask in range(1 << n):
            for x in range(n):
                if b_mask >> x & 1:
                    continue
                bit = 1 << x
                gain_b = values[b_mask | bit] - values[b_mask]
                if gain_b < -1e-9:  # monotonicity
                    violations += 1
                a_mask = b_mask
                while True:  # all subsets A of B
                    if values[a_mask | bit] - values[a_mask] < gain_b - 1e-9:
                        violations += 1
                    if a_mask == 0:
                        break
                    a_mask = (a_mask - 1) & b_mask
    ok = violations == 0
    _report(4, ok, f"{violations} submodularity/monotonicity violations over "
                   f"200 exhaustive instances")
    assert violations == 0


def test_criterion_5_goal1_desk_analogue():
    start = time.perf_counter()
    train, hold = _desk_split()
    cfg = SweepConfig(fractions=tuple(range(5, 101, 5)), methods=("fl", "random"),
                      seeds=tuple(range(1, 11)), k=5)
    records = sweep_goal1(train, hold, cfg)
    fl = {r.x: r.accuracy for r in records if r.method == "fl"}
    rnd: dict[float, list[float]] = {}
    for r in records:
        if r.method == "random":
            rnd.setdefault(r.x, []).append(r.accuracy)
    rnd_mean = {x: float(np.mean(v)) for x, v in rnd.items()}
    elapsed = time.perf_counter() - start

    res = 1 / hold.n
    unsaturated = fl[100] <= SATURATED_ACCURACY
    low = [p for p in cfg.fractions if p <= 50]
    close_to_full = abs(fl[40] - fl[100]) <= 0.02
    ge_everywhere = all(fl[p] >= rnd_mean[p] - res for p in low)
    strict_count = sum(fl[p] > rnd_mean[p] for p in low)
    ok = (unsaturated and close_to_full and ge_everywhere and strict_count >= 6
          and elapsed < 120.0)
    _report(5, ok, f"full-pool kNN accuracy {fl[100]:.4f} "
                   f"(need <={SATURATED_ACCURACY}); res={res:.4f}; "
                   f"fl@40={fl[40]:.4f} vs full={fl[100]:.4f}; "
                   f"fl>=random-res at all {len(low)} low fractions: {ge_everywhere}; "
                   f"strictly greater at {strict_count}/{len(low)} "
                   f"(need >=6); {elapsed:.1f}s")
    assert unsaturated
    assert close_to_full
    assert ge_everywhere
    assert elapsed < 120.0
    assert strict_count >= 6


def test_criterion_6_goal2_desk_analogue():
    start = time.perf_counter()
    train, hold = _desk_split()
    selectors = ("fl", "dm", "us", "random")
    seeds = tuple(range(1, 11))
    cfgs = [ALConfig(B_percent=5, beta_percent=20, rounds=10, selector=s,
                     method=UncertaintyMethod.ENTROPY, seed=seed)
            for s in selectors for seed in seeds]
    records = run_goal2(train, hold, cfgs)
    curves: dict[tuple, dict] = {}
    for r in records:
        curves.setdefault((r.method, r.seed), {})[r.x] = r.accuracy
    mean = {s: np.array([np.mean([curves[(s, seed)][t] for seed in seeds])
                         for t in range(1, 11)]) for s in selectors}
    elapsed = time.perf_counter() - start

    full = logreg_fit(train).accuracy(hold)
    unsaturated = full <= SATURATED_ACCURACY
    res = 1 / hold.n
    fl_ge = bool((mean["fl"] >= mean["random"] - res).all())
    dm_ge = bool((mean["dm"] >= mean["random"] - res).all())
    final_ok = max(mean["fl"][-1], mean["dm"][-1]) >= mean["us"][-1] - res
    ok = unsaturated and fl_ge and dm_ge and final_ok and elapsed < 300.0
    _report(6, ok, f"full-pool logreg accuracy {full:.4f} "
                   f"(need <={SATURATED_ACCURACY}); res={res:.4f}; "
                   f"fl>=random-res at every round: {fl_ge}; dm>=random-res: {dm_ge}; "
                   f"final fl/dm={max(mean['fl'][-1], mean['dm'][-1]):.4f} vs "
                   f"us={mean['us'][-1]:.4f}; {elapsed:.1f}s")
    assert unsaturated
    assert dm_ge
    assert final_ok
    assert elapsed < 300.0
    assert fl_ge


def test_criterion_7_uncertainty_formulas():
    lc = UncertaintyMethod.LEAST_CONFIDENCE
    margin = UncertaintyMethod.MARGIN
    entropy = UncertaintyMethod.ENTROPY
    checks = []
    uniform = [0.25] * 4
    checks.append(abs(uncertainty_scores([uniform], lc)[0] - 0.75) <= 1e-6)
    checks.append(abs(uncertainty_scores([uniform], margin)[0] - 1.0) <= 1e-6)
    checks.append(abs(uncertainty_scores([uniform], entropy)[0] - 2.0) <= 1e-6)
    one_hot = [0.0, 1.0, 0.0]
    checks.append(abs(uncertainty_scores([one_hot], lc)[0]) <= 1e-6)
    checks.append(abs(uncertainty_scores([one_hot], margin)[0]) <= 1e-6)
    checks.append(abs(uncertainty_scores([one_hot], entropy)[0]) <= 1e-6)
    worked = [0.5, 0.3, 0.2]
    checks.append(abs(uncertainty_scores([worked], lc)[0] - 0.5) <= 1e-6)
    checks.append(abs(uncertainty_scores([worked], margin)[0] - 0.8) <= 1e-6)
    checks.append(abs(uncertainty_scores([worked], entropy)[0] - 1.4854752972273343) <= 1e-6)

    probs = np.array([[0.55, 0.45], [0.75, 0.25], [0.75, 0.25], [0.95, 0.05]])
    fset = filter_uncertain(probs, np.arange(4), 50.0, margin)
    tie_ok = len(fset) == 3
    ok = all(checks) and tie_ok
    _report(7, ok, f"{sum(checks)}/9 formula checks at 1e-6; "
                   f"tie-inclusion |F|={len(fset)} (want 3)")
    assert all(checks)
    assert tie_ok


def test_criterion_8_gradient_check():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 20))
        d = int(rng.integers(1, 6))
        C = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        y = rng.integers(0, C, size=n)
        W = rng.standard_normal((C, d))
        b = rng.standard_normal(C)
        l2 = float(rng.uniform(0.0, 0.5))
        gW, gb = softmax_gradients(W, b, X, y, l2)
        analytic = np.concatenate((gW.ravel(), gb))
        fd = np.empty_like(analytic)
        h = 1e-6
        flat_params = [(W, i) for i in np.ndindex(W.shape)] + \
                      [(b, (i,)) for i in range(C)]
        for pos, (arr, ix) in enumerate(flat_params):
            orig = arr[ix]
            arr[ix] = orig + h
            up = softmax_objective(W, b, X, y, l2)
            arr[ix] = orig - h
            down = softmax_objective(W, b, X, y, l2)
            arr[ix] = orig
            fd[pos] = (up - down) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(8, ok, f"worst relative gradient error {worst:.2e} over 20 instances")
    assert worst <= 1e-5


def test_criterion_9_determinism(tmp_path):
    features = tmp_path / "f.bin"
    labels = tmp_path / "l.txt"
    assert main(["gen-synth", "--out", str(features), "--labels", str(labels),
                 "--n", "120", "--d", "8", "--classes", "3", "--sep", "3",
                 "--seed", "9"]) == 0

    sweep_args = ["sweep", "--features", str(features), "--labels", str(labels),
                  "--holdout-frac", "0.25", "--step", "20", "--seeds", "1,2,3"]
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(sweep_args + ["--out", str(a)]) == 0
    assert main(sweep_args + ["--out", str(b)]) == 0
    sweep_ok = a.read_bytes() == b.read_bytes()

    al_args = ["al", "--features", str(features), "--labels", str(labels),
               "--holdout-frac", "0.25", "--selectors", "fl,dm,us,random",
               "--batch-pct", "10", "--beta-pct", "40", "--rounds", "3",
               "--seeds", "1,2"]
    c, d = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert main(al_args + ["--out", str(c)]) == 0
    assert main(al_args + ["--out", str(d)]) == 0
    al_ok = c.read_bytes() == d.read_bytes()

    rng = np.random.default_rng(1009)
    m = FeatureMatrix(rng.standard_normal((64, 9)).astype(np.float32))
    rt = tmp_path / "rt.bin"
    save_features(m, rt)
    rt_ok = np.array_equal(load_features(rt).values, m.values)

    ok = sweep_ok and al_ok and rt_ok
    _report(9, ok, f"sweep byte-identical: {sweep_ok}; al byte-identical: {al_ok}; "
                   f"feature round trip bit-exact: {rt_ok}")
    assert sweep_ok and al_ok and rt_ok
