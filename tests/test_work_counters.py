"""Work counters, which read no clock: upper bounds on lazy greedy's gain
evaluations for fl at the benchmark shapes (perfbench/workloads.py), on
gen-synth seed 16.

Counts are exact on any machine, where timing on a small shared host cannot
resolve gaps under ~20% in short runs. A change that lowers a count tightens
its bound here; a change that raises one says why in CHANGES.md.
"""

import pytest

from subsel.dataset import gen_synthetic, split
from subsel.optimize import select_subset

SEED = 16


@pytest.fixture(scope="module")
def select_features():
    """The select workload's data: n = 2,100, d = 64, 10 classes, sep 0.5."""
    return gen_synthetic(2100, 64, 10, 0.5, SEED).features


@pytest.mark.parametrize("kappa, bound", [(None, 19_416), (25, 10_795)])
def test_select_gain_evals(select_features, kappa, bound):
    """select's fl routes, dense and kappa = 25, at its 10% budget."""
    assert select_subset(select_features, "fl", 210, kappa=kappa).gain_evals <= bound


def test_sweep_full_order_gain_evals():
    """sweep's full-budget fl order over the training split of its data
    (n = 800, d = 32, 10 classes, sep 0.5, holdout 0.33, split seed 0)."""
    train, _ = split(gen_synthetic(800, 32, 10, 0.5, SEED), 0.33)
    assert select_subset(train.features, "fl", train.n).gain_evals <= 5_462
