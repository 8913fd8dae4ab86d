"""Budget-constrained subset maximization.

Four routes: naive greedy (any gain-scored objective), lazy greedy
(monotone submodular only; identical output to naive, fewer gain
evaluations), farthest-point greedy for dispersion, and an exhaustive
oracle for tests. Ties always break toward the lowest index, so every
optimizer is deterministic.

``select_subset`` pairs each objective name, fl or dm, with its kernel
and optimizer; no other module makes that choice.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import FeatureMatrix
from .errors import CapacityError, UnsupportedObjectiveError, ValidationError
from .kernels import cosine_similarity, euclidean_distance, row_blocks, sparsify_knn
from .objectives import INF, DisparityMin, FacilityLocation

BRUTE_FORCE_CAP = 10 ** 6
EXACT_PAIR_THRESHOLD = 2048
OBJECTIVES = ("fl", "dm")


@dataclass(frozen=True)
class BudgetSpec:
    """Cardinality budget; must not exceed the ground-set size in use."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValidationError(f"budget must be >= 1, got {self.b}")


@dataclass
class Selection:
    """Ordered chosen indices with the objective value after each step."""

    indices: list[int]
    step_values: list[float]
    final_value: float
    gain_evals: int = field(default=0, compare=False)


def _check_budget(obj, budget: BudgetSpec) -> int:
    if obj.n < 1:
        raise ValidationError("ground set is empty")
    if budget.b > obj.n:
        raise ValidationError(f"budget {budget.b} exceeds ground-set size {obj.n}")
    if obj.selected:
        raise ValidationError("optimizer requires a fresh objective state")
    return budget.b


def _argmax_fill(obj, b: int, steps: list[float], evals: int) -> int:
    """Add the argmax-gain element until |X| = b or the best gain is zero.

    Lowest index wins ties and zero-gain elements are never added. Appends
    the objective value after each add to steps and returns evals plus
    the number of gains scanned.
    """
    while len(obj.selected) < b:
        gains = obj.gains_all()
        evals += obj.n - len(obj.selected)
        e = int(np.argmax(gains))  # first max, hence lowest index on ties
        if gains[e] <= 0.0:
            break
        obj.add(e)
        steps.append(obj.value)
    return evals


def padded_order(sel: Selection, n: int, b: int) -> np.ndarray:
    """The greedy's picks, then the unchosen indices of range(n) in
    ascending order, b indices in all.

    A greedy stops early only when every remaining gain is zero; a greedy
    that kept going would then take the rest lowest index first, which is
    the order appended here.
    """
    order = np.array(sel.indices, dtype=np.int64)
    if order.size < b:
        rest = np.setdiff1d(np.arange(n, dtype=np.int64), order)
        order = np.concatenate((order, rest[:b - order.size]))
    return order


def greedy_naive(obj, budget: BudgetSpec) -> Selection:
    """Add the argmax-gain element per step; lowest index wins ties.

    Stops at the budget or as soon as the best gain is zero; zero-gain
    elements are never added.
    """
    b = _check_budget(obj, budget)
    steps: list[float] = []
    evals = _argmax_fill(obj, b, steps, 0)
    return Selection(list(obj.selected), steps, obj.value if steps else 0.0,
                     gain_evals=evals)


def greedy_lazy(obj, budget: BudgetSpec) -> Selection:
    """Priority-queue greedy with stale gains; matches greedy_naive exactly.

    Heap keys are (-gain, index), so among equal stale gains the lower
    index surfaces first; a popped entry whose gain was refreshed during
    the current step is the true argmax by submodularity.
    """
    if not getattr(obj, "monotone_submodular", False):
        raise UnsupportedObjectiveError(
            "lazy greedy requires a monotone submodular objective"
        )
    b = _check_budget(obj, budget)
    gains = obj.gains_all()
    evals = obj.n
    heap = [(-float(gains[e]), e, 0) for e in range(obj.n)]
    heapq.heapify(heap)
    steps: list[float] = []
    step = 0
    while heap and len(obj.selected) < b:
        neg_gain, e, stamp = heapq.heappop(heap)
        if stamp == step:
            if -neg_gain <= 0.0:
                break
            obj.add(e)
            steps.append(obj.value)
            step += 1
        else:
            g = obj.gain(e)
            evals += 1
            heapq.heappush(heap, (-g, e, step))
    return Selection(list(obj.selected), steps, obj.value if steps else 0.0,
                     gain_evals=evals)


def farthest_point(obj: DisparityMin, budget: BudgetSpec) -> Selection:
    """Dispersion greedy: seed, then repeatedly add the farthest element.

    Ground sets of at most EXACT_PAIR_THRESHOLD elements seed with the
    exact maximum-distance pair (lowest index pair on ties), which preserves
    the classical 1/2 bound; larger ones seed with the element farthest
    from the medoid. A budget of 1 returns the lowest-index singleton at
    the +inf sentinel.
    """
    if not isinstance(obj, DisparityMin):
        raise UnsupportedObjectiveError("farthest_point requires a dispersion objective")
    b = _check_budget(obj, budget)
    evals = 0
    if b == 1:
        obj.add(0)
        return Selection([0], [INF], INF)
    dist = obj.kernel.dense
    if obj.n <= EXACT_PAIR_THRESHOLD:
        # row-major first maximum of the strict upper triangle, one row
        # block at a time: the lexicographically smallest pair on ties
        top = None
        for lo, hi in row_blocks(obj.n):
            masked = np.where(np.tri(hi - lo, obj.n, lo, dtype=bool), -1.0, dist[lo:hi])
            flat = int(np.argmax(masked))
            if top is None or masked.flat[flat] > top:
                top = masked.flat[flat]
                i, j = lo + flat // obj.n, flat % obj.n
        obj.add(i)
        obj.add(j)
        evals += obj.n * (obj.n - 1) // 2
    else:
        medoid = int(np.argmin(dist.sum(axis=1)))
        obj.add(int(np.argmax(dist[medoid])))
        evals += obj.n
    steps = [INF] if len(obj.selected) == 1 else [INF, obj.value]
    evals = _argmax_fill(obj, b, steps, evals)
    return Selection(list(obj.selected), steps, obj.value, gain_evals=evals)


def select_subset(features: FeatureMatrix, objective: str, budget: int,
                  rows=None, kappa: int | None = None) -> Selection:
    """Select up to budget elements of features for objective fl or dm.

    fl runs lazy greedy facility location on the shifted-cosine kernel,
    cut to each row's kappa largest similarities when kappa is given; dm
    runs farthest-point greedy on the euclidean kernel. With rows, the
    ground set is those rows and the selected indices are positions in
    rows.
    """
    spec = BudgetSpec(budget)
    if objective == "fl":
        kernel = cosine_similarity(features, rows=rows)
        if kappa is not None:
            kernel = sparsify_knn(kernel, kappa)
        return greedy_lazy(FacilityLocation(kernel), spec)
    if objective == "dm":
        if kappa is not None:
            raise ValidationError("--knn-sparsify applies only to the fl objective")
        return farthest_point(DisparityMin(euclidean_distance(features, rows=rows)), spec)
    raise ValidationError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")


def brute_force(obj, budget: BudgetSpec) -> Selection:
    """Exact optimum by enumerating all budget-sized subsets.

    Combinations are visited in lexicographic order and only strict
    improvements are kept, so ties resolve to the smallest index set.
    """
    b = _check_budget(obj, budget)
    if math.comb(obj.n, b) > BRUTE_FORCE_CAP:
        raise CapacityError(
            f"C({obj.n},{b}) = {math.comb(obj.n, b)} exceeds cap {BRUTE_FORCE_CAP}"
        )
    best_set: tuple[int, ...] | None = None
    best_value = -INF
    for combo in itertools.combinations(range(obj.n), b):
        value = obj.scratch_value(combo)
        if value > best_value:
            best_value = value
            best_set = combo
    steps = [obj.scratch_value(best_set[:t + 1]) for t in range(len(best_set))]
    return Selection(list(best_set), steps, best_value)
