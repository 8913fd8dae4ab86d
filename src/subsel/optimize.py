"""Budget-constrained subset maximization.

Two routes: lazy greedy for monotone submodular objectives (stale gains
rescored in blocks; it picks exactly what a naive greedy scanning every
gain each step would, and the tests hold that naive greedy as its
reference), and farthest-point greedy for dispersion, seeded with the
exact maximum-distance pair at every ground-set size. Ties always break
toward the lowest index, so every optimizer is deterministic.

``select_subset`` pairs each objective name, fl or dm, with its kernel
and optimizer; no other module makes that choice. Dense fl holds one
n x n float32 kernel, since lazy greedy reads all of it; kappa-sparse fl
keeps O(n * kappa) entries streamed from the features, and dm runs
farthest point from the features in O(n * d + block * n) memory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .dataset import FeatureMatrix, require_choice, require_int
from .errors import UnsupportedObjectiveError, ValidationError
from .kernels import cosine_similarity, euclidean_distance
from .objectives import INF, DisparityMin, FacilityLocation

_REFRESH_BLOCK = 16  # stale heap entries scored per gains_of call
OBJECTIVES = ("fl", "dm")


@dataclass
class Selection:
    """Ordered chosen indices with the objective value after each step."""

    indices: list[int]
    step_values: list[float]
    final_value: float
    gain_evals: int = field(default=0, compare=False)


def _check_budget(n: int, b: int) -> None:
    """Raise a ValidationError unless the budget b lies in [1, n]."""
    if n < 1:
        raise ValidationError("ground set is empty")
    require_int(b, "budget", 1)
    if b > n:
        raise ValidationError(f"budget {b} exceeds ground-set size {n}")


def _check_start(obj, b: int) -> None:
    """_check_budget for obj's ground set, and a fresh objective state."""
    _check_budget(obj.n, b)
    if obj.selected:
        raise ValidationError("optimizer requires a fresh objective state")


def _argmax_fill(obj, b: int, steps: list[float], evals: int) -> int:
    """Add the argmax-gain element until |X| = b or the best gain is zero.

    Lowest index wins ties and zero-gain elements are never added. Appends
    the objective value after each add to steps and returns evals plus
    the number of gains scanned.
    """
    while len(obj.selected) < b:
        gains = obj.gains_all()
        evals += obj.n - len(obj.selected)
        e = int(gains.argmax())  # first max, hence lowest index on ties
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


def greedy_lazy(obj, b: int) -> Selection:
    """Priority-queue greedy with stale gains; picks exactly what the naive
    argmax scan (the tests' reference) picks, with fewer gain evaluations.

    Keys are (-gain, index, step scored); a stale top has up to _REFRESH_BLOCK
    stale entries rescored by one gains_of call. Fresh keys are exact, stale
    ones upper bounds (submodularity): a fresh top is the lowest-index argmax.
    """
    if not getattr(obj, "monotone_submodular", False):
        raise UnsupportedObjectiveError(
            "lazy greedy requires a monotone submodular objective"
        )
    _check_start(obj, b)
    gains = obj.gains_all()
    evals = obj.n
    heap = [(-float(gains[e]), e, 0) for e in range(obj.n)]
    heapq.heapify(heap)
    steps: list[float] = []
    step = 0
    while heap and len(obj.selected) < b:
        if heap[0][2] == step:
            neg_gain, e, _ = heapq.heappop(heap)
            if -neg_gain <= 0.0:
                break
            obj.add(e)
            steps.append(obj.value)
            step += 1
        else:
            stale = []
            while heap and heap[0][2] != step and len(stale) < _REFRESH_BLOCK:
                stale.append(heapq.heappop(heap)[1])
            for e, g in zip(stale, obj.gains_of(stale).tolist()):
                heapq.heappush(heap, (-g, e, step))
            evals += len(stale)
    return Selection(list(obj.selected), steps, obj.value if steps else 0.0,
                     gain_evals=evals)


def farthest_point(obj: DisparityMin, b: int) -> Selection:
    """Dispersion greedy: seed, then repeatedly add the farthest element.

    The seed is the exact maximum-distance pair (lowest index pair on
    ties), which gives the classical 1/2 bound (Ravi, Rosenkrantz & Tayi,
    Oper. Res. 1994). A budget of 1 returns the lowest-index singleton at
    the +inf sentinel. The seed and every later pick compare squared
    distances, so ties are judged on them, lowest index first; the step
    values are distances. Copies of a selected row score exactly 0, so
    the greedy stops, short of the budget, once only copies remain.
    """
    if not isinstance(obj, DisparityMin):
        raise UnsupportedObjectiveError("farthest_point requires a dispersion objective")
    _check_start(obj, b)
    if b == 1:
        obj.add(0)
        return Selection([0], [INF], INF)
    n = obj.n
    i, j = obj.kernel.max_pair()
    obj.add(i)
    obj.add(j)
    steps = [INF, obj.value]
    evals = _argmax_fill(obj, b, steps, n * (n - 1) // 2)
    return Selection(list(obj.selected), steps, obj.value, gain_evals=evals)


def select_subset(features: FeatureMatrix, objective: str, budget: int,
                  kappa: int | None = None) -> Selection:
    """Select up to budget elements of features for objective fl or dm.

    fl runs lazy greedy facility location on the dense shifted-cosine
    kernel, or, when kappa is given, on each row's kappa largest
    similarities streamed from the features; dm runs farthest-point greedy
    on feature-backed euclidean distances. Only dense fl builds an n x n
    matrix.
    """
    require_choice(objective, OBJECTIVES, "objective")
    _check_budget(features.n, budget)
    if objective == "fl":
        kernel = cosine_similarity(features, kappa=kappa)
        return greedy_lazy(FacilityLocation(kernel), budget)
    if kappa is not None:
        raise ValidationError("--knn-sparsify applies only to the fl objective")
    return farthest_point(DisparityMin(euclidean_distance(features)), budget)

