"""Budget-constrained subset maximization.

Two routes: lazy greedy for monotone submodular objectives (stale gain
bounds rescored in batches, and on a symmetric dense kernel a bound kept
fresh across a pick that leaves its gain's terms unchanged; it picks
exactly what a naive greedy scanning every gain each step would, and the
tests hold that naive greedy as its reference), and farthest-point greedy
for dispersion, seeded with the exact maximum-distance pair at every
ground-set size. Ties always break toward the lowest index, so every
optimizer is deterministic.

``select_subset`` pairs each objective name, fl or dm, with its kernel
and optimizer; no other module makes that choice. Dense fl holds one
n x n float32 kernel, since lazy greedy reads all of it; kappa-sparse fl
keeps O(n * kappa) entries streamed from the features, and dm runs
farthest point from the features in O(n * d + block * n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import FeatureMatrix, require_choice, require_int
from .errors import UnsupportedObjectiveError, ValidationError
from .kernels import cosine_similarity, euclidean_distance, first_k
from .objectives import INF, DisparityMin, FacilityLocation

# stale bounds a refresh scores in its first gains_of call, and in each later
# one while stale bounds remain ahead of the best fresh gain
_REFRESH_FIRST = 8
_REFRESH_CHUNK = 64
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


def _refresh(obj, ub: np.ndarray, fresh: np.ndarray) -> int:
    """Rescore stale bounds, in batched gains_of calls, until the argmax of
    ub is fresh; returns the number of gains scored. Called when the argmax
    of ub is stale; every picked bound reads -inf and is marked fresh.

    The first batch is the _REFRESH_FIRST highest bounds. Each later one is
    the _REFRESH_CHUNK highest of the stale bounds ahead of the best fresh
    gain (above it, or equal to it at a lower index); a bound not ahead of
    it cannot become the argmax, so it is not scored. Equal bounds are taken
    lowest index first, the order in which the argmax reads them.
    """
    ahead = np.flatnonzero(first_k(-ub[None], min(_REFRESH_FIRST, ub.size))[0] & ~fresh)
    evals = 0
    while ahead.size:
        ub[ahead] = obj.gains_of(ahead)
        fresh[ahead] = True
        evals += ahead.size
        if fresh[ub.argmax()]:
            break
        masked = np.where(fresh, ub, -np.inf)
        top = int(masked.argmax())  # the best fresh gain, lowest index on ties
        ahead = np.flatnonzero(~fresh & (ub >= masked[top]))
        ahead = ahead[(ub[ahead] > masked[top]) | (ahead < top)]
        if ahead.size > _REFRESH_CHUNK:
            ahead = ahead[first_k(-ub[None, ahead], _REFRESH_CHUNK)[0]]
    return evals


def greedy_lazy(obj: FacilityLocation, b: int) -> Selection:
    """Lazy greedy (Minoux 1978); picks exactly what the naive argmax scan
    (the tests' reference) picks, with fewer gain evaluations.

    ub holds each candidate's last exact gain, an upper bound on its current
    gain by submodularity, and -inf once picked; fresh marks the bounds that
    equal the current gain (and the picked). A pick on a symmetric dense
    kernel that raises at most _REFRESH_FIRST rows' maxima leaves candidate
    j fresh unless s_ij exceeds the old maximum of a raised row i. Each of
    j's terms max(s_ij - best_i, 0) then keeps its value, 0 on every raised
    row, so gains_of would sum the same gain. Row i is read as the
    contiguous column i, hence the symmetry, and the check reads no more
    entries than the first refresh batch would read. Any other pick leaves
    every unpicked bound stale. When the argmax of ub is stale, _refresh
    rescores stale bounds in batched gains_of calls until it is fresh. A
    fresh argmax is then an exact gain no other gain exceeds, and the
    lowest index of any that equal it, as in the naive scan. Each candidate
    is scored at most once per step.
    """
    if not isinstance(obj, FacilityLocation):
        raise UnsupportedObjectiveError("lazy greedy requires a facility-location objective")
    _check_start(obj, b)
    ub = np.array(obj.gains_all(), dtype=np.float64)
    fresh = np.ones(obj.n, dtype=bool)
    evals = obj.n
    steps: list[float] = []
    k = obj.kernel
    # row i of an exactly symmetric dense kernel is its contiguous column i
    rows_of = k.dense.T if k.symmetric and not k.is_sparse else None
    while len(obj.selected) < b:
        e = int(ub.argmax())  # first max, hence lowest index on ties
        if not fresh[e]:
            evals += _refresh(obj, ub, fresh)
            e = int(ub.argmax())
        if ub[e] <= 0.0:
            break
        raised = obj.add(e)
        steps.append(obj.value)
        ub[e] = -np.inf
        if rows_of is not None and raised[0].size <= _REFRESH_FIRST:
            for i, old in zip(*(a.tolist() for a in raised)):
                np.logical_and(fresh, rows_of[i] <= old, out=fresh)
            fresh |= obj.selected_mask  # the pick's own row cleared it; keep picks fresh
        else:
            np.copyto(fresh, obj.selected_mask)
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

