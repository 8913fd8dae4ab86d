import itertools
import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from subsel import kernels, models

from subsel.dataset import FeatureMatrix
from subsel.kernels import DistanceKernel, SimilarityKernel, euclidean_distance
from subsel.objectives import INF, FacilityLocation, _check_subset, facility_location_value
from subsel.optimize import Selection, _argmax_fill, _check_start


@pytest.fixture
def hand_similarity():
    """Worked 3-point similarity kernel used across modules."""
    s = np.array([[1.0, 0.9, 0.1],
                  [0.9, 1.0, 0.2],
                  [0.1, 0.2, 1.0]])
    return SimilarityKernel(n=3, dense=s)


@pytest.fixture
def line_distance():
    """Distances between 1-D points at 0, 1, 10: squared, exactly 1, 81, 100."""
    return euclidean_distance(FeatureMatrix(np.array([[0.0], [1.0], [10.0]])))


def random_similarity_kernel(rng: np.random.Generator, n: int) -> SimilarityKernel:
    """Random symmetric kernel with unit diagonal and entries in [0, 1]."""
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    upper = np.triu(raw, 1)
    dense = upper + upper.T
    np.fill_diagonal(dense, 1.0)
    return SimilarityKernel(n=n, dense=dense)


def random_distance_kernel(rng: np.random.Generator, n: int, d: int = 3) -> DistanceKernel:
    """Euclidean distances between random points (a true metric)."""
    return euclidean_distance(random_features(rng, n, d))


def random_features(rng: np.random.Generator, n: int, d: int) -> FeatureMatrix:
    return FeatureMatrix(rng.standard_normal((n, d)))


# Whole-matrix references: the blocked and feature-backed kernels are
# checked against them.

def reference_mirror_upper(a, diagonal):
    upper = np.triu(a, 1)
    out = upper + upper.T
    np.fill_diagonal(out, diagonal)
    return out


def reference_euclidean(m):
    """The n x n euclidean distance matrix, mirrored from its upper triangle."""
    x = m.values.astype(np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    return reference_mirror_upper(np.sqrt(d2), 0.0)


def reference_farthest_point(dist, b):
    """Farthest point over a distance matrix: the row-major first maximum of
    the strict upper triangle ((0, 1) if none is positive), then the
    lowest-index farthest element until b are picked or none is farther
    than 0. Returns (indices, step values)."""
    n = dist.shape[0]
    if b == 1:
        return [0], [math.inf]
    flat = int(np.argmax(np.where(np.tri(n, dtype=bool), -1.0, dist)))
    picks = list(divmod(flat, n))
    steps = [math.inf, float(dist[picks[0], picks[1]])]
    while len(picks) < b:
        mindist = dist[:, picks].min(axis=1)
        mindist[picks] = -1.0
        e = int(np.argmax(mindist))
        if mindist[e] <= 0.0:
            break
        picks.append(e)
        steps.append(min(steps[-1], float(mindist[e])))
    return picks, steps


def to_dense(kernel: SimilarityKernel) -> np.ndarray:
    """The similarities a consumer reads, as a dense matrix: a sparse
    kernel's dropped entries read 0 and its diagonal 1."""
    if not kernel.is_sparse:
        return kernel.dense
    out = np.zeros((kernel.n, kernel.n))
    cols = np.repeat(np.arange(kernel.n), np.diff(kernel.col_ptr))
    out[kernel.rows, cols] = kernel.values
    np.fill_diagonal(out, 1.0)
    return out


def distances_among(kernel: DistanceKernel, idx) -> np.ndarray:
    """Distances among the elements idx, as a len(idx)^2 array, read as the
    kernel reads them: two rows of one group at exactly 0."""
    x, sq, g = kernel.x[idx], kernel.sq[idx], kernel.group[idx]
    d2 = kernels._squared_distances(x, sq, -2.0 * x, sq)
    d2[g[:, None] == g] = 0.0
    return np.sqrt(np.maximum(d2, 0.0))


def disparity_min_value(kernel: DistanceKernel, X) -> float:
    """Minimum pairwise distance within X; +inf sentinel when |X| <= 1."""
    idx = _check_subset(X, kernel.n)
    if idx.size <= 1:
        return INF
    sub = distances_among(kernel, idx)
    return float(sub[np.triu_indices(idx.size, k=1)].min())


# Optimizer references: lazy greedy and farthest point are checked against
# them.

def greedy_naive(obj, b: int) -> Selection:
    """Add the argmax-gain element per step (lowest index on ties) until the
    budget or a zero best gain, scanning every gain each step; lazy greedy
    must match it exactly."""
    _check_start(obj, b)
    steps: list[float] = []
    evals = _argmax_fill(obj, b, steps, 0)
    return Selection(list(obj.selected), steps, obj.value if steps else 0.0,
                     gain_evals=evals)


def brute_force(obj, b: int) -> Selection:
    """Exact optimum over every b-subset, scored from scratch. Subsets are
    visited in lexicographic order and the first maximum kept, so ties go
    to the smallest index set."""
    _check_start(obj, b)
    score = facility_location_value if isinstance(obj, FacilityLocation) else disparity_min_value
    best = max(itertools.combinations(range(obj.n), b), key=lambda X: score(obj.kernel, X))
    steps = [score(obj.kernel, best[:t + 1]) for t in range(b)]
    return Selection(list(best), steps, steps[-1])


# The fit's objective and gradients from raw parameters, composed of the
# pieces logreg_fit calls, for the finite-difference checks.

def softmax_objective(weights, bias, X, y, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||W||^2; the quantity the fit minimizes."""
    return models._objective(X @ weights.T + bias, weights, y, l2)


def softmax_gradients(weights, bias, X, y, l2: float):
    """Analytic gradients of softmax_objective w.r.t. weights and bias."""
    return models._gradients(models._row_softmax(X @ weights.T + bias), weights, X, y, l2)


class _NoRoom(np.ndarray):
    """A float64 array whose matrix products cannot be allocated."""

    def __matmul__(self, other):
        raise MemoryError("Unable to allocate")


@contextmanager
def no_room_for_products():
    """Make the dense build's x @ x.T fail to allocate, as a too-large n x n
    result would, without allocating it; kernels._gram still translates the
    failure."""
    gram = kernels._gram

    def gram_without_room(x):
        return gram(x.view(_NoRoom))

    with mock.patch.object(kernels, "_gram", gram_without_room):
        yield


@contextmanager
def no_room_for_distances():
    """Make kNN scoring's holdout x train squared distances fail to
    allocate, as a too-large array would, without allocating it."""
    def distances_without_room(q, x):
        raise MemoryError("Unable to allocate")

    with mock.patch.object(models, "_sq_distances", distances_without_room):
        yield


def peak_bytes(fn):
    """Peak bytes newly allocated while fn runs (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
