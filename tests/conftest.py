import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from subsel import kernels, models

from subsel.dataset import FeatureMatrix
from subsel.kernels import DistanceKernel, SimilarityKernel, euclidean_distance


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
