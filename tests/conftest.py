import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from subsel import kernels

from subsel.dataset import FeatureMatrix
from subsel.kernels import DistanceKernel, SimilarityKernel


@pytest.fixture
def hand_similarity():
    """Worked 3-point similarity kernel used across modules."""
    s = np.array([[1.0, 0.9, 0.1],
                  [0.9, 1.0, 0.2],
                  [0.1, 0.2, 1.0]])
    return SimilarityKernel(n=3, dense=s, symmetric=True)


@pytest.fixture
def line_distance():
    """Distances between 1-D points at 0, 1, 10."""
    pts = np.array([0.0, 1.0, 10.0])
    d = np.abs(pts[:, None] - pts[None, :])
    return DistanceKernel(n=3, dense=d)


def random_similarity_kernel(rng: np.random.Generator, n: int) -> SimilarityKernel:
    """Random symmetric kernel with unit diagonal and entries in [0, 1]."""
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    upper = np.triu(raw, 1)
    dense = upper + upper.T
    np.fill_diagonal(dense, 1.0)
    return SimilarityKernel(n=n, dense=dense, symmetric=True)


def random_distance_kernel(rng: np.random.Generator, n: int, d: int = 3) -> DistanceKernel:
    """Euclidean distances between random points (a true metric)."""
    pts = rng.standard_normal((n, d))
    diff = pts[:, None, :] - pts[None, :, :]
    dense = np.sqrt((diff ** 2).sum(axis=2))
    upper = np.triu(dense, 1)
    dense = upper + upper.T
    return DistanceKernel(n=n, dense=dense)


def random_features(rng: np.random.Generator, n: int, d: int) -> FeatureMatrix:
    return FeatureMatrix(rng.standard_normal((n, d)))


class _NoRoom(np.ndarray):
    """A float64 array whose matrix products cannot be allocated."""

    def __matmul__(self, other):
        raise MemoryError("Unable to allocate")


@contextmanager
def no_room_for_products():
    """Make every kernel builder's rows an array whose x @ x.T fails to
    allocate, as a too-large n x n result would, without allocating it."""
    select_rows = kernels._select_rows

    def rows_without_room(m, rows):
        x, idx = select_rows(m, rows)
        return x.view(_NoRoom), idx

    with mock.patch.object(kernels, "_select_rows", rows_without_room):
        yield


def peak_bytes(fn):
    """Peak bytes newly allocated while fn runs (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
