import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes, softmax_gradients, softmax_objective
from subsel import kernels, models
from subsel.dataset import (
    FeatureMatrix,
    LabeledDataset,
    LabelVector,
    SplitSpec,
    gen_synthetic,
    split,
)
from subsel.errors import ValidationError
from subsel.models import (
    _ARMIJO_C1,
    _MIN_STEP,
    DEFAULT_TOL,
    LogRegModel,
    _margins,
    _newton_cg_direction,
    _row_softmax,
    _softmax_hvp,
    _sq_distances,
    knn_accuracy,
    knn_subset_accuracies,
    logreg_fit,
)


def make_dataset(values, labels):
    return LabeledDataset(FeatureMatrix(np.asarray(values, dtype=np.float64)),
                          LabelVector(np.asarray(labels)))


def predicts(train, query, label, k):
    """Whether kNN on train labels the query point with label: knn_accuracy
    on the one-point holdout it makes is exactly 1."""
    return knn_accuracy(train, make_dataset([query], [label]), k) == 1.0


class TestKnnPredict:
    def test_k1_returns_the_matching_point_label(self):
        train = make_dataset([[0.0], [5.0], [9.0]], [2, 0, 1])
        assert predicts(train, [5.0], 0, 1)

    def test_majority_vote(self):
        train = make_dataset([[0.0], [0.1], [0.2], [9.0]], [0, 0, 1, 1])
        assert predicts(train, [0.0], 0, 3)

    def test_vote_tie_goes_to_smallest_label(self):
        train = make_dataset([[0.0], [1.0]], [1, 0])
        # both points are the two nearest; votes tie 1-1; label 0 wins
        assert predicts(train, [0.4], 0, 2)

    def test_distance_tie_goes_to_lower_training_index(self):
        train = make_dataset([[0.0], [2.0], [9.0]], [1, 0, 0])
        # query 1.0 is exactly between rows 0 and 1; row 0 is "nearer"
        assert predicts(train, [1.0], 1, 1)

    def test_dimension_mismatch_rejected(self):
        train = make_dataset([[0.0, 1.0]], [0])
        with pytest.raises(ValidationError):
            predicts(train, [0.0], 0, 1)

    def test_k_larger_than_train_rejected(self):
        train = make_dataset([[0.0]], [0])
        with pytest.raises(ValidationError):
            predicts(train, [0.0], 0, 2)

    def test_invariant_to_row_permutation_with_distinct_distances(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, size=30)
        queries = rng.standard_normal((10, 4))
        train = make_dataset(values, labels)
        perm = rng.permutation(30)
        shuffled = make_dataset(values[perm], labels[perm])
        holdout = reference_holdout(train, queries, 5)
        assert knn_accuracy(train, holdout, 5) == 1.0
        assert knn_accuracy(shuffled, holdout, 5) == 1.0


def chunked_knn_reference(train, queries, k, chunk=256):
    """kNN as computed before the row-block pass: chunks of 256 queries,
    chunk x m x d temporaries, and one bincount vote per query row."""
    x = train.features.values.astype(np.float64)
    y = train.labels.labels
    queries = np.asarray(queries, dtype=np.float64)
    preds = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], chunk):
        block = queries[start:start + chunk]
        d2 = ((block[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for r in range(order.shape[0]):
            counts = np.bincount(y[order[r]], minlength=train.n_classes)
            preds[start + r] = int(counts.argmax())
    return preds


def reference_holdout(train, queries, k):
    """The query rows as a holdout labelled with chunked_knn_reference's
    predictions, computed from the features the holdout stores (float32)."""
    features = FeatureMatrix(np.asarray(queries, dtype=np.float64))
    labels = chunked_knn_reference(train, features.values, k)
    return LabeledDataset(features, LabelVector(labels))


@st.composite
def tie_dense_knn_cases(draw):
    """Duplicated small-integer rows, queries drawn partly from the training
    rows, and any k <= m: many equal distances and many split votes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, d = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    distinct = rng.integers(-2, 3, size=(draw(st.integers(1, m)), d))
    values = distinct[rng.integers(0, distinct.shape[0], size=m)].astype(np.float64)
    labels = rng.integers(0, draw(st.integers(1, 4)), size=m)
    fresh = rng.integers(-2, 3, size=(draw(st.integers(0, 20)), d))
    queries = np.vstack([values[rng.integers(0, m, size=draw(st.integers(0, 20)))],
                         fresh, np.zeros((1, d))])
    return make_dataset(values, labels), queries, draw(st.integers(1, m))


class TestKnnRowBlocks:
    """The row-block distance pass and vectorized vote reproduce the
    chunked per-row kNN byte for byte, at any block size."""

    @pytest.mark.parametrize("block_elems", [1, 7, 40, kernels._BLOCK_ELEMS])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=tie_dense_knn_cases())
    def test_byte_equal_to_the_chunked_vote_on_tie_dense_data(self, block_elems, case):
        train, queries, k = case
        holdout = reference_holdout(train, queries, k)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            assert knn_accuracy(train, holdout, k) == 1.0

    def test_peak_memory_at_the_sweep_shape(self):
        # 264 queries against 536 training rows in d = 32: the distance
        # array is 1.1 MB, chunk x m x d temporaries would be ~36 MB
        rng = np.random.default_rng(46)
        train = make_dataset(rng.standard_normal((536, 32)), rng.integers(0, 3, 536))
        holdout = reference_holdout(train, rng.standard_normal((264, 32)), 5)
        tracemalloc.start()
        try:
            accuracy = knn_accuracy(train, holdout, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert accuracy == 1.0


def jittered(rng, base, rows):
    """rows rows, each a random row of base plus 1e-9 jitter: near-duplicate
    groups whose distances differ only in their last bits."""
    return (base[rng.integers(0, base.shape[0], size=rows)]
            + 1e-9 * rng.standard_normal((rows, base.shape[1])))


class TestKnnDistances:
    """The blocked distance pass gives the per-pair expression's bytes."""

    @pytest.mark.parametrize("block_elems", [1, 7, kernels._BLOCK_ELEMS])
    @pytest.mark.parametrize("m,d", [(40, 3), (536, 32)])
    def test_byte_equal_to_the_per_pair_expression(self, block_elems, m, d):
        # real-valued rows and queries in near-duplicate groups: distances
        # are inexact and differ only in their last bits within a group
        rng = np.random.default_rng(47)
        base = rng.standard_normal((5, d))
        x, q = jittered(rng, base, m), jittered(rng, base, 30)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            d2 = _sq_distances(q, x)
        expected = ((q[:, None, :] - x[None]) ** 2).sum(axis=2)
        assert d2.tobytes() == expected.tobytes()


@st.composite
def subset_knn_cases(draw):
    """A tie-dense kNN case with holdout labels, and index arrays of at
    least k training rows: one of exactly k, then sorted ones, permuted
    (greedy-order-like) ones, ones that repeat indices and the whole set."""
    train, queries, k = draw(tie_dense_knn_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    holdout = make_dataset(queries, rng.integers(0, 4, size=queries.shape[0]))
    m = train.n
    subsets = [rng.permutation(m)[:k]]
    for kind in draw(st.lists(st.sampled_from(["sorted", "permuted", "repeats",
                                               "whole"]), max_size=4)):
        size = int(rng.integers(k, m + 1))
        if kind == "sorted":
            subsets.append(np.sort(rng.choice(m, size=size, replace=False)))
        elif kind == "permuted":
            subsets.append(rng.permutation(m)[:size])
        elif kind == "whole":
            subsets.append(np.arange(m))
        else:
            subsets.append(rng.integers(0, m, size=size))
    return train, holdout, subsets, k


class TestKnnSubsetAccuracies:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=subset_knn_cases())
    def test_equal_to_knn_on_each_subset_copy(self, case):
        train, holdout, subsets, k = case
        queries = holdout.features.values
        assert knn_subset_accuracies(train, holdout, subsets, k) == [
            float((chunked_knn_reference(train.subset(s), queries, k)
                   == holdout.labels.labels).mean()) for s in subsets]

    def test_the_whole_set_votes_without_copying_the_distances(self):
        # 264 queries against 536 training rows in d = 32 (the sweep shape):
        # a copy of the 1.1 MB distance array's columns would double it
        rng = np.random.default_rng(48)
        train = make_dataset(rng.standard_normal((536, 32)), rng.integers(0, 3, 536))
        holdout = make_dataset(rng.standard_normal((264, 32)), rng.integers(0, 3, 264))
        tracemalloc.start()
        try:
            accuracy = knn_accuracy(train, holdout, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * holdout.n * train.n
        whole = train.subset(np.arange(train.n))
        assert accuracy == float((chunked_knn_reference(whole, holdout.features.values, 5)
                                  == holdout.labels.labels).mean())

    def test_k_above_a_subset_size_or_a_dimension_mismatch_rejected(self):
        train = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0])
        with pytest.raises(ValidationError, match="k=3 exceeds training size 2"):
            knn_subset_accuracies(train, train, [[0, 1, 2], [2, 0]], 3)
        holdout = make_dataset([[0.0, 1.0]], [0])
        with pytest.raises(ValidationError, match="holdout dimension 2"):
            knn_subset_accuracies(train, holdout, [[0, 1, 2]], 1)

    def test_k_below_one_rejected(self):
        train = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0])
        for k in (0, -1):
            with pytest.raises(ValidationError, match=f"^k must be >= 1, got {k}$"):
                knn_subset_accuracies(train, train, [[0, 1, 2]], k=k)

    def test_subsets_vote_without_a_copy_of_their_columns(self):
        # 1,000 queries against 2,000 training rows: the distance array is
        # 16 MB, a copy of a 1,000-row subset's columns would add 8 MB
        rng = np.random.default_rng(50)
        train = make_dataset(rng.standard_normal((2000, 4)), rng.integers(0, 3, 2000))
        holdout = make_dataset(rng.standard_normal((1000, 4)), rng.integers(0, 3, 1000))
        subset = rng.permutation(2000)[:1000]
        tracemalloc.start()
        try:
            accuracy = knn_subset_accuracies(train, holdout, [subset], 5)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * holdout.n * (train.n + subset.size // 2)
        assert accuracy == float((chunked_knn_reference(train.subset(subset),
                                                        holdout.features.values, 5)
                                  == holdout.labels.labels).mean())


def per_pair_predictions(train, queries, subsets, k):
    """kNN predictions of each subset from the per-pair expression alone: one
    whole queries x train array of squared distances, and a stable argsort
    of each subset's columns."""
    x = train.features.values.astype(np.float64)
    q = np.asarray(queries, dtype=np.float64)
    d2 = ((q[:, None, :] - x[None]) ** 2).sum(axis=2)
    y = train.labels.labels
    return [np.array([np.bincount(votes, minlength=train.n_classes).argmax()
                      for votes in y[s][np.argsort(d2[:, s], axis=1, kind="stable")[:, :k]]])
            for s in subsets]


@st.composite
def screened_knn_cases(draw):
    """Training sets wide enough for the screen's window: near-tie groups
    (jittered, the generator of TestKnnDistances), rows a few float32 steps
    from a far point (exact ties in D, which the GEMM form's rounding splits
    either way), or exact duplicates of generic rows; and subsets of exactly
    k rows, tiny ones, ones that repeat indices, and larger sorted, permuted
    and whole ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, nq = draw(st.integers(80, 300)), draw(st.integers(1, 30))
    d, k = draw(st.sampled_from([1, 3, 32])), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["jittered", "far", "duplicates"]))
    if kind == "jittered":
        base = rng.standard_normal((draw(st.integers(1, 40)), d))
        x, q = jittered(rng, base, n), jittered(rng, base, nq)
    elif kind == "far":  # float32 steps at 1000 are 2^-14
        x = 1000.0 + 2.0 ** -14 * rng.integers(-2, 3, size=(n, d))
        q = 1000.0 + 2.0 ** -14 * rng.integers(-2, 3, size=(nq, d))
    else:
        distinct = rng.standard_normal((draw(st.integers(1, n)), d))
        x = distinct[rng.integers(0, distinct.shape[0], size=n)]
        q = np.vstack([x[rng.integers(0, n, size=nq // 2)],
                       rng.standard_normal((nq - nq // 2, d))])
    train = make_dataset(x, rng.integers(0, draw(st.integers(1, 4)), size=n))
    subsets = [rng.permutation(n)[:k]]
    for kind in draw(st.lists(st.sampled_from(["tiny", "repeats", "sorted", "permuted",
                                               "whole"]), min_size=1, max_size=4)):
        size = int(rng.integers(k, 3 * k + 1) if kind == "tiny" else rng.integers(k, n + 1))
        if kind == "repeats":
            subsets.append(rng.integers(0, n, size=size))
        elif kind == "sorted":
            subsets.append(np.sort(rng.choice(n, size=size, replace=False)))
        elif kind == "whole":
            subsets.append(np.arange(n))
        else:
            subsets.append(rng.permutation(n)[:size])
    return train, q.astype(np.float32), subsets, k  # as a holdout stores them


def routed_rows(score):
    """score()'s result, the holdout rows it sent to _subset_votes, and those
    it scored by the per-pair expression."""
    with mock.patch.object(models, "_subset_votes", wraps=models._subset_votes) as subset, \
            mock.patch.object(models, "_sq_distances", wraps=models._sq_distances) as per_pair:
        result = score()
    return (result, *(sum(call.args[0].shape[0] for call in fn.call_args_list)
                      for fn in (subset, per_pair)))


class TestScreenedKnn:
    """The screened GEMM and its margin pick each row's k nearest exactly as
    the per-pair expression does, holding no holdout x train array."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=screened_knn_cases())
    def test_equal_to_the_per_pair_expression(self, case):
        train, queries, subsets, k = case
        preds = per_pair_predictions(train, queries, subsets, k)
        for labels in preds:  # a holdout labelled by each subset's predictions
            holdout = make_dataset(queries, labels)
            assert knn_subset_accuracies(train, holdout, subsets, k) == [
                float((p == labels).mean()) for p in preds]

    def test_generic_rows_stay_in_the_window_and_ties_leave_it(self):
        rng = np.random.default_rng(53)
        x, q = rng.standard_normal((2000, 16)), rng.standard_normal((300, 16))
        subsets = [np.arange(2000)] + [rng.permutation(2000)[:m] for m in (250, 500, 1000)]
        train = make_dataset(x, rng.integers(0, 3, 2000))
        holdout = make_dataset(q, rng.integers(0, 3, 300))
        _, subset_rows, per_pair_rows = routed_rows(
            lambda: knn_subset_accuracies(train, holdout, subsets, 5))
        assert subset_rows <= 3 and per_pair_rows == 0
        # each training row twice: the k-th and (k+1)-th nearest often tie
        twice = make_dataset(np.vstack([x[:1000], x[:1000]]), rng.integers(0, 3, 2000))
        accs, _, per_pair_rows = routed_rows(
            lambda: knn_subset_accuracies(twice, holdout, subsets, 5))
        assert per_pair_rows > 100
        assert accs == [float((p == holdout.labels.labels).mean()) for p in
                        per_pair_predictions(twice, holdout.features.values, subsets, 5)]

    def test_no_row_is_certified_on_an_order_rounding_made(self):
        # rows a few float32 steps (2^-14) from (1000, ..., 1000): D takes
        # multiples of 2^-28, which the GEMM form's rounding (~1e-8) reorders
        rng = np.random.default_rng(56)
        x = 1000.0 + 2.0 ** -14 * rng.integers(-2, 3, size=(400, 32))
        q = (1000.0 + 2.0 ** -14 * rng.integers(-2, 3, size=(60, 32))).astype(np.float32)
        train = make_dataset(x, rng.integers(0, 4, 400))
        subsets = [np.arange(400), rng.permutation(400)[:200]]
        preds = per_pair_predictions(train, q, subsets, 5)
        for labels in preds:
            assert knn_subset_accuracies(train, make_dataset(q, labels), subsets, 5) == [
                float((p == labels).mean()) for p in preds]

    @pytest.mark.parametrize("d", [1, 32, 300])
    def test_margin_bounds_the_difference_of_the_two_forms(self, d):
        # norms near 1e3, differences near 1e-6: A cancels ~1e6 to ~1e-12
        rng = np.random.default_rng(54)
        base = rng.standard_normal(d)
        base *= 1e3 / np.linalg.norm(base)
        x = base + 1e-6 * rng.standard_normal((200, d))
        q = base + 1e-6 * rng.standard_normal((50, d))
        sq_q, sq_x = np.einsum("ij,ij->i", q, q), np.einsum("ij,ij->i", x, x)
        gap = np.abs(kernels._squared_distances(q, sq_q, -2.0 * x, sq_x) - _sq_distances(q, x))
        eps = _margins(sq_q, sq_x, d)
        assert gap.max() > 0
        assert (gap <= eps[:, None]).all()

    def test_a_non_finite_norm_certifies_no_gap(self):
        gaps = np.array([0.0, 1.0, 1e300, np.inf])
        for sq_q, sq_x in [([np.inf], [1.0]), ([np.nan], [1.0]), ([1.0], [1.0, np.inf]),
                           ([1.0], [np.nan, 1.0])]:
            eps = _margins(np.array(sq_q), np.array(sq_x), 4)
            assert not (gaps > 2.0 * eps).any()

    @pytest.mark.parametrize("subset,message", [
        ([0, 1, 7], "subset index 7 out of range for training size 6"),
        ([-1, 0, 1], "subset index -1 out of range for training size 6"),
        ([0.5, 1, 2], "subset indices must be integers, got dtype float64"),
    ])
    def test_bad_subset_indices_rejected(self, subset, message):
        train = make_dataset(np.arange(6.0)[:, None], [0, 1, 0, 1, 0, 1])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            knn_subset_accuracies(train, train, [[0, 1], subset], 1)

    def test_scoring_peaks_below_a_quarter_of_one_holdout_by_train_array(self):
        # 1,000 queries against 2,000 training rows: one float64 holdout x
        # train array is 16 MB. With each training row twice, many queries'
        # k-th and (k+1)-th nearest tie and go to the per-pair fallback.
        rng = np.random.default_rng(55)
        train = make_dataset(rng.standard_normal((2000, 4)), rng.integers(0, 3, 2000))
        holdout = make_dataset(rng.standard_normal((1000, 4)), rng.integers(0, 3, 1000))
        subsets = [np.arange(2000), rng.permutation(2000)[:1000], rng.permutation(2000)[:20]]
        x = train.features.values[:1000]
        twice = make_dataset(np.vstack([x, x]), rng.integers(0, 3, 2000))
        for pool in (train, twice):
            accs = []
            peak = peak_bytes(lambda: accs.extend(knn_subset_accuracies(pool, holdout,
                                                                        subsets, 5)))
            assert peak < 8 * holdout.n * pool.n // 4
            assert accs == [float((chunked_knn_reference(
                pool.subset(s), holdout.features.values, 5) == holdout.labels.labels).mean())
                for s in subsets]
        assert routed_rows(lambda: knn_subset_accuracies(twice, holdout, subsets, 5))[2] > 1000


class TestKnnAccuracy:
    def test_self_train_k1_is_perfect(self):
        rng = np.random.default_rng(42)
        ds = make_dataset(rng.standard_normal((20, 3)), rng.integers(0, 2, 20))
        assert knn_accuracy(ds, ds, 1) == 1.0

    def test_single_class_dataset_is_perfect_for_any_k(self):
        rng = np.random.default_rng(43)
        ds = make_dataset(rng.standard_normal((10, 2)), np.zeros(10, dtype=int))
        for k in (1, 3, 10):
            assert knn_accuracy(ds, ds, k) == 1.0

    def test_synthetic_anchor(self):
        # regression anchor recorded at build time: this configuration
        # classifies the holdout perfectly
        ds = gen_synthetic(600, 16, 3, 4.0, 42)
        train, hold = split(ds, SplitSpec(holdout_fraction=1 / 3, seed=0))
        acc = knn_accuracy(train, hold, 5)
        assert acc >= 0.9
        assert acc == 1.0


def separable_clusters(n_per_side=20, seed=44):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n_per_side, 3)) * 0.3
    right = rng.standard_normal((n_per_side, 3)) * 0.3
    left[:, 0] -= 5.0
    right[:, 0] += 5.0
    values = np.vstack((left, right))
    labels = np.array([0] * n_per_side + [1] * n_per_side)
    return make_dataset(values, labels)


def from_scratch_newton_fit(X, y, C, l2, tol=DEFAULT_TOL, max_iters=2000):
    """logreg_fit's Newton-CG loop with every score matrix, softmax,
    objective and gradient computed afresh from the parameters: the fit
    must give these bytes, though it computes each iterate's scores once."""
    W, b = np.zeros((C, X.shape[1])), np.zeros(C)
    history = [softmax_objective(W, b, X, y, l2)]
    while len(history) <= max_iters:
        gW, gb = softmax_gradients(W, b, X, y, l2)
        g = np.concatenate((gW, gb[:, None]), axis=1)
        if np.abs(g).max() <= tol:
            break
        D = _newton_cg_direction(_row_softmax(X @ W.T + b), X, g, l2)
        slope = float(np.vdot(g, D))
        t = 1.0
        while t >= _MIN_STEP:
            W_new, b_new = W + t * D[:, :-1], b + t * D[:, -1]
            obj_new = softmax_objective(W_new, b_new, X, y, l2)
            if obj_new <= history[-1] + _ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        if t < _MIN_STEP:
            break
        W, b = W_new, b_new
        history.append(obj_new)
    return W, b, np.array(history)


class TestLogReg:
    def test_separable_clusters_fit_to_perfect_training_accuracy(self):
        ds = separable_clusters()
        model = logreg_fit(ds, l2=0.1)
        assert model.accuracy(ds) == 1.0

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            n, d, C = int(rng.integers(5, 15)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
            X = rng.standard_normal((n, d))
            y = rng.integers(0, C, size=n)
            W = rng.standard_normal((C, d))
            b = rng.standard_normal(C)
            l2 = 0.05
            gW, gb = softmax_gradients(W, b, X, y, l2)
            h = 1e-6
            for arr, grad in ((W, gW), (b, gb)):
                fd = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    up = softmax_objective(W, b, X, y, l2)
                    arr[ix] = orig - h
                    down = softmax_objective(W, b, X, y, l2)
                    arr[ix] = orig
                    fd[ix] = (up - down) / (2 * h)
                    it.iternext()
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-5

    def test_huge_l2_collapses_weights_to_class_priors(self):
        rng = np.random.default_rng(46)
        values = rng.standard_normal((60, 3))
        labels = np.array([0] * 45 + [1] * 15)
        model = logreg_fit(make_dataset(values, labels), l2=1e6)
        assert np.abs(model.weights).max() < 1e-4
        probs = model.predict_proba(np.zeros(3))
        np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-3)

    def test_objective_history_is_non_increasing(self):
        ds = separable_clusters(seed=47)
        model = logreg_fit(ds)
        hist = model.objective_history
        assert (np.diff(hist) <= 0).all()

    def test_single_class_rejected(self):
        ds = make_dataset([[0.0], [1.0]], [0, 0])
        with pytest.raises(ValidationError):
            logreg_fit(ds)

    @pytest.mark.parametrize("seed", [60, 61, 62, 63])
    def test_reused_scores_are_the_from_scratch_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n, d, C = int(rng.integers(20, 80)), int(rng.integers(2, 9)), int(rng.integers(2, 5))
        y = rng.integers(0, C, size=n)
        values = rng.standard_normal((n, d)) + y[:, None] * rng.uniform(0.2, 2.0)
        ds = make_dataset(values, y)
        l2 = float(rng.choice([0.0, 1e-3, 1e-2, 1.0]))
        model = logreg_fit(ds, l2=l2, n_classes=C)
        X = ds.features.values.astype(np.float64)
        assert model.n_iters >= 1
        assert model.objective_history[-1] == softmax_objective(
            model.weights, model.bias, X, y, l2)
        W, b, history = from_scratch_newton_fit(X, y, C, l2)
        assert np.array_equal(model.weights, W) and np.array_equal(model.bias, b)
        assert np.array_equal(model.objective_history, history)

    def test_fit_is_deterministic(self):
        ds = separable_clusters(seed=48)
        a = logreg_fit(ds)
        b = logreg_fit(ds)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def overlapping_classes(seed=50):
    """Three Gaussian classes close enough that no fit separates them."""
    rng = np.random.default_rng(seed)
    labels = np.arange(90) % 3
    values = rng.standard_normal((3, 4))[labels] * 0.5 + rng.standard_normal((90, 4))
    return make_dataset(values, labels)


class TestSoftmaxHvp:
    def test_matches_central_differences_of_the_gradient(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            n, d, C = int(rng.integers(5, 15)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
            X = rng.standard_normal((n, d))
            y = rng.integers(0, C, size=n)
            W = rng.standard_normal((C, d))
            b = rng.standard_normal(C)
            V = rng.standard_normal((C, d))
            c = rng.standard_normal(C)
            l2 = 0.05
            P = LogRegModel(weights=W, bias=b, l2=l2).predict_proba_batch(X)
            hv, hc = _softmax_hvp(P, X, V, c, l2)
            h = 1e-5
            up_W, up_b = softmax_gradients(W + h * V, b + h * c, X, y, l2)
            down_W, down_b = softmax_gradients(W - h * V, b - h * c, X, y, l2)
            exact = np.concatenate((hv.ravel(), hc))
            fd = np.concatenate(((up_W - down_W).ravel(), up_b - down_b)) / (2 * h)
            assert np.linalg.norm(exact - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_common_bias_shift_is_a_null_direction(self):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((12, 3))
        model = LogRegModel(weights=rng.standard_normal((4, 3)),
                            bias=rng.standard_normal(4), l2=0.1)
        hv, hc = _softmax_hvp(model.predict_proba_batch(X), X, np.zeros((4, 3)),
                              np.ones(4), 0.1)
        assert np.abs(hv).max() <= 1e-14
        assert np.abs(hc).max() <= 1e-14


class TestNewtonFit:
    @pytest.mark.parametrize("ds", [separable_clusters(), overlapping_classes()],
                             ids=["separable", "overlapping"])
    def test_fit_meets_the_tolerance_without_a_bias_shift(self, ds):
        model = logreg_fit(ds)
        X = ds.features.values.astype(np.float64)
        gW, gb = softmax_gradients(model.weights, model.bias, X, ds.labels.labels,
                                   model.l2)
        assert model.converged
        assert max(np.abs(gW).max(), np.abs(gb).max()) <= DEFAULT_TOL
        # softmax is invariant to a common bias shift; the fit never takes one
        assert abs(model.bias.sum()) <= 1e-9

    def test_few_newton_steps_on_separable_clusters(self):
        assert logreg_fit(separable_clusters()).n_iters <= 25

    def test_unregularized_separable_fit_terminates(self):
        model = logreg_fit(separable_clusters(), l2=0.0)
        assert model.converged
        assert (np.diff(model.objective_history) <= 0).all()

    def test_absent_classes_get_vanishing_probability(self):
        ds = separable_clusters()
        model = logreg_fit(ds, n_classes=4)
        assert model.converged
        assert abs(model.bias.sum()) <= 1e-9
        probs = model.predict_proba_batch(ds.features.values)
        assert probs[:, 2:].max() < 1e-3


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        model = LogRegModel(weights=np.zeros((4, 2)), bias=np.zeros(4), l2=0.0)
        np.testing.assert_allclose(model.predict_proba([1.0, -2.0]), 0.25, rtol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(49)
        for _ in range(1000):
            C, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            model = LogRegModel(weights=rng.standard_normal((C, d)) * 5,
                                bias=rng.standard_normal(C), l2=0.0)
            p = model.predict_proba(rng.standard_normal(d))
            assert abs(p.sum() - 1.0) <= 1e-9
            assert (p >= 0).all() and (p <= 1).all()

    def test_extreme_scores_stay_finite(self):
        model = LogRegModel(weights=np.array([[1000.0], [0.0]]), bias=np.zeros(2),
                            l2=0.0)
        p = model.predict_proba([1.0])
        assert np.isfinite(p).all()
        assert p[0] > 0.999999

    def test_dimension_mismatch_rejected(self):
        model = LogRegModel(weights=np.zeros((2, 3)), bias=np.zeros(2), l2=0.0)
        with pytest.raises(ValidationError):
            model.predict_proba([1.0])
