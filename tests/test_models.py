import numpy as np
import pytest

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
    DEFAULT_TOL,
    KnnConfig,
    LogRegModel,
    _softmax_hvp,
    knn_accuracy,
    knn_predict,
    knn_predict_batch,
    logreg_fit,
    softmax_gradients,
    softmax_objective,
)


def make_dataset(values, labels):
    return LabeledDataset(FeatureMatrix(np.asarray(values, dtype=np.float64)),
                          LabelVector(np.asarray(labels)))


class TestKnnPredict:
    def test_k1_returns_the_matching_point_label(self):
        train = make_dataset([[0.0], [5.0], [9.0]], [2, 0, 1])
        assert knn_predict(train, [5.0], KnnConfig(1)) == 0

    def test_majority_vote(self):
        train = make_dataset([[0.0], [0.1], [0.2], [9.0]], [0, 0, 1, 1])
        assert knn_predict(train, [0.0], KnnConfig(3)) == 0

    def test_vote_tie_goes_to_smallest_label(self):
        train = make_dataset([[0.0], [1.0]], [1, 0])
        # both points are the two nearest; votes tie 1-1; label 0 wins
        assert knn_predict(train, [0.4], KnnConfig(2)) == 0

    def test_distance_tie_goes_to_lower_training_index(self):
        train = make_dataset([[0.0], [2.0], [9.0]], [1, 0, 0])
        # query 1.0 is exactly between rows 0 and 1; row 0 is "nearer"
        assert knn_predict(train, [1.0], KnnConfig(1)) == 1

    def test_dimension_mismatch_rejected(self):
        train = make_dataset([[0.0, 1.0]], [0])
        with pytest.raises(ValidationError):
            knn_predict(train, [0.0], KnnConfig(1))

    def test_k_larger_than_train_rejected(self):
        train = make_dataset([[0.0]], [0])
        with pytest.raises(ValidationError):
            knn_predict(train, [0.0], KnnConfig(2))

    def test_invariant_to_row_permutation_with_distinct_distances(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, size=30)
        queries = rng.standard_normal((10, 4))
        train = make_dataset(values, labels)
        base = knn_predict_batch(train, queries, KnnConfig(5))
        perm = rng.permutation(30)
        shuffled = make_dataset(values[perm], labels[perm])
        assert np.array_equal(knn_predict_batch(shuffled, queries, KnnConfig(5)), base)


class TestKnnAccuracy:
    def test_self_train_k1_is_perfect(self):
        rng = np.random.default_rng(42)
        ds = make_dataset(rng.standard_normal((20, 3)), rng.integers(0, 2, 20))
        assert knn_accuracy(ds, ds, KnnConfig(1)) == 1.0

    def test_single_class_dataset_is_perfect_for_any_k(self):
        rng = np.random.default_rng(43)
        ds = make_dataset(rng.standard_normal((10, 2)), np.zeros(10, dtype=int))
        for k in (1, 3, 10):
            assert knn_accuracy(ds, ds, KnnConfig(k)) == 1.0

    def test_synthetic_anchor(self):
        # regression anchor recorded at build time: this configuration
        # classifies the holdout perfectly
        ds = gen_synthetic(600, 16, 3, 4.0, 42)
        train, hold = split(ds, SplitSpec(holdout_fraction=1 / 3, seed=0))
        acc = knn_accuracy(train, hold, KnnConfig(5))
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
            P = LogRegModel(weights=W, bias=b, l2=l2, n_trained=n).predict_proba_batch(X)
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
                            bias=rng.standard_normal(4), l2=0.1, n_trained=12)
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
        model = LogRegModel(weights=np.zeros((4, 2)), bias=np.zeros(4), l2=0.0,
                            n_trained=0)
        np.testing.assert_allclose(model.predict_proba([1.0, -2.0]), 0.25, rtol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(49)
        for _ in range(1000):
            C, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            model = LogRegModel(weights=rng.standard_normal((C, d)) * 5,
                                bias=rng.standard_normal(C), l2=0.0, n_trained=0)
            p = model.predict_proba(rng.standard_normal(d))
            assert abs(p.sum() - 1.0) <= 1e-9
            assert (p >= 0).all() and (p <= 1).all()

    def test_extreme_scores_stay_finite(self):
        model = LogRegModel(weights=np.array([[1000.0], [0.0]]), bias=np.zeros(2),
                            l2=0.0, n_trained=0)
        p = model.predict_proba([1.0])
        assert np.isfinite(p).all()
        assert p[0] > 0.999999

    def test_dimension_mismatch_rejected(self):
        model = LogRegModel(weights=np.zeros((2, 3)), bias=np.zeros(2), l2=0.0,
                            n_trained=0)
        with pytest.raises(ValidationError):
            model.predict_proba([1.0])
