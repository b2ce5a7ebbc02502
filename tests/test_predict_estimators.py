"""Tests for the estimators' held-out ``predict`` methods (serving PR)."""

import numpy as np
import pytest

from repro import (
    KDBA,
    KSC,
    KMedoids,
    KShape,
    TimeSeriesKMeans,
)
from repro.distances import euclidean, pairwise_distances
from repro.distances.matrix import cross_distances
from repro.exceptions import (
    InvalidParameterError,
    NotFittedError,
    ShapeMismatchError,
)


class TestKShapePredict:
    def test_matches_training_assignment(self, two_class_data):
        X, _ = two_class_data
        model = KShape(n_clusters=2, random_state=0)
        assert np.array_equal(model.fit_predict(X), model.predict(X))

    def test_plusplus_init(self, two_class_data):
        X, _ = two_class_data
        model = KShape(n_clusters=2, init="plusplus", random_state=0)
        assert np.array_equal(model.fit_predict(X), model.predict(X))

    def test_custom_assignment_distance(self, two_class_data):
        X, _ = two_class_data
        model = KShape(
            n_clusters=2, random_state=0, assignment_distance=euclidean
        ).fit(X)
        expected = np.argmin(
            cross_distances(X, model.centroids_, metric="ed"), axis=1
        )
        assert np.array_equal(model.predict(X), expected)

    def test_held_out_queries(self, two_class_data):
        X, _ = two_class_data
        model = KShape(n_clusters=2, random_state=0).fit(X[::2])
        held_out = X[1::2]
        dists = cross_distances(held_out, model.centroids_, metric="sbd")
        assert np.array_equal(
            model.predict(held_out), np.argmin(dists, axis=1)
        )


class TestKMeansPredict:
    @pytest.mark.parametrize("metric", ["ed", "sbd"])
    def test_dense_metrics(self, two_class_data, metric):
        X, _ = two_class_data
        model = TimeSeriesKMeans(2, metric=metric, random_state=0).fit(X)
        expected = np.argmin(
            cross_distances(X, model.centroids_, metric=metric), axis=1
        )
        assert np.array_equal(model.predict(X), expected)

    def test_pruned_equals_dense(self, two_class_data):
        X, _ = two_class_data
        pruned = TimeSeriesKMeans(2, metric="cdtw5", random_state=0).fit(X)
        assert pruned.result_.extra["pruning_stats"].prune_rate > 0.0
        expected = np.argmin(
            cross_distances(X, pruned.centroids_, metric="cdtw5"), axis=1
        )
        assert np.array_equal(pruned.predict(X), expected)

    def test_kdba_and_ksc_inherit(self, two_class_data):
        X, _ = two_class_data
        for model in (
            KDBA(2, random_state=0, max_iter=3).fit(X),
            KSC(2, random_state=0, max_iter=3).fit(X),
        ):
            labels = model.predict(X)
            assert labels.shape == (X.shape[0],)
            assert set(np.unique(labels)) <= {0, 1}


class TestKMedoidsPredict:
    @pytest.mark.parametrize("method", ["pam", "alternate"])
    def test_matches_nearest_medoid(self, two_class_data, method):
        X, _ = two_class_data
        model = KMedoids(2, metric="ed", method=method, random_state=0).fit(X)
        expected = np.argmin(
            cross_distances(X, model.centroids_, metric="ed"), axis=1
        )
        assert np.array_equal(model.predict(X), expected)

    def test_cdtw_pruned_path(self, two_class_data):
        X, _ = two_class_data
        model = KMedoids(2, metric="cdtw5", random_state=0).fit(X)
        expected = np.argmin(
            cross_distances(X, model.centroids_, metric="cdtw5"), axis=1
        )
        assert np.array_equal(model.predict(X), expected)

    def test_precomputed_fit_raises(self, two_class_data):
        X, _ = two_class_data
        D = pairwise_distances(X, metric="ed")
        model = KMedoids(2, metric="precomputed", random_state=0).fit(D)
        with pytest.raises(InvalidParameterError):
            model.predict(X)


class TestValidation:
    @pytest.mark.parametrize("maker", [
        lambda: KShape(n_clusters=2),
        lambda: TimeSeriesKMeans(2),
        lambda: KMedoids(2),
    ])
    def test_unfitted_raises(self, two_class_data, maker):
        X, _ = two_class_data
        with pytest.raises(NotFittedError):
            maker().predict(X)

    @pytest.mark.parametrize("maker", [
        lambda: KShape(n_clusters=2, random_state=0),
        lambda: TimeSeriesKMeans(2, random_state=0),
        lambda: KMedoids(2, random_state=0),
    ])
    def test_length_mismatch_raises(self, two_class_data, maker):
        X, _ = two_class_data
        model = maker().fit(X)
        with pytest.raises(ShapeMismatchError):
            model.predict(X[:, :-1])
