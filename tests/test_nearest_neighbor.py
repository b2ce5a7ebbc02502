"""Tests for repro.classification.nearest_neighbor (Section 4 metrics)."""

import numpy as np
import pytest

from repro import (
    leave_one_out_accuracy,
    one_nn_accuracy,
    one_nn_classify,
    tune_cdtw_window,
)
from repro.datasets import make_cbf
from repro.distances import cross_distances
from repro.exceptions import (
    EmptyInputError,
    InvalidParameterError,
    ShapeMismatchError,
)
from repro.preprocessing import zscore


@pytest.fixture
def split_data(two_class_data, rng):
    X, y = two_class_data
    idx = rng.permutation(X.shape[0])
    train, test = idx[:12], idx[12:]
    return X[train], y[train], X[test], y[test]


class TestOneNN:
    def test_perfect_on_separable_sbd(self, split_data):
        X_tr, y_tr, X_te, y_te = split_data
        acc = one_nn_accuracy(X_tr, y_tr, X_te, y_te, metric="sbd")
        assert acc == 1.0

    def test_predictions_shape(self, split_data):
        X_tr, y_tr, X_te, _ = split_data
        pred = one_nn_classify(X_tr, y_tr, X_te, metric="ed")
        assert pred.shape == (X_te.shape[0],)

    def test_training_point_maps_to_itself(self, split_data):
        X_tr, y_tr, _, _ = split_data
        pred = one_nn_classify(X_tr, y_tr, X_tr, metric="ed")
        assert np.array_equal(pred, y_tr)

    def test_lb_pruning_matches_exhaustive(self, split_data):
        """LB_Keogh pruning must not change any prediction (exact pruning)."""
        from repro.distances import make_cdtw

        X_tr, y_tr, X_te, _ = split_data
        window = 0.1
        exact = one_nn_classify(X_tr, y_tr, X_te, metric=make_cdtw(window))
        pruned = one_nn_classify(
            X_tr, y_tr, X_te, metric=make_cdtw(window), lb_window=window
        )
        assert np.array_equal(exact, pruned)

    def test_lb_pruning_reports_stats(self, split_data):
        from repro import PruningStats

        X_tr, y_tr, X_te, _ = split_data
        stats = PruningStats()
        one_nn_classify(X_tr, y_tr, X_te, metric="cdtw5", lb_window=0.05,
                        stats=stats)
        assert stats.queries == X_te.shape[0]
        assert stats.candidates == X_te.shape[0] * X_tr.shape[0]
        assert stats.candidates == (
            stats.lb_paa + stats.lb_kim + stats.lb_yi + stats.lb_keogh
            + stats.abandoned + stats.full + stats.cached + stats.skipped
        )

    def test_lb_pruning_deterministic_in_workers(self, split_data):
        X_tr, y_tr, X_te, _ = split_data
        serial = one_nn_classify(X_tr, y_tr, X_te, metric="cdtw5",
                                 lb_window=0.05)
        threaded = one_nn_classify(X_tr, y_tr, X_te, metric="cdtw5",
                                   lb_window=0.05, n_jobs=4, backend="threads")
        assert np.array_equal(serial, threaded)

    def test_length_mismatch_raises(self, split_data):
        X_tr, y_tr, X_te, _ = split_data
        with pytest.raises(ShapeMismatchError):
            one_nn_classify(X_tr, y_tr, X_te[:, :-1])

    def test_label_count_mismatch_raises(self, split_data):
        X_tr, y_tr, X_te, _ = split_data
        with pytest.raises(ShapeMismatchError):
            one_nn_classify(X_tr, y_tr[:-1], X_te)

    def test_string_labels_supported(self, split_data):
        X_tr, y_tr, X_te, _ = split_data
        names = np.array(["a", "b"])[y_tr]
        pred = one_nn_classify(X_tr, names, X_te, metric="ed")
        assert set(pred) <= {"a", "b"}


    @pytest.mark.parametrize("metric", ["sbd", "lcss"])
    def test_lb_window_rejects_inadmissible_metric(self, metric):
        """Lower bounds are only proven admissible for (c)DTW.

        Pruning SBD or LCSS with them used to return the wrong neighbor
        for about half of these queries; now the call refuses, and the
        unpruned call is the brute-force argmin.
        """
        rng = np.random.default_rng(0)
        X_tr, y_tr = make_cbf(20, 64, rng)
        X_te, _ = make_cbf(10, 64, rng)
        X_tr, X_te = zscore(X_tr), zscore(X_te)
        with pytest.raises(InvalidParameterError):
            one_nn_classify(X_tr, y_tr, X_te, metric=metric, lb_window=0.05)
        nearest = np.argmin(cross_distances(X_te, X_tr, metric=metric), axis=1)
        assert np.array_equal(
            one_nn_classify(X_tr, y_tr, X_te, metric=metric), y_tr[nearest]
        )


class TestLeaveOneOut:
    def test_high_on_separable(self, two_class_data):
        X, y = two_class_data
        assert leave_one_out_accuracy(X, y, metric="sbd") == 1.0

    def test_single_sequence_raises(self):
        with pytest.raises(EmptyInputError):
            leave_one_out_accuracy(np.ones((1, 4)), [0])

    def test_random_labels_near_half(self, rng):
        X = rng.normal(0, 1, (40, 16))
        y = rng.integers(0, 2, 40)
        acc = leave_one_out_accuracy(X, y, metric="ed")
        assert 0.2 <= acc <= 0.8


class TestTuneCdtw:
    def test_returns_candidate(self, split_data):
        X_tr, y_tr, _, _ = split_data
        windows = (0.0, 0.05, 0.1)
        best, acc = tune_cdtw_window(X_tr, y_tr, windows)
        assert best in windows
        assert 0.0 <= acc <= 1.0

    def test_empty_windows_raise(self, split_data):
        X_tr, y_tr, _, _ = split_data
        with pytest.raises(EmptyInputError):
            tune_cdtw_window(X_tr, y_tr, ())
