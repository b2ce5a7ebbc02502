"""1-NN classification — the paper's distance-measure evaluator (Section 4).

Following [19], distance measures are compared through the accuracy of a
one-nearest-neighbor classifier, which is simple, parameter-free, and
deterministic. This module provides:

* :func:`one_nn_classify` / :func:`one_nn_accuracy` — train/test 1-NN with
  any registered or callable distance, optionally pruned with lower bounds
  (the paper's ``cDTW_LB`` configurations);
* :func:`leave_one_out_accuracy` — LOO 1-NN over a training set;
* :func:`tune_cdtw_window` — the paper's ``cDTWopt`` protocol: pick the
  Sakoe-Chiba window maximizing leave-one-out accuracy on the training set.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_dataset
from ..distances.base import DistanceFn, make_cdtw
from ..distances.dtw import dtw
from ..distances.matrix import cross_distances
from ..distances.prune import PruningStats
from ..exceptions import EmptyInputError, ShapeMismatchError
from ..search.index import CentroidIndex

__all__ = [
    "one_nn_classify",
    "one_nn_accuracy",
    "leave_one_out_accuracy",
    "tune_cdtw_window",
]


def _check_labels(X: np.ndarray, y, name: str) -> np.ndarray:
    labels = np.asarray(y)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise ShapeMismatchError(
            f"{name} labels must be 1-D with one entry per sequence"
        )
    return labels


def one_nn_classify(
    X_train,
    y_train,
    X_test,
    metric: Union[str, DistanceFn] = "ed",
    lb_window=None,
    stats: Optional[PruningStats] = None,
    n_jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Predict a label for each test series from its nearest training series.

    Parameters
    ----------
    X_train, y_train:
        Labeled training set (``(n, m)`` array, ``(n,)`` labels).
    X_test:
        ``(q, m)`` query set.
    metric:
        Registered distance name or callable.
    lb_window:
        When set, the search runs through the exact, lower-bound-pruned
        :class:`repro.search.CentroidIndex` built over the training set
        (PAA sketch, LB_Keogh at the wider of this Sakoe-Chiba window and
        the metric's own, early-abandoning (c)DTW) — the paper's ``_LB``
        configurations. Predictions are bit-identical to the brute-force
        path. Only valid for (c)DTW metrics: any other metric raises
        :class:`~repro.exceptions.InvalidParameterError`, because the
        bounds are not admissible for it. ``None`` (default) runs the
        brute-force search, the paper's unpruned rows.
    stats:
        Optional :class:`repro.distances.PruningStats` accumulator the
        pruned search's per-tier counters are merged into.
    n_jobs, backend:
        Parallel execution of the brute-force distance matrix (see
        :mod:`repro.parallel`); results are identical for any worker
        count. The pruned search is vectorized over the query batch and
        ignores them.

    Returns
    -------
    numpy.ndarray
        Predicted labels, one per test series.
    """
    train = as_dataset(X_train, "X_train")
    test = as_dataset(X_test, "X_test")
    labels = _check_labels(train, y_train, "train")
    if train.shape[1] != test.shape[1]:
        raise ShapeMismatchError(
            "train and test series must have equal length"
        )
    if lb_window is None:
        dists = cross_distances(
            test, train, metric=metric, n_jobs=n_jobs, backend=backend
        )
        return labels[np.argmin(dists, axis=1)]
    index = CentroidIndex(train, metric, window=lb_window)
    nearest, _ = index.query_batch(test)
    if stats is not None:
        stats.merge(index.stats)
    return labels[nearest]


def one_nn_accuracy(
    X_train,
    y_train,
    X_test,
    y_test,
    metric: Union[str, DistanceFn] = "ed",
    lb_window=None,
    stats: Optional[PruningStats] = None,
    n_jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> float:
    """Fraction of test series whose 1-NN label matches the true label."""
    test = as_dataset(X_test, "X_test")
    truth = _check_labels(test, y_test, "test")
    predicted = one_nn_classify(
        X_train, y_train, X_test, metric=metric, lb_window=lb_window,
        stats=stats, n_jobs=n_jobs, backend=backend,
    )
    return float(np.mean(predicted == truth))


def leave_one_out_accuracy(
    X,
    y,
    metric: Union[str, DistanceFn] = "ed",
) -> float:
    """Leave-one-out 1-NN accuracy over a single labeled set."""
    data = as_dataset(X, "X")
    labels = _check_labels(data, y, "train")
    if data.shape[0] < 2:
        raise EmptyInputError("leave-one-out requires at least two sequences")
    dists = cross_distances(data, data, metric=metric)
    np.fill_diagonal(dists, np.inf)
    nearest = np.argmin(dists, axis=1)
    return float(np.mean(labels[nearest] == labels))


def tune_cdtw_window(
    X_train,
    y_train,
    windows: Sequence[float] = tuple(w / 100 for w in range(0, 11)),
) -> Tuple[float, float]:
    """``cDTWopt`` window tuning: leave-one-out over the training set.

    Parameters
    ----------
    windows:
        Candidate Sakoe-Chiba windows as fractions of the series length
        (0 means pure ED-like alignment). Defaults to 0%..10% in 1% steps.

    Returns
    -------
    (best_window, best_accuracy):
        The smallest window achieving the best leave-one-out accuracy.
    """
    if not windows:
        raise EmptyInputError("windows must contain at least one candidate")
    best_window = None
    best_acc = -1.0
    for w in windows:
        fn = make_cdtw(w) if w > 0 else (lambda a, b: dtw(a, b, window=0))
        acc = leave_one_out_accuracy(X_train, y_train, metric=fn)
        if acc > best_acc:
            best_acc = acc
            best_window = w
    return float(best_window), float(best_acc)
