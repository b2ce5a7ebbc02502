"""Generic k-means engine for time series (paper Sections 2.1, 4).

The paper's scalable baselines are all k-means instantiations differing in
two pluggable choices: the **distance measure** used in the assignment step
and the **centroid rule** used in the refinement step. This module provides
that engine (:class:`TimeSeriesKMeans`) and the named configurations from
Table 3:

* ``k-AVG+ED`` — ED assignment, arithmetic-mean centroids (classic k-means);
* ``k-AVG+SBD`` — SBD assignment, arithmetic-mean centroids;
* ``k-AVG+DTW`` — DTW assignment, arithmetic-mean centroids.

k-DBA and KSC, which also change the centroid rule, live in their own
modules but reuse this engine.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional, Union

import numpy as np

from .._validation import check_positive_int
from ..averaging.mean import arithmetic_mean
from ..distances.base import DistanceFn
from ..distances.prune import PruningStats
from ..exceptions import ConvergenceWarning
from ..parallel.executors import parallel_map
from ..search.index import CentroidIndex
from .base import (
    BaseClusterer,
    ClusterResult,
    random_assignment,
    repair_empty_clusters,
)

__all__ = ["TimeSeriesKMeans", "k_avg_ed", "k_avg_sbd", "k_avg_dtw"]

# A centroid rule maps (members, previous_centroid) -> new centroid.
CentroidFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _mean_centroid(members: np.ndarray, _previous: np.ndarray) -> np.ndarray:
    return arithmetic_mean(members)


class TimeSeriesKMeans(BaseClusterer):
    """k-means with pluggable distance measure and centroid rule.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    metric:
        Registered distance name (``"ed"``, ``"sbd"``, ``"dtw"``, ...) or a
        callable ``(x, y) -> float`` for the assignment step.
    centroid_fn:
        Callable ``(members, previous_centroid) -> centroid`` for the
        refinement step; defaults to the arithmetic mean (Section 2.5).
    max_iter:
        Iteration cap (paper uses 100).
    n_init:
        Random restarts; lowest-inertia run wins.
    random_state:
        Seed or Generator for initialization.
    n_jobs, backend:
        Parallel execution (see :mod:`repro.parallel`): the assignment
        step's cross-distance matrix is tiled over workers, and with
        ``n_jobs > 1`` the per-cluster centroid refinements run
        concurrently. Clusters are refined independently and assignment
        ties resolve identically, so labels are deterministic in the
        worker count.

    The assignment step is the exact nearest-candidate search of
    :class:`~repro.search.CentroidIndex`, rebuilt over each iteration's
    centroids: lower-bound-pruned under (c)DTW metrics, the dense matrix
    otherwise, with labels and inertia bit-identical to the dense argmin
    either way. Its per-tier counters accumulate in
    ``result_.extra["pruning_stats"]``.

    Notes
    -----
    Matches the paper's iterative refinement (Section 2.1): random initial
    memberships, then alternate refinement (centroids) and assignment
    (closest centroid) until memberships stop changing or ``max_iter``.
    """

    def __init__(
        self,
        n_clusters: int,
        metric: Union[str, DistanceFn] = "ed",
        centroid_fn: Optional[CentroidFn] = None,
        max_iter: int = 100,
        n_init: int = 1,
        random_state=None,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        super().__init__(n_clusters, random_state)
        self.metric = metric
        self.centroid_fn: CentroidFn = centroid_fn or _mean_centroid
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.n_init = check_positive_int(n_init, "n_init")
        self.n_jobs = n_jobs
        self.backend = backend

    def _refine_centroids(
        self, X: np.ndarray, labels: np.ndarray, centroids: np.ndarray
    ) -> None:
        """Recompute each non-empty cluster's centroid, in parallel when
        ``n_jobs > 1``. Empty clusters keep their previous centroid."""
        occupied = [j for j in range(self.n_clusters) if np.any(labels == j)]

        def refine(j: int) -> np.ndarray:
            return self.centroid_fn(X[labels == j], centroids[j])

        updated = parallel_map(
            refine, occupied, n_jobs=self.n_jobs, backend="threads"
        )
        for j, centroid in zip(occupied, updated):
            centroids[j] = centroid

    def _single_run(self, X: np.ndarray, rng: np.random.Generator) -> ClusterResult:
        n, m = X.shape
        k = self.n_clusters
        pruning = PruningStats()
        labels = random_assignment(n, k, rng)
        centroids = np.zeros((k, m))
        converged = False
        n_iter = 0
        point_dists = np.zeros(n)
        for n_iter in range(1, self.max_iter + 1):
            previous = labels
            self._refine_centroids(X, labels, centroids)
            index = CentroidIndex(centroids, self.metric)
            assigned, point_dists = index.query_batch(
                X, n_jobs=self.n_jobs, backend=self.backend
            )
            pruning.merge(index.stats)
            labels = repair_empty_clusters(assigned, k, rng)
            repaired = np.flatnonzero(labels != assigned)
            if repaired.size:
                # Cells of the whole-batch matrix, so the inertia stays
                # bit-identical to the dense argmin's.
                cells = index.exact_distances(X, labels[repaired])
                point_dists[repaired] = cells[repaired, np.arange(repaired.size)]
            if np.array_equal(labels, previous):
                converged = True
                break
        if not converged:
            warnings.warn(
                f"{type(self).__name__} did not converge in "
                f"{self.max_iter} iterations",
                ConvergenceWarning,
                stacklevel=2,
            )
        return ClusterResult(
            labels=labels,
            centroids=centroids.copy(),
            inertia=float(np.sum(point_dists**2)),
            n_iter=n_iter,
            converged=converged,
            extra={"pruning_stats": pruning},
        )

    def _fit(self, X: np.ndarray, rng: np.random.Generator) -> ClusterResult:
        best: Optional[ClusterResult] = None
        with warnings.catch_warnings():
            if self.n_init > 1:
                warnings.simplefilter("ignore", ConvergenceWarning)
            for _ in range(self.n_init):
                result = self._single_run(X, rng)
                if best is None or result.inertia < best.inertia:
                    best = result
        assert best is not None
        return best

    def predict(self, X) -> np.ndarray:
        """Assign held-out sequences to the fitted centroids (no update).

        Mirrors the fit loop's assignment step exactly (the
        :class:`~repro.search.CentroidIndex` search, bit-identical to the
        dense argmin), so held-out labels agree with
        :class:`repro.serving.ShapePredictor` over the same centroids and
        metric.
        """
        data = self._predict_data(X)
        index = CentroidIndex(self._check_fitted().centroids, self.metric)
        labels, _ = index.query_batch(
            data, n_jobs=self.n_jobs, backend=self.backend
        )
        return labels


def k_avg_ed(n_clusters: int, **kwargs) -> TimeSeriesKMeans:
    """The paper's k-AVG+ED baseline: classic k-means with ED."""
    return TimeSeriesKMeans(n_clusters, metric="ed", **kwargs)


def k_avg_sbd(n_clusters: int, **kwargs) -> TimeSeriesKMeans:
    """k-AVG+SBD: k-means with SBD assignment and arithmetic-mean centroids."""
    return TimeSeriesKMeans(n_clusters, metric="sbd", **kwargs)


def k_avg_dtw(n_clusters: int, window=None, **kwargs) -> TimeSeriesKMeans:
    """k-AVG+DTW: k-means with DTW assignment and arithmetic-mean centroids."""
    if window is None:
        return TimeSeriesKMeans(n_clusters, metric="dtw", **kwargs)
    from ..distances.base import make_cdtw

    return TimeSeriesKMeans(n_clusters, metric=make_cdtw(window), **kwargs)
