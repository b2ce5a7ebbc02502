"""PAM k-medoids (Kaufman & Rousseeuw [40]; paper Tables 1 and 4).

Partitioning Around Medoids clusters around *actual* sequences instead of
artificial centroids, which lets it adopt any distance measure unchanged —
the reason the paper calls k-medoids the most popular shape-based method.
The cost is the full ``n x n`` dissimilarity matrix, which is what makes
PAM "non-scalable" in the paper's taxonomy (Section 5.3).

This implementation follows the classic two phases:

* **BUILD** — greedily pick ``k`` initial medoids, each new medoid chosen
  to maximally reduce the total dissimilarity of points to their nearest
  medoid;
* **SWAP** — repeatedly apply the single (medoid, non-medoid) exchange that
  most reduces total cost, until no exchange improves it (or an iteration
  cap is reached).
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

import numpy as np

from .._validation import check_positive_int
from ..distances.base import DistanceFn
from ..distances.matrix import pairwise_distances
from ..distances.prune import PruningStats, dtw_window_of, pruned_medoid
from ..exceptions import ConvergenceWarning, InvalidParameterError
from ..search.index import CentroidIndex
from .base import BaseClusterer, ClusterResult

__all__ = ["KMedoids", "pam_build", "pam_swap"]


def pam_build(D: np.ndarray, k: int) -> np.ndarray:
    """BUILD phase: greedy initial medoids from a dissimilarity matrix."""
    n = D.shape[0]
    medoids = [int(np.argmin(D.sum(axis=1)))]
    nearest = D[:, medoids[0]].copy()
    while len(medoids) < k:
        # Gain of adding candidate c: sum over points of the reduction in
        # their distance to the closest medoid.
        reduction = np.maximum(nearest[:, None] - D, 0.0).sum(axis=0)
        reduction[medoids] = -np.inf
        best = int(np.argmax(reduction))
        medoids.append(best)
        nearest = np.minimum(nearest, D[:, best])
    return np.asarray(medoids)


def pam_swap(
    D: np.ndarray, medoids: np.ndarray, max_iter: int = 100
) -> tuple:
    """SWAP phase: steepest-descent single swaps until a local optimum.

    Returns
    -------
    (medoids, n_iter, converged)
    """
    n = D.shape[0]
    medoids = medoids.copy()
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dist_to_medoids = D[:, medoids]          # (n, k)
        labels = np.argmin(dist_to_medoids, axis=1)
        current_cost = dist_to_medoids[np.arange(n), labels].sum()
        best_delta = 0.0
        best_swap: Optional[tuple] = None
        non_medoids = np.setdiff1d(np.arange(n), medoids, assume_unique=False)
        for mi, medoid in enumerate(medoids):
            others = np.delete(medoids, mi)
            # Distance of every point to its nearest *remaining* medoid.
            if others.size:
                fallback = D[:, others].min(axis=1)
            else:
                fallback = np.full(n, np.inf)
            for candidate in non_medoids:
                new_nearest = np.minimum(fallback, D[:, candidate])
                delta = new_nearest.sum() - current_cost
                if delta < best_delta - 1e-12:
                    best_delta = delta
                    best_swap = (mi, candidate)
        if best_swap is None:
            converged = True
            break
        medoids[best_swap[0]] = best_swap[1]
    return medoids, n_iter, converged


class KMedoids(BaseClusterer):
    """Partitioning Around Medoids over any distance measure.

    Parameters
    ----------
    n_clusters:
        Number of clusters.
    metric:
        Registered distance name or callable, used to build the
        dissimilarity matrix. Ignored when ``fit`` is given a precomputed
        matrix via ``metric="precomputed"``.
    max_iter:
        Cap on SWAP (or alternate) iterations (paper uses 100).
    method:
        ``"pam"`` (default) runs BUILD + SWAP over the full dissimilarity
        matrix. ``"alternate"`` runs Voronoi iteration instead — assign
        every series to its nearest medoid, then recompute each cluster's
        medoid — which never materializes the ``n x n`` matrix. The
        assignment step is the exact nearest-candidate search of
        :class:`~repro.search.CentroidIndex` (lower-bound-pruned under
        (c)DTW metrics); (c)DTW medoid updates run through
        :func:`repro.distances.pruned_medoid`. Both are exact, and their
        per-tier counters land in ``result_.extra["pruning_stats"]``.
    n_jobs, backend:
        Parallel execution of the dissimilarity matrix — forwarded to
        :func:`repro.distances.pairwise_distances` (see
        :mod:`repro.parallel`). The PAM phases themselves are unchanged,
        so results are identical for any worker count. In alternate mode
        the dense assignment matrix parallelizes the same way.

    Notes
    -----
    ``fit(X)`` accepts either the raw ``(n, m)`` dataset or — with
    ``metric="precomputed"`` — an ``(n, n)`` dissimilarity matrix, so the
    expensive cDTW matrices of Table 4 can be computed once and reused.
    """

    def __init__(
        self,
        n_clusters: int,
        metric: Union[str, DistanceFn] = "ed",
        max_iter: int = 100,
        random_state=None,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
        method: str = "pam",
    ):
        super().__init__(n_clusters, random_state)
        self.metric = metric
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.n_jobs = n_jobs
        self.backend = backend
        if method not in ("pam", "alternate"):
            raise InvalidParameterError(
                f"method must be 'pam' or 'alternate', got {method!r}"
            )
        self.method = method

    def _assign(
        self, X: np.ndarray, candidates: np.ndarray, stats: PruningStats
    ) -> tuple:
        """Nearest-medoid labels and distances for every row of ``X``."""
        index = CentroidIndex(candidates, self.metric)
        labels, dists = index.query_batch(
            X, n_jobs=self.n_jobs, backend=self.backend
        )
        stats.merge(index.stats)
        return labels, dists

    def _fit_alternate(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> ClusterResult:
        n = X.shape[0]
        k = self.n_clusters
        pruning = PruningStats()
        prune_updates = dtw_window_of(self.metric)[0]
        medoids = rng.choice(n, size=k, replace=False)
        converged = False
        n_iter = 0
        labels = np.zeros(n, dtype=np.int64)
        dists = np.zeros(n)
        def assign_repaired(medoids):
            labels, dists = self._assign(X, X[medoids], pruning)
            # Every medoid anchors its own cluster; forcing one back may
            # empty another cluster, so sweep until no cluster is empty.
            for _ in range(k):
                empties = [j for j in range(k) if not np.any(labels == j)]
                if not empties:
                    break
                for j in empties:
                    labels[medoids[j]] = j
                    dists[medoids[j]] = 0.0
            return labels, dists

        for n_iter in range(1, self.max_iter + 1):
            labels, dists = assign_repaired(medoids)
            new_medoids = medoids.copy()
            for j in range(k):
                members = np.flatnonzero(labels == j)
                if prune_updates:
                    local, _ = pruned_medoid(
                        X[members], metric=self.metric, stats=pruning
                    )
                else:
                    Dc = pairwise_distances(
                        X[members], metric=self.metric,
                        n_jobs=self.n_jobs, backend=self.backend,
                    )
                    local = int(np.argmin(Dc.sum(axis=1)))
                new_medoids[j] = members[local]
            if np.array_equal(new_medoids, medoids):
                converged = True
                break
            medoids = new_medoids
        if not converged:
            warnings.warn(
                f"alternate k-medoids did not converge in "
                f"{self.max_iter} iterations",
                ConvergenceWarning,
                stacklevel=2,
            )
            labels, dists = assign_repaired(medoids)
        return ClusterResult(
            labels=labels,
            centroids=X[medoids].copy(),
            inertia=float(np.sum(dists**2)),
            n_iter=n_iter,
            converged=converged,
            extra={"medoid_indices": medoids, "pruning_stats": pruning},
        )

    def _fit(self, X: np.ndarray, rng: np.random.Generator) -> ClusterResult:
        if self.method == "alternate":
            if isinstance(self.metric, str) and self.metric == "precomputed":
                raise InvalidParameterError(
                    "method='alternate' works on raw series; use "
                    "method='pam' with a precomputed matrix"
                )
            return self._fit_alternate(X, rng)
        if isinstance(self.metric, str) and self.metric == "precomputed":
            D = np.asarray(X, dtype=np.float64)
            if D.ndim != 2 or D.shape[0] != D.shape[1]:
                raise InvalidParameterError(
                    "precomputed metric requires a square (n, n) matrix"
                )
            data_for_centroids = None
        else:
            D = pairwise_distances(
                X, metric=self.metric, n_jobs=self.n_jobs, backend=self.backend
            )
            data_for_centroids = X
        medoids = pam_build(D, self.n_clusters)
        medoids, n_iter, converged = pam_swap(D, medoids, self.max_iter)
        if not converged:
            warnings.warn(
                f"PAM did not converge in {self.max_iter} swap iterations",
                ConvergenceWarning,
                stacklevel=2,
            )
        labels = np.argmin(D[:, medoids], axis=1)
        inertia = float(np.sum(D[np.arange(D.shape[0]), medoids[labels]] ** 2))
        centroids = (
            data_for_centroids[medoids] if data_for_centroids is not None else None
        )
        return ClusterResult(
            labels=labels,
            centroids=centroids,
            inertia=inertia,
            n_iter=n_iter,
            converged=converged,
            extra={"medoid_indices": medoids},
        )

    def predict(self, X) -> np.ndarray:
        """Assign held-out sequences to the fitted medoids (no update).

        Requires a fit on raw series (``metric="precomputed"`` keeps no
        medoid sequences to compare against). Runs the exact
        nearest-candidate search of :class:`~repro.search.CentroidIndex`,
        so labels agree bit-for-bit with the fit-time nearest-medoid
        assignment and with :class:`repro.serving.ShapePredictor` over the
        medoid sequences.
        """
        result = self._check_fitted()
        if result.centroids is None:
            raise InvalidParameterError(
                "KMedoids was fitted on a precomputed matrix; the raw "
                "medoid sequences needed for predict are unavailable"
            )
        data = self._predict_data(X)
        labels, _ = self._assign(data, result.centroids, PruningStats())
        return labels

    @property
    def medoid_indices_(self) -> np.ndarray:
        return self._check_fitted().extra["medoid_indices"]
