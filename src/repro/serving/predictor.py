"""Batched online inference against a fixed set of centroids.

A fitted clusterer answers ``predict`` by rebuilding per-centroid state
(rFFTs under SBD, Keogh envelopes under (c)DTW) on every call.
:class:`ShapePredictor` hoists that work to construction time — the
amortization Rock the KASBA and the UCR Suite argue for — so a serving
process pays it once per model load and each request only costs the
query-side math:

* **SBD** — the centroid rFFTs and norms are precomputed at the model's
  FFT length; a batch of queries takes one :func:`rfft_batch` plus one
  chunked :func:`~repro.core._fft_batch.ncc_c_max_multi` broadcast, the
  same kernel the estimators train and predict with, so served labels are
  bit-identical to :meth:`KShape.predict`;
* **(c)DTW** — hard assignments route through the exact, lower-bound-pruned
  :class:`~repro.search.CentroidIndex` built once over the centroids
  (envelopes and sketches precomputed), the same search the estimators
  assign with;
* **other registered metrics** — a dense
  :func:`~repro.distances.matrix.cross_distances` fallback.

Batched and per-series answers are exactly equal: every kernel involved
evaluates each (query, centroid) cell independently of the batch it rides
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_dataset
from ..core._fft_batch import fft_len_for, ncc_c_max_multi, rfft_batch
from ..distances.prune import PruningStats, dtw_window_of
from ..exceptions import InvalidParameterError, ShapeMismatchError
from ..search.index import CentroidIndex

__all__ = ["Prediction", "ShapePredictor"]


@dataclass
class Prediction:
    """Answer to a batched assignment query.

    Attributes
    ----------
    labels:
        ``(n,)`` index of the closest centroid per query.
    distances:
        ``(n,)`` distance of each query to its assigned centroid.
    all_distances:
        ``(n, k)`` full distance matrix, when the query path computed one
        (under SBD and dense metrics; under (c)DTW only when soft
        memberships were requested).
    memberships:
        ``(n, k)`` soft memberships (rows sum to 1), when requested.
    """

    labels: np.ndarray
    distances: np.ndarray
    all_distances: Optional[np.ndarray] = None
    memberships: Optional[np.ndarray] = None


def soft_memberships(dists: np.ndarray, fuzziness: float = 2.0) -> np.ndarray:
    """Fuzzy c-means memberships from a ``(n, k)`` distance matrix.

    Uses the classic update ``u_ij = 1 / sum_l (d_ij / d_il)^(2/(f-1))``
    with the same ``1e-12`` distance floor as
    :class:`~repro.clustering.fuzzy.FuzzyCShapes`, so a query sitting on a
    centroid gets (near-)full weight there.
    """
    if fuzziness <= 1.0:
        raise InvalidParameterError(
            f"fuzziness must be > 1, got {fuzziness}"
        )
    d = np.maximum(np.asarray(dists, dtype=np.float64), 1e-12)
    exponent = 2.0 / (fuzziness - 1.0)
    ratio = d[:, :, None] / d[:, None, :]
    return 1.0 / np.sum(ratio**exponent, axis=2)


class ShapePredictor:
    """Precomputed, batched assignment queries against fixed centroids.

    Parameters
    ----------
    centroids:
        ``(k, m)`` centroid matrix the queries are assigned to.
    metric:
        ``"sbd"`` (default), a (c)DTW name/callable (hard assignments
        through the pruned :class:`~repro.search.CentroidIndex`), or any
        registered distance name (dense fallback).
    fuzziness:
        Fuzzifier used when soft memberships are requested.

    Attributes
    ----------
    n_clusters:
        Number of centroids served.
    m:
        Expected query length.
    stats:
        Cumulative :class:`~repro.distances.PruningStats` of the (c)DTW
        search (all-zero under other metrics).
    """

    def __init__(
        self,
        centroids: ArrayLike,
        metric: object = "sbd",
        fuzziness: float = 2.0,
    ) -> None:
        C = as_dataset(centroids, "centroids")
        self.centroids = C
        self.n_clusters, self.m = C.shape
        self.metric = metric
        if fuzziness <= 1.0:
            raise InvalidParameterError(
                f"fuzziness must be > 1, got {fuzziness}"
            )
        self.fuzziness = fuzziness
        self._index: Optional[CentroidIndex] = None
        self._fft_C = None
        self._is_sbd = isinstance(metric, str) and metric == "sbd"
        self._is_dtw, _ = dtw_window_of(metric)
        self.stats = PruningStats()
        if self._is_sbd:
            # Precompute once what sbd_to_centroids would rebuild per call.
            self._fft_len = fft_len_for(self.m)
            self._fft_C = rfft_batch(C, self._fft_len)
            self._norms_C = np.linalg.norm(C, axis=1)
        elif self._is_dtw:
            self._index = CentroidIndex(C, metric)
            self.stats = self._index.stats
        else:
            from ..distances.base import get_distance

            if isinstance(metric, str):
                get_distance(metric)  # fail fast on unknown names
            elif not callable(metric):
                raise InvalidParameterError(
                    f"metric must be a distance name or callable, got {metric!r}"
                )
        self.kernel_seconds = 0.0
        self.n_queries = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: object, **kwargs: object) -> "ShapePredictor":
        """Build a predictor from any fitted estimator exposing centroids.

        Picks the model's own assignment metric: SBD for
        :class:`~repro.core.kshape.KShape` /
        :class:`~repro.core.minibatch.MiniBatchKShape` /
        :class:`~repro.classification.nearest_centroid.NearestShapeCentroid`,
        the fitted ``metric`` for
        :class:`~repro.clustering.kmeans.TimeSeriesKMeans` and
        :class:`~repro.clustering.kmedoids.KMedoids`.
        """
        centroids = getattr(model, "centroids_", None)
        if centroids is None:
            raise InvalidParameterError(
                f"{type(model).__name__} exposes no centroids to serve from"
            )
        metric = kwargs.pop("metric", None)
        if metric is None:
            metric = getattr(model, "metric", "sbd")
        return cls(centroids, metric=metric, **kwargs)

    @classmethod
    def from_artifact(cls, path: str, **kwargs: object) -> "ShapePredictor":
        """Load a saved artifact (:func:`repro.serving.load_model`) and wrap
        it in a predictor."""
        from .artifacts import load_model

        return cls.from_model(load_model(path), **kwargs)

    # ------------------------------------------------------------------
    def _check_batch(self, X: ArrayLike) -> np.ndarray:
        data = as_dataset(X, "X")
        if data.shape[1] != self.m:
            raise ShapeMismatchError(
                f"query length {data.shape[1]} does not match the model's "
                f"series length {self.m}"
            )
        return data

    def _sbd_matrix(self, data: np.ndarray) -> np.ndarray:
        fft_X = rfft_batch(data, self._fft_len)
        norms_X = np.linalg.norm(data, axis=1)
        values, _ = ncc_c_max_multi(
            fft_X, norms_X, self._fft_C, self._norms_C, self.m, self._fft_len
        )
        return 1.0 - values.T

    def _dense_matrix(self, data: np.ndarray) -> np.ndarray:
        from ..distances.matrix import cross_distances

        return cross_distances(data, self.centroids, metric=self.metric)

    # ------------------------------------------------------------------
    def predict(self, X: ArrayLike) -> np.ndarray:
        """Closest-centroid label for each row of ``X``."""
        return self.predict_full(X).labels

    def transform(self, X: ArrayLike) -> np.ndarray:
        """``(n, k)`` distance matrix of queries to all centroids."""
        data = self._check_batch(X)
        tick = perf_counter()
        if self._is_sbd:
            dists = self._sbd_matrix(data)
        else:
            dists = self._dense_matrix(data)
        self.kernel_seconds += perf_counter() - tick
        self.n_queries += data.shape[0]
        return dists

    def predict_full(self, X: ArrayLike, soft: bool = False) -> Prediction:
        """Labels, distances, and (optionally) soft memberships for ``X``.

        With a (c)DTW metric and ``soft=False``, only the nearest distance
        per query is computed (the lower bounds skip the rest, no
        ``all_distances``); ``soft=True`` forces the full matrix since
        memberships need every column. Labels and distances are identical
        either way — the search is exact.
        """
        data = self._check_batch(X)
        tick = perf_counter()
        if self._index is not None and not soft:
            labels, best = self._index.query_batch(data)
            self.kernel_seconds += perf_counter() - tick
            self.n_queries += data.shape[0]
            return Prediction(labels=labels, distances=best)
        if self._is_sbd:
            dists = self._sbd_matrix(data)
        else:
            dists = self._dense_matrix(data)
        labels = np.argmin(dists, axis=1)
        nearest = dists[np.arange(data.shape[0]), labels]
        memberships = (
            soft_memberships(dists, self.fuzziness) if soft else None
        )
        self.kernel_seconds += perf_counter() - tick
        self.n_queries += data.shape[0]
        return Prediction(
            labels=labels,
            distances=nearest,
            all_distances=dists,
            memberships=memberships,
        )
