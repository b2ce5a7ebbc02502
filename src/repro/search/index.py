"""The nearest-candidate search: exact argmin over a fixed candidate set.

Every k-means-style assignment step and every 1-NN query asks one
question — which candidate is nearest to each query? — and
:class:`CentroidIndex` is the one place that answers it. It picks its
strategy from the metric:

* **(c)DTW** (anything :func:`~repro.distances.dtw_window_of`
  recognizes) — a two-round vectorized scan over the whole query batch:

  1. **PAA sketch bound** (:mod:`repro.search.sketch`) — one
     broadcast bounds every (query, candidate) pair from below with
     LB_PAA over the candidates' Keogh envelopes, and the PAA-space
     Euclidean distance (an estimate, never a discard) picks the *seed*
     each query confirms first;
  2. **seed confirmation** — one pair-batched
     :func:`~repro.distances.batch._dtw_cost_batch` wavefront gives
     every query a real distance, so the bounds face a near-nearest
     incumbent at once;
  3. **symmetric LB_Keogh** on the pairs the PAA bound left;
  4. **early-abandoned confirmation** of the survivors in one more
     wavefront sweep, each pair abandoned once its cost provably exceeds
     its query's seed distance.

* **any other metric** — the dense
  :func:`~repro.distances.cross_distances` matrix and its row argmin.

Both strategies are exact: every discard is justified by an admissible
lower bound (the PAA bound carries a float-safety margin,
:data:`~repro.search.sketch.FLOAT_SAFETY`), confirmed cells come from the
kernels the dense matrix uses, and ties go to the lowest candidate index.
Indices and distances are therefore **bit-identical** to
``argmin(cross_distances(Q, candidates, metric))``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_dataset, as_series, check_equal_length
from ..distances.base import get_distance
from ..distances.batch import _dtw_cost_batch
from ..distances.dtw import resolve_window
from ..distances.matrix import cross_distances
from ..distances.prune import (
    PruningStats,
    _envelope_cells,
    _lb_keogh_pairs,
    _row_envelopes,
    dtw_window_of,
)
from ..exceptions import InvalidParameterError
from ..preprocessing.reduction import paa_edges
from .sketch import paa_envelope_sketch, paa_lower_bound, paa_query_means

__all__ = ["CentroidIndex"]


class CentroidIndex:
    """Exact nearest-candidate search over a fixed candidate set.

    Parameters
    ----------
    candidates:
        ``(k, m)`` candidate set (cluster centroids, medoid sequences, or
        a 1-NN training set).
    metric:
        Registered distance name or callable. (c)DTW metrics (see
        :func:`~repro.distances.dtw_window_of`) take the pruned scan,
        everything else the dense matrix.
    window:
        Extra Sakoe-Chiba window for the Keogh envelopes of a (c)DTW
        metric: the envelope uses the wider of this and the metric's own
        window, so the bounds stay admissible. Raises
        :class:`~repro.exceptions.InvalidParameterError` for any other
        metric, which the bounds are not proven admissible for.

    Attributes
    ----------
    stats:
        Cumulative :class:`~repro.distances.PruningStats` over all
        queries. The dense strategy counts every pair as ``full``.
    """

    def __init__(
        self, candidates: ArrayLike, metric: object, window: object = None
    ) -> None:
        C = as_dataset(candidates, "candidates")
        self.candidates = C
        self.n_candidates, self.m = C.shape
        self.metric = metric
        self.stats = PruningStats()
        self._is_dtw, metric_window = dtw_window_of(metric)
        if not self._is_dtw:
            if window is not None:
                raise InvalidParameterError(
                    "window sets the (c)DTW lower-bound envelope; the bounds "
                    f"are not admissible for {metric!r}"
                )
            if isinstance(metric, str):
                get_distance(metric)  # fail fast on unknown names
            elif not callable(metric):
                raise InvalidParameterError(
                    f"metric must be a distance name or callable, got {metric!r}"
                )
            return
        self._w_cells = resolve_window(metric_window, self.m)
        self._env_cells = _envelope_cells(self.m, window, metric_window)
        self._upper, self._lower = _row_envelopes(C, self._env_cells)
        n_segments = int(min(max(2, self.m // 8), 64, self.m))
        self._edges = paa_edges(self.m, n_segments)
        self._counts = np.diff(self._edges).astype(np.float64)
        self._u_hat, self._l_hat = paa_envelope_sketch(
            self._upper, self._lower, self._edges
        )
        self._c_means = paa_query_means(C, self._edges)

    # -- exact cells ---------------------------------------------------------

    def exact_distances(self, X: ArrayLike, candidates: ArrayLike) -> np.ndarray:
        """``(q, c)`` exact distances of queries to selected candidates.

        Bit-identical to the corresponding columns of
        ``cross_distances(X, self.candidates, metric)``: (c)DTW cells come
        from the same wavefront kernel pair by pair, other metrics from
        that very matrix (dense kernels such as the Euclidean GEMM are
        only reproducible for the same operand shapes).
        """
        data = as_dataset(X, "X")
        check_equal_length(data, self.candidates)
        cand = np.asarray(candidates, dtype=np.int64).reshape(-1)
        if cand.shape[0] and (cand.min() < 0 or cand.max() >= self.n_candidates):
            raise InvalidParameterError("candidates contains out-of-range indices")
        if not self._is_dtw:
            return cross_distances(data, self.candidates, metric=self.metric)[:, cand]
        qs = np.repeat(np.arange(data.shape[0]), cand.shape[0])
        cs = np.tile(cand, data.shape[0])
        d = self._dtw_pairs(data, qs, cs, None)
        return d.reshape(data.shape[0], cand.shape[0])

    def _dtw_pairs(
        self,
        data: np.ndarray,
        qs: np.ndarray,
        cs: np.ndarray,
        cutoff: Optional[np.ndarray],
    ) -> np.ndarray:
        """Exact (c)DTW for an explicit (query, candidate) pair list.

        Chunks the pairs through the same
        :func:`~repro.distances.batch._dtw_cost_batch` wavefront the
        dense :func:`~repro.distances.cross_distances` path sweeps (same
        chunk size, same square-root step), so non-abandoned cells are
        bit-identical to the full matrix. A pair abandons (returns inf)
        only when its exact distance strictly exceeds its ``cutoff``
        entry, so ties with the incumbent still come back exact.
        """
        out = np.empty(qs.shape[0])
        # Squaring the rounded square root can land an ulp below the
        # incumbent's own cost, which would abandon an exact tie; the next
        # float up squares to at least every cost whose root rounds to it.
        cut_sq = None if cutoff is None else np.nextafter(cutoff, np.inf) ** 2
        for s in range(0, qs.shape[0], 4096):
            sl = slice(s, s + 4096)
            costs, _ = _dtw_cost_batch(
                data[qs[sl]],
                self.candidates[cs[sl]],
                self._w_cells,
                None if cut_sq is None else cut_sq[sl],
            )
            out[sl] = np.sqrt(costs)
        return out

    # -- strategies ----------------------------------------------------------

    def _scan_dtw(
        self, data: np.ndarray, stats: PruningStats
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The pruned two-round scan (see the module docstring)."""
        q, k = data.shape[0], self.n_candidates
        q_means = paa_query_means(data, self._edges)
        bounds = paa_lower_bound(q_means, self._u_hat, self._l_hat, self._counts)
        # Squared weighted PAA distance — a DTW *estimate*, not a bound; it
        # only picks seeds, never justifies a discard.
        diff = q_means[:, None, :] - self._c_means[None, :, :]
        proxy = np.einsum("qks,qks,s->qk", diff, diff, self._counts)

        def confirm(
            qs: np.ndarray, cs: np.ndarray, cutoff: Optional[np.ndarray]
        ) -> np.ndarray:
            d = self._dtw_pairs(data, qs, cs, cutoff)
            finite = int(np.sum(np.isfinite(d)))
            stats.full += finite
            stats.abandoned += int(qs.shape[0]) - finite
            return d

        rows = np.arange(q)
        cols = np.arange(k)
        seeds = np.argmin(proxy, axis=1).astype(np.int64)
        best = confirm(rows, seeds, None)
        best_idx = seeds.copy()
        # Admissible discard vs the seed distance; argmin ties keep the
        # lowest index, so equal bounds at higher indices go too.
        survivor = ~(
            (bounds > best[:, None])
            | ((bounds == best[:, None]) & (cols[None, :] > best_idx[:, None]))
        )
        survivor[rows, seeds] = False
        qs, cs = np.nonzero(survivor)
        stats.lb_paa += q * (k - 1) - qs.shape[0]
        if qs.shape[0]:
            q_upper, q_lower = _row_envelopes(data, self._env_cells)
            lb = _lb_keogh_pairs(
                data, q_upper, q_lower,
                self.candidates, self._upper, self._lower, qs, cs,
            )
            keep = ~((lb > best[qs]) | ((lb == best[qs]) & (cs > best_idx[qs])))
            stats.lb_keogh += int(qs.shape[0] - np.count_nonzero(keep))
            qs, cs = qs[keep], cs[keep]
        if qs.shape[0]:
            d = confirm(qs, cs, best[qs])
            # Per-query minimum with the lowest index winning ties: sort by
            # (query, distance, candidate) and take each query's first row.
            order = np.lexsort((cs, d, qs))
            qs2, cs2, d2 = qs[order], cs[order], d[order]
            uq, first = np.unique(qs2, return_index=True)
            bd, bc = d2[first], cs2[first]
            upd = (bd < best[uq]) | ((bd == best[uq]) & (bc < best_idx[uq]))
            best[uq[upd]] = bd[upd]
            best_idx[uq[upd]] = bc[upd]
        return best_idx, best

    # -- public queries ------------------------------------------------------

    def query_batch(
        self,
        Q: ArrayLike,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest candidate for every row of ``Q``.

        ``n_jobs``/``backend`` parallelize the dense strategy's
        :func:`~repro.distances.cross_distances` (see :mod:`repro.parallel`);
        the (c)DTW scan is vectorized over the batch and runs in the
        calling thread.

        Returns
        -------
        (indices, distances):
            ``(q,)`` integer and float arrays: the lowest index attaining
            each row's minimum distance, and that distance.
        """
        data = as_dataset(Q, "Q")
        check_equal_length(data, self.candidates)
        q, k = data.shape[0], self.n_candidates
        local = PruningStats(queries=q, candidates=q * k)
        if self._is_dtw:
            indices, dists = self._scan_dtw(data, local)
        else:
            D = cross_distances(
                data, self.candidates, metric=self.metric,
                n_jobs=n_jobs, backend=backend,
            )
            indices = np.argmin(D, axis=1)
            dists = D[np.arange(q), indices]
            local.full = q * k
        self.stats.merge(local)
        return indices, dists

    def query(self, x: ArrayLike) -> Tuple[int, float]:
        """Nearest candidate to one series: a one-row :meth:`query_batch`."""
        xv = as_series(x, "x")
        indices, dists = self.query_batch(xv.reshape(1, -1))
        return int(indices[0]), float(dists[0])
