"""The k-Shape clustering algorithm (paper Section 3.3, Algorithm 3).

k-Shape is a partitional, centroid-based method that iterates two steps
until the memberships stabilize or an iteration cap is reached:

* **refinement** — each cluster's centroid is recomputed with shape
  extraction (Algorithm 2), using the previous centroid as the alignment
  reference;
* **assignment** — each series moves to the cluster of its closest centroid
  under SBD (Algorithm 1).

The assignment step is batched and screened (:func:`assign_sbd`). The
dataset's FFTs are computed once per ``fit`` and reused every iteration,
and the ``k`` centroid rFFTs are taken with a single batched transform.
Every (series, centroid) pair is first scored by a float32 NCCc on
unit-norm spectra, one inverse transform per centroid; only the pairs that
can still win a row under the screen's error bound (:func:`screen_tol`),
about one per series, are confirmed by the float64 kernel, which decides
the assignment. One iteration still costs ``O(n * k * m log m)``, the
linear-in-``n`` scaling Appendix B demonstrates, with a float32 constant;
labels, lags, distances and inertia are exactly those of the dense
float64 assignment (:func:`_assign_sbd_naive`).

On top of the batching, the loop tracks **dirty clusters**: a cluster whose
member set is unchanged *and* whose members' optimal alignment lags toward
the current centroid equal the lags used for its last extraction would
reproduce its centroid bit-for-bit, so the extraction, the centroid FFT,
and the cluster's column of screen scores and confirmed distances are all
reused instead of recomputed. Because the skip condition is exactly
"recomputing would be a no-op", results are identical to the
always-recompute path (see ``cache_clusters``); late iterations, where
most clusters are stable, shrink to the cost of the few clusters still in
motion.

The paper's ``k-Shape+DTW`` ablation (Table 3) — k-Shape with DTW replacing
SBD in the assignment step — is available via ``assignment_distance``.
"""

from __future__ import annotations

import warnings
from functools import partial
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

from .._validation import check_positive_int
from ..clustering.base import (
    BaseClusterer,
    ClusterResult,
    random_assignment,
    repair_empty_clusters,
)
from ..exceptions import ConvergenceWarning
from ..parallel.executors import parallel_map
from ..preprocessing.utils import shift_series_batch
from ._fft_batch import (
    fft_len_for,
    ncc_c_max_batch,
    ncc_c_max_multi,
    ncc_c_max_screen,
    rfft_batch,
    sbd_to_centroids,
    screen_tol,
    unit_spectra,
)
from .shape_extraction import _extract_from_aligned

__all__ = ["KShape", "kshape"]


def _flipped(fn, x, y):
    """Swap an assignment distance's (centroid, series) argument order to
    the (row, column) order of ``cross_distances`` (picklable, unlike a
    lambda, so the process backend can ship it)."""
    return fn(y, x)


class _SBDState:
    """Per-fit state of the SBD assignment step.

    ``dists[i, j]`` (``1 - NCCc``) and ``shifts[i, j]`` (the lag row ``i``
    moves by to align with centroid ``j``) hold the float64 kernel's exact
    numbers wherever ``exact[j, i]`` is set; ``screen[j, i]`` is the
    float32 NCCc of the pair. Columns never scored read as distance 0,
    lag 0 and are exact, as the dense assignment's zero-initialized matrix
    reads them.
    """

    def __init__(self, fft_X: np.ndarray, norms_X: np.ndarray, k: int, m: int, fft_len: int):
        n = norms_X.shape[0]
        self.fft_X = fft_X
        self.norms_X = norms_X
        self.m = m
        self.fft_len = fft_len
        self.tol = screen_tol(m)
        self.dists = np.zeros((n, k))
        self.shifts = np.zeros((n, k), dtype=np.int64)
        self.unit_X = unit_spectra(fft_X, norms_X)
        self.screen = np.ones((k, n), dtype=np.float32)
        self.exact = np.ones((k, n), dtype=bool)

    def confirm(self, fft_C: np.ndarray, norms_C: np.ndarray, need: np.ndarray) -> None:
        """Compute the exact float64 numbers of the ``(k, n)`` pairs in ``need``.

        Each centroid's pairs gather their rows into one
        :func:`ncc_c_max_batch` call, whose cells are bit-identical to the
        same cells of :func:`ncc_c_max_multi`.
        """
        for j in np.flatnonzero(need.any(axis=1)):
            rows = np.flatnonzero(need[j])
            values, lags = ncc_c_max_batch(
                self.fft_X[rows], self.norms_X[rows],
                fft_C[j], float(norms_C[j]), self.m, self.fft_len,
            )
            self.dists[rows, j] = 1.0 - values
            self.shifts[rows, j] = -lags
            self.exact[j, rows] = True


def assign_sbd(
    state: _SBDState,
    fft_C: np.ndarray,
    norms_C: np.ndarray,
    cols: List[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Screened SBD assignment: labels of the closest centroids.

    ``cols`` lists the centroids whose spectra ``fft_C`` and norms
    ``norms_C`` changed since the last call; their columns of ``state``
    are rescored, the rest are reused.

    * **Screen.** Each rescored column is scored against every row by
      :func:`ncc_c_max_screen`, a float32 NCCc on unit-norm spectra.
      Pairs whose norm product is ``<= 1e-12`` get the float64 kernel's
      value 0, lag 0 directly, with no transform.
    * **Confirm.** A row's candidates are the centroids whose score is
      within ``2 * tol`` of the row's best score, with ``tol =
      screen_tol(m)`` bounding the screen's error. A centroid outside that
      band has a float64 NCCc below the best-scored centroid's (by over
      ``1.5 * tol`` at the error the property test allows, far above the
      rounding of ``1 - NCCc``), so it cannot be the row's argmin. The
      candidates not yet exact get their float64 value and lag from
      :func:`ncc_c_max_batch` on the gathered rows, bit-identical to the
      dense kernel's cells, and the argmin over the candidates breaks
      ties toward the lowest index, as ``np.argmin`` does. A NaN score is
      always a candidate.
    * **Repair.** Rows that :func:`repair_empty_clusters` moves are
      confirmed against their new centroid.

    Every assigned pair is therefore exact, so ``state.dists`` and
    ``state.shifts`` at ``(i, labels[i])`` and the returned labels equal
    :func:`_assign_sbd_naive`'s.
    """
    n, k = state.dists.shape
    if cols:
        # Complement of the float64 kernel's ``denom > eps``, so a NaN
        # norm product takes its value 0 here too.
        unsafe = ~(norms_C[cols][:, None] * state.norms_X[None, :] > 1e-12)
        scores = ncc_c_max_screen(
            state.unit_X, unit_spectra(fft_C[cols], norms_C[cols]), state.m, state.fft_len
        )
        scores[unsafe] = 0.0
        state.screen[cols] = scores
        state.exact[cols] = unsafe
        state.dists[:, cols] = 1.0
        state.shifts[:, cols] = 0
    floor = state.screen.max(axis=0).astype(np.float64) - 2.0 * state.tol
    candidates = ~(state.screen < floor)
    state.confirm(fft_C, norms_C, candidates & ~state.exact)
    labels = np.argmin(np.where(candidates.T, state.dists, np.inf), axis=1)
    labels = repair_empty_clusters(labels, k, rng)
    rows = np.arange(n)
    moved = np.zeros_like(state.exact)
    moved[labels, rows] = ~state.exact[labels, rows]
    state.confirm(fft_C, norms_C, moved)
    return labels


def _assign_sbd_naive(
    state: _SBDState,
    fft_C: np.ndarray,
    norms_C: np.ndarray,
    cols: List[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Dense float64 oracle of :func:`assign_sbd`: every pair exact."""
    n, k = state.dists.shape
    if cols:
        values, lags = ncc_c_max_multi(
            state.fft_X, state.norms_X, fft_C[cols], norms_C[cols], state.m, state.fft_len
        )
        state.dists[:, cols] = (1.0 - values).T
        state.shifts[:, cols] = -lags.T
    labels = np.argmin(state.dists, axis=1)
    return repair_empty_clusters(labels, k, rng)


def _extract_aligned_task(aligned: np.ndarray) -> np.ndarray:
    """Shape-extract one cluster whose members are already aligned.

    Module-level (not a closure) so it pickles: ``backend="processes"`` is
    honored by :func:`parallel_map` instead of silently falling back to
    threads.
    """
    return _extract_from_aligned(aligned)


class KShape(BaseClusterer):
    """k-Shape time-series clustering.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    max_iter:
        Iteration cap (the paper uses 100).
    n_init:
        Number of random restarts; the run with the lowest inertia
        (Equation 1 under SBD) wins.
    random_state:
        Seed or :class:`numpy.random.Generator` controlling the random
        initial memberships (and restarts).
    init:
        ``"random"`` (the paper's Algorithm 3: uniformly random initial
        memberships, all-zero initial centroids) or ``"plusplus"`` — an
        extension seeding in the style of k-means++: initial centroids are
        actual sequences picked with probability proportional to their
        squared SBD to the nearest already-chosen seed, and initial
        memberships assign each series to its closest seed. Often converges
        in fewer iterations on well-separated data.
    assignment_distance:
        Optional callable ``(x, y) -> float`` replacing SBD in the
        assignment step (used for the ``k-Shape+DTW`` ablation). When given,
        assignment falls back to per-pair evaluation and the distance-column
        cache is disabled (centroid-extraction caching still applies).
    cache_clusters:
        Reuse the centroid, its cached rFFT/norm, and its distance-matrix
        column for clusters whose recomputation would provably be a no-op
        (unchanged member set and unchanged alignment lags). ``False``
        forces the always-recompute path; labels, centroids, and inertia
        are identical either way — the flag exists for benchmarking and
        verification.
    n_jobs, backend:
        Parallel execution (see :mod:`repro.parallel`): with
        ``n_jobs > 1`` the per-cluster shape extractions of the refinement
        step run concurrently (the worker is picklable, so
        ``backend="processes"`` is honored), and the per-pair assignment
        matrix of a custom ``assignment_distance`` is tiled over workers.
        Each cluster's extraction is independent and the default SBD
        assignment is already batched, so results are identical for any
        worker count.

    Attributes
    ----------
    labels_:
        ``(n,)`` cluster memberships.
    centroids_:
        ``(k, m)`` extracted shapes (z-normalized).
    inertia_:
        Sum of squared SBD distances to assigned centroids.
    n_iter_:
        Iterations of the best run.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import KShape, zscore
    >>> rng = np.random.default_rng(0)
    >>> t = np.linspace(0, 1, 64)
    >>> X = zscore(np.r_[
    ...     [np.sin(2 * np.pi * (2 * t + p)) for p in rng.uniform(0, 1, 10)],
    ...     [np.sin(2 * np.pi * (5 * t + p)) for p in rng.uniform(0, 1, 10)],
    ... ])
    >>> model = KShape(n_clusters=2, random_state=1).fit(X)
    >>> [int(size) for size in np.bincount(model.labels_)]
    [10, 10]
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        n_init: int = 1,
        random_state=None,
        init: str = "random",
        assignment_distance: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
        cache_clusters: bool = True,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        super().__init__(n_clusters, random_state)
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.n_init = check_positive_int(n_init, "n_init")
        if init not in ("random", "plusplus"):
            from ..exceptions import InvalidParameterError

            raise InvalidParameterError(
                f"init must be 'random' or 'plusplus', got {init!r}"
            )
        self.init = init
        self.assignment_distance = assignment_distance
        self.cache_clusters = bool(cache_clusters)
        self.n_jobs = n_jobs
        self.backend = backend

    def _plusplus_seeds(
        self,
        X: np.ndarray,
        fft_X: np.ndarray,
        norms_X: np.ndarray,
        fft_len: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """k-means++-style seeding under SBD: initial memberships from
        actual sequences chosen with probability proportional to their
        squared SBD to the nearest seed so far."""
        n, m = X.shape
        k = self.n_clusters
        seeds = [int(rng.integers(0, n))]
        nearest = np.full(n, np.inf)
        dists = np.empty((n, k))
        for j in range(k):
            last = seeds[-1]
            values, _ = ncc_c_max_batch(
                fft_X, norms_X, fft_X[last], float(norms_X[last]), m, fft_len
            )
            dists[:, j] = 1.0 - values
            if j == k - 1:
                break
            nearest = np.minimum(nearest, dists[:, j])
            weights = np.maximum(nearest, 0.0) ** 2
            total = weights.sum()
            if total <= 0:
                candidates = np.setdiff1d(np.arange(n), seeds)
                seeds.append(int(rng.choice(candidates)))
                continue
            seeds.append(int(rng.choice(n, p=weights / total)))
        # Assign every series to its closest seed.
        labels = np.argmin(dists, axis=1)
        return repair_empty_clusters(labels, k, rng)

    # ------------------------------------------------------------------
    def _assignment_distances(
        self,
        X: np.ndarray,
        fft_X: np.ndarray,
        norms_X: np.ndarray,
        centroids: np.ndarray,
        fft_len: int,
    ) -> np.ndarray:
        """``(n, k)`` matrix of distances from every series to every centroid."""
        n, m = X.shape
        k = centroids.shape[0]
        if self.assignment_distance is not None:
            if self.n_jobs is not None or self.backend is not None:
                from ..distances.matrix import cross_distances

                return cross_distances(
                    X,
                    centroids,
                    metric=partial(_flipped, self.assignment_distance),
                    n_jobs=self.n_jobs,
                    backend=self.backend,
                )
            dists = np.empty((n, k))
            for j in range(k):
                for i in range(n):
                    dists[i, j] = self.assignment_distance(centroids[j], X[i])
            return dists
        dists, _ = sbd_to_centroids(fft_X, norms_X, centroids, m, fft_len)
        return dists

    def _single_run(self, X: np.ndarray, rng: np.random.Generator) -> ClusterResult:
        n, m = X.shape
        k = self.n_clusters
        centroids = np.zeros((k, m))
        fft_len = fft_len_for(m)
        fft_X = rfft_batch(X, fft_len)
        norms_X = np.linalg.norm(X, axis=1)
        if self.init == "plusplus":
            labels = self._plusplus_seeds(X, fft_X, norms_X, fft_len, rng)
        else:
            labels = random_assignment(n, k, rng)

        custom_metric = self.assignment_distance is not None
        # Per-centroid rFFT/norm cache, refreshed only for re-extracted
        # clusters; also powers alignment-lag lookups with a custom metric.
        fft_C = np.zeros((k, fft_len // 2 + 1), dtype=complex)
        norms_C = np.zeros(k)
        # sbd.shifts[i, j]: lag row i must move by to align with centroid j
        # — the (negated) SBD lag, cached from the assignment kernel so
        # refinement needs no extra FFT work. Exact for every assigned pair.
        sbd = _SBDState(fft_X, norms_X, k, m, fft_len)
        # Dirty-cluster bookkeeping: the member set and alignment lags each
        # centroid was last extracted from.
        last_members: List[Optional[np.ndarray]] = [None] * k
        last_shifts: List[Optional[np.ndarray]] = [None] * k

        converged = False
        n_iter = 0
        dists = sbd.dists  # a custom metric replaces it every iteration
        history = []  # per-iteration (inertia, membership changes)
        timings = {"align": 0.0, "extract": 0.0, "assign": 0.0}
        for n_iter in range(1, self.max_iter + 1):
            previous = labels
            # Refinement step: recompute each centroid via shape extraction,
            # aligning members toward the centroid of the previous iteration.
            # Empty clusters keep their previous centroid; clean clusters
            # (same members, same lags) keep everything.
            tick = perf_counter()
            dirty: List[int] = []
            tasks: List[np.ndarray] = []
            for j in range(k):
                members = np.flatnonzero(labels == j)
                if members.size == 0:
                    continue
                if not np.any(centroids[j]):
                    # All-zero reference (first iteration): alignment is a
                    # no-op, exactly as align_cluster treats it.
                    shifts = np.zeros(members.size, dtype=np.int64)
                elif custom_metric:
                    _, lags = ncc_c_max_batch(
                        fft_X[members], norms_X[members],
                        fft_C[j], float(norms_C[j]), m, fft_len,
                    )
                    shifts = -np.asarray(lags, dtype=np.int64)
                else:
                    shifts = sbd.shifts[members, j]
                if (
                    self.cache_clusters
                    and last_members[j] is not None
                    and np.array_equal(last_members[j], members)
                    and np.array_equal(last_shifts[j], shifts)
                ):
                    continue  # clean: re-extraction would reproduce centroid
                dirty.append(j)
                tasks.append(shift_series_batch(X[members], shifts))
                last_members[j] = members
                last_shifts[j] = shifts
            timings["align"] += perf_counter() - tick

            tick = perf_counter()
            extracted = parallel_map(
                _extract_aligned_task,
                tasks,
                n_jobs=self.n_jobs,
                backend=self.backend,
            )
            for j, centroid in zip(dirty, extracted):
                centroids[j] = centroid
            if dirty:
                fft_C[dirty] = rfft_batch(centroids[dirty], fft_len)
                norms_C[dirty] = np.linalg.norm(centroids[dirty], axis=1)
            timings["extract"] += perf_counter() - tick

            # Assignment step: move each series to its closest centroid.
            # Only columns of re-extracted centroids can change; with
            # caching off (or on the first pass) every column is rescored.
            tick = perf_counter()
            if custom_metric:
                dists = self._assignment_distances(
                    X, fft_X, norms_X, centroids, fft_len
                )
                labels = repair_empty_clusters(np.argmin(dists, axis=1), k, rng)
            else:
                cols = dirty if self.cache_clusters else list(range(k))
                if cols and not self.cache_clusters:
                    fft_C[cols] = rfft_batch(centroids[cols], fft_len)
                    norms_C[cols] = np.linalg.norm(centroids[cols], axis=1)
                labels = assign_sbd(sbd, fft_C, norms_C, cols, rng)
            timings["assign"] += perf_counter() - tick
            history.append((
                float(np.sum(dists[np.arange(n), labels] ** 2)),
                int(np.sum(labels != previous)),
            ))
            if np.array_equal(labels, previous):
                converged = True
                break
        if not converged:
            warnings.warn(
                f"k-Shape did not converge in {self.max_iter} iterations",
                ConvergenceWarning,
                stacklevel=2,
            )
        inertia = float(np.sum(dists[np.arange(n), labels] ** 2))
        return ClusterResult(
            labels=labels,
            centroids=centroids.copy(),
            inertia=inertia,
            n_iter=n_iter,
            converged=converged,
            extra={"history": history, "phase_seconds": timings},
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

        Scores every (series, centroid) pair with the dense float64 kernel
        (:func:`~repro.core._fft_batch.sbd_to_centroids`) — or, with a
        custom ``assignment_distance``, the same per-pair evaluation. The
        fit loop screens most pairs in float32 but decides every row by the
        same float64 values (:func:`assign_sbd`), so held-out labels agree
        bit-for-bit by construction with what another fit iteration would
        have assigned, and with :class:`repro.serving.ShapePredictor` over
        the saved centroids.
        """
        data = self._predict_data(X)
        result = self._check_fitted()
        centroids = result.centroids
        n, m = data.shape
        fft_len = fft_len_for(m)
        if self.assignment_distance is not None:
            # fft arguments are unused on the custom-metric branch.
            dists = self._assignment_distances(
                data, None, None, centroids, fft_len
            )
        else:
            fft_X = rfft_batch(data, fft_len)
            norms_X = np.linalg.norm(data, axis=1)
            dists, _ = sbd_to_centroids(fft_X, norms_X, centroids, m, fft_len)
        return np.argmin(dists, axis=1)


def kshape(
    X,
    n_clusters: int,
    max_iter: int = 100,
    n_init: int = 1,
    random_state=None,
    init: str = "random",
    assignment_distance: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
    cache_clusters: bool = True,
    n_jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> ClusterResult:
    """Functional interface to :class:`KShape`.

    Returns the :class:`~repro.clustering.base.ClusterResult` of the best of
    ``n_init`` runs. All estimator knobs pass straight through:
    ``init=``/``assignment_distance=`` select the seeding strategy and the
    k-Shape+DTW ablation, ``cache_clusters=`` toggles the dirty-cluster
    fast path, and ``n_jobs``/``backend`` select parallel execution as
    documented on :class:`KShape`.
    """
    model = KShape(
        n_clusters,
        max_iter=max_iter,
        n_init=n_init,
        random_state=random_state,
        init=init,
        assignment_distance=assignment_distance,
        cache_clusters=cache_clusters,
        n_jobs=n_jobs,
        backend=backend,
    )
    model.fit(X)
    assert model.result_ is not None
    return model.result_
