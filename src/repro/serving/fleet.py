"""Sharded multi-model serving with hot swap and drift-triggered refits.

This module composes every piece the serving story built so far into one
production-shaped layer, :class:`ShapeFleet`:

* a :class:`~repro.serving.registry.ModelRegistry` is the source of
  model versions (checksummed artifacts, pin/retire, atomic publishes);
* a :class:`~repro.serving.router.ShardRouter` splits traffic by key
  across ``n_shards`` shards with consistent hashing, so resizing the
  fleet moves ~1/N of the keys, not all of them;
* each shard owns its *own* :class:`~repro.serving.ShapePredictor`
  and :class:`~repro.serving.MicroBatchQueue` under the
  profile-calibrated per-shard policy
  (:meth:`repro.tuning.HardwareProfile.serving_policy`), so latency
  percentiles and queue depth are observable per shard and roll up into
  :class:`FleetStats`;
* one :class:`~repro.serving.CentroidMaintainer` watches the traffic the
  fleet labels and arms the closed drift loop.

**Hot swap** (:meth:`ShapeFleet.swap_to`) is loss-free and exact by
construction: the candidate is loaded and smoke-tested while the
incumbent keeps serving; then, shard by shard, the old queue is closed
with ``drain=True`` — every request submitted before the switch is
answered by the *old* predictor, bit-identical to the owning artifact's
``ShapePredictor.predict`` — and the shard atomically flips to a fresh
predictor + queue (a per-shard lock serializes the flip against
``submit``, so a request lands in exactly one of the two queues and is
answered either way). A candidate that fails its checksum, schema, or
smoke prediction rolls back before any shard is touched.

**Staged promotion** (:meth:`ShapeFleet.promote`) shadows a stable,
hash-selected fraction of traffic onto the candidate and compares it
against the incumbent: hard-assignment disagreement, Fuzzy c-Shape-style
soft-membership divergence (a graded signal — two models can disagree on
a boundary series while their membership rows stay close), and the
mean-nearest-distance ratio (the fitness gate: a drift refit is
*expected* to disagree with the stale incumbent, but it must fit the
canary traffic at least as tightly). Pass → fleet-wide swap; fail →
rollback, incumbent untouched.

**Closed drift loop** (:meth:`ShapeFleet.run_drift_cycle`): the
maintainer's :class:`~repro.serving.DriftReport` fires → a
:class:`~repro.core.minibatch.MiniBatchKShape` refit warm-started from
the maintainer's centroids and reservoirs
(:meth:`~repro.core.minibatch.MiniBatchKShape.from_state`) folds in the
recent traffic → the refit is published to the registry → staged
promotion decides swap or rollback → on swap the maintainer's reservoirs
and drift windows reset (:meth:`~repro.serving.CentroidMaintainer.
reset_after_swap`) so the next cycle measures the new version, not the
old one's ghost.

The promotion state machine::

    IDLE --publish/refit--> CANDIDATE --load+smoke ok--> CANARY
    CANDIDATE --checksum/schema/smoke failure--> ROLLED_BACK (incumbent serves)
    CANARY --gates pass--> SWAPPING --per-shard drain+flip--> PROMOTED
    CANARY --gates fail--> ROLLED_BACK (incumbent serves)

Everything is synchronous and deterministic under ``autostart=False``
(the mode the tests and benchmarks drive); ``run_drift_cycle_async``
moves the whole refit-and-promote cycle onto a background thread while
the fleet keeps serving.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_dataset
from ..core.minibatch import MiniBatchKShape
from ..exceptions import ArtifactError, InvalidParameterError, ShapeMismatchError
from .maintenance import CentroidMaintainer, DriftReport
from .predictor import ShapePredictor
from .queue import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LATENCY_S,
    MicroBatchQueue,
    ServingStats,
)
from .registry import ModelRegistry
from .router import DEFAULT_REPLICAS, Key, ShardRouter

__all__ = [
    "FleetStats",
    "SwapReport",
    "PromotionReport",
    "DriftCycleReport",
    "ShapeFleet",
]

#: Promotion / swap outcomes (the state machine's terminal states).
OUTCOME_SWAPPED = "swapped"
OUTCOME_PROMOTED = "promoted"
OUTCOME_ROLLED_BACK = "rolled_back"


def _merge_serving_stats(into: ServingStats, other: ServingStats) -> None:
    """Fold ``other``'s counters into ``into`` (sums, maxes, reservoirs)."""
    into.requests += other.requests
    into.completed += other.completed
    into.rejected += other.rejected
    into.batches += other.batches
    into.batch_occupancy += other.batch_occupancy
    into.max_batch_size = max(into.max_batch_size, other.max_batch_size)
    into.total_latency_s += other.total_latency_s
    into.max_latency_s = max(into.max_latency_s, other.max_latency_s)
    into.kernel_s += other.kernel_s
    into.queue_depth += other.queue_depth
    into.max_queue_depth = max(into.max_queue_depth, other.max_queue_depth)
    into.recent_latencies.extend(other.recent_latencies)


@dataclass
class SwapReport:
    """Outcome of one hot-swap attempt.

    ``outcome`` is :data:`OUTCOME_SWAPPED` or :data:`OUTCOME_ROLLED_BACK`
    (the incumbent kept serving; ``reason`` says why). ``pause_s`` holds
    each shard's intake pause — the drain-and-flip window during which
    that shard's submitters waited on its lock; requests are never
    dropped, only briefly delayed.
    """

    version_from: str
    version_to: str
    outcome: str
    reason: str = ""
    pause_s: Dict[str, float] = field(default_factory=dict)
    drained: Dict[str, int] = field(default_factory=dict)

    @property
    def max_pause_s(self) -> float:
        return max(self.pause_s.values()) if self.pause_s else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version_from": self.version_from,
            "version_to": self.version_to,
            "outcome": self.outcome,
            "reason": self.reason,
            "pause_s": dict(self.pause_s),
            "drained": dict(self.drained),
            "max_pause_s": self.max_pause_s,
        }


@dataclass
class PromotionReport:
    """Outcome of a staged canary promotion.

    ``disagreement_rate`` (label flips) and ``soft_divergence`` (mean
    total-variation distance between the incumbent's and candidate's
    fuzzy membership rows) are comparable only when both versions share a
    cluster count — otherwise they are ``None`` and the decision rests on
    ``distance_ratio`` (candidate's mean nearest distance over the
    incumbent's on canary traffic; < 1 means the candidate fits the
    current traffic tighter).
    """

    incumbent: str
    candidate: str
    outcome: str
    reason: str = ""
    canary_fraction: float = 0.0
    n_canary: int = 0
    n_traffic: int = 0
    distance_ratio: Optional[float] = None
    disagreement_rate: Optional[float] = None
    soft_divergence: Optional[float] = None
    swap: Optional[SwapReport] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "incumbent": self.incumbent,
            "candidate": self.candidate,
            "outcome": self.outcome,
            "reason": self.reason,
            "canary_fraction": self.canary_fraction,
            "n_canary": self.n_canary,
            "n_traffic": self.n_traffic,
            "distance_ratio": self.distance_ratio,
            "disagreement_rate": self.disagreement_rate,
            "soft_divergence": self.soft_divergence,
            "swap": None if self.swap is None else self.swap.as_dict(),
        }


@dataclass
class DriftCycleReport:
    """One turn of the closed drift loop."""

    drift: DriftReport
    refit_version: Optional[str] = None
    promotion: Optional[PromotionReport] = None

    @property
    def swapped(self) -> bool:
        return (
            self.promotion is not None
            and self.promotion.outcome == OUTCOME_PROMOTED
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "drift": self.drift.as_dict(),
            "refit_version": self.refit_version,
            "promotion": (
                None if self.promotion is None else self.promotion.as_dict()
            ),
            "swapped": self.swapped,
        }


@dataclass
class FleetStats:
    """Fleet-level rollup of per-shard serving statistics.

    ``per_shard`` holds each live queue's :class:`ServingStats` snapshot;
    ``retired`` accumulates the counters of queues closed by past swaps,
    so fleet totals are monotone across version changes. The fleet
    latency percentiles are computed over the union of every reservoir.
    """

    version: str
    n_shards: int
    swaps: int = 0
    rollbacks: int = 0
    swap_pauses_s: List[float] = field(default_factory=list)
    per_shard: Dict[str, ServingStats] = field(default_factory=dict)
    retired: ServingStats = field(default_factory=ServingStats)

    def _all_stats(self) -> List[ServingStats]:
        return [*self.per_shard.values(), self.retired]

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self._all_stats())

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self._all_stats())

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self._all_stats())

    @property
    def queue_depth(self) -> int:
        return sum(s.queue_depth for s in self.per_shard.values())

    @property
    def max_queue_depth(self) -> int:
        values = [s.max_queue_depth for s in self._all_stats()]
        return max(values) if values else 0

    def latency_percentile(self, q: float) -> float:
        samples: List[float] = []
        for stats in self._all_stats():
            samples.extend(stats.recent_latencies)
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples, dtype=np.float64), q))

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    def swap_pause_percentile(self, q: float) -> float:
        if not self.swap_pauses_s:
            return 0.0
        return float(
            np.percentile(np.asarray(self.swap_pauses_s, dtype=np.float64), q)
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "n_shards": self.n_shards,
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "swap_pause_p99_s": self.swap_pause_percentile(99.0),
            "swap_pause_max_s": (
                max(self.swap_pauses_s) if self.swap_pauses_s else 0.0
            ),
            "fleet": {
                "requests": self.requests,
                "completed": self.completed,
                "rejected": self.rejected,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "p50_latency_s": self.p50_latency_s,
                "p99_latency_s": self.p99_latency_s,
            },
            "per_shard": {
                name: stats.as_dict()
                for name, stats in sorted(self.per_shard.items())
            },
        }


class _Shard:
    """One shard's live serving state (predictor + queue + flip lock)."""

    def __init__(
        self, name: str, predictor: ShapePredictor, queue: MicroBatchQueue
    ) -> None:
        self.name = name
        self.predictor = predictor
        self.queue = queue
        self.lock = threading.Lock()


class ShapeFleet:
    """Consistent-hash-sharded serving over registry-published models.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.registry.ModelRegistry` (or its root
        path) holding at least one active version.
    n_shards:
        Shards to serve from; each owns an independent predictor and
        micro-batch queue.
    version:
        Version to serve initially; defaults to the registry's
        :meth:`~repro.serving.registry.ModelRegistry.resolve` (pinned,
        else latest active).
    max_batch / max_latency_s:
        Per-shard queue policy. ``None`` resolves the active
        :class:`~repro.tuning.HardwareProfile`'s
        :meth:`~repro.tuning.HardwareProfile.serving_policy` for this
        shard count, else the static defaults.
    autostart:
        Passed to every shard queue. ``False`` (default) keeps the fleet
        fully deterministic: requests buffer until :meth:`flush` (or a
        blocking :meth:`predict`).
    replicas / seed:
        Consistent-hash ring shape (see
        :class:`~repro.serving.router.ShardRouter`).
    maintainer:
        Keyword arguments for the fleet's
        :class:`~repro.serving.CentroidMaintainer` (``None`` uses its
        defaults).
    """

    def __init__(
        self,
        registry: Union[ModelRegistry, str],
        n_shards: int = 2,
        version: Optional[str] = None,
        max_batch: Optional[int] = None,
        max_latency_s: Optional[float] = None,
        autostart: bool = False,
        replicas: int = DEFAULT_REPLICAS,
        seed: int = 0,
        maintainer: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        if n_shards < 1:
            raise InvalidParameterError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        self.n_shards = int(n_shards)
        self.autostart = bool(autostart)
        if max_batch is None or max_latency_s is None:
            from ..tuning.profile import get_active_profile

            profile = get_active_profile()
            if profile is not None:
                policy = profile.serving_policy(self.n_shards)
                if max_batch is None:
                    max_batch = int(policy["max_batch"])
                if max_latency_s is None:
                    max_latency_s = float(policy["max_latency_s"])
            else:
                if max_batch is None:
                    max_batch = DEFAULT_MAX_BATCH
                if max_latency_s is None:
                    max_latency_s = DEFAULT_MAX_LATENCY_S
        self.max_batch = int(max_batch)
        self.max_latency_s = float(max_latency_s)

        self.version_ = version if version is not None else registry.resolve()
        self._model = registry.load(self.version_)
        names = [f"shard-{i:02d}" for i in range(self.n_shards)]
        self.router = ShardRouter(names, replicas=replicas, seed=seed)
        self._shards: Dict[str, _Shard] = {
            name: self._build_shard(name, self._model) for name in names
        }
        self._maintainer_kwargs = dict(maintainer or {})
        self.maintainer = CentroidMaintainer.from_model(
            self._model, **self._maintainer_kwargs
        )
        self.swaps_ = 0
        self.rollbacks_ = 0
        self._swap_pauses_s: List[float] = []
        self._retired = ServingStats()
        self._closed = False

    # ----------------------------------------------------------- plumbing
    def _make_predictor(self, model: object) -> ShapePredictor:
        return ShapePredictor.from_model(model)

    def _build_shard(self, name: str, model: object) -> _Shard:
        predictor = self._make_predictor(model)
        queue = MicroBatchQueue(
            predictor,
            max_batch=self.max_batch,
            max_latency_s=self.max_latency_s,
            autostart=self.autostart,
        )
        return _Shard(name, predictor, queue)

    def shard_of(self, key: Key) -> str:
        """The shard currently owning ``key``."""
        return self.router.route(key)

    @property
    def shards(self) -> List[str]:
        return self.router.shards

    # ------------------------------------------------------------ serving
    def submit(self, key: Key, x: ArrayLike) -> Future:
        """Route one series to its shard's queue; returns the future."""
        shard = self._shards[self.router.route(key)]
        with shard.lock:
            return shard.queue.submit(x)

    def predict(self, key: Key, x: ArrayLike) -> tuple:
        """Blocking single-series convenience: submit, flush if passive,
        wait. Returns the ``(label, distance)`` pair."""
        shard = self._shards[self.router.route(key)]
        with shard.lock:
            future = shard.queue.submit(x)
            queue = shard.queue
        if queue._thread is None:
            queue.flush()
        return future.result()

    def flush(self) -> int:
        """Synchronously answer every waiting request on every shard."""
        total = 0
        for shard in self._shards.values():
            with shard.lock:
                queue = shard.queue
            total += queue.flush()
        return total

    # ------------------------------------------------------------- stats
    def stats(self) -> FleetStats:
        """A consistent fleet-level snapshot (live shards + retired queues)."""
        retired = ServingStats()
        _merge_serving_stats(retired, self._retired)
        per_shard: Dict[str, ServingStats] = {}
        for name, shard in self._shards.items():
            per_shard[name] = shard.queue.stats()
        return FleetStats(
            version=self.version_,
            n_shards=self.n_shards,
            swaps=self.swaps_,
            rollbacks=self.rollbacks_,
            swap_pauses_s=list(self._swap_pauses_s),
            per_shard=per_shard,
            retired=retired,
        )

    # ----------------------------------------------------------- hot swap
    def _smoke_failure(self, model: object) -> Optional[str]:
        """Reason the candidate must not serve, or ``None`` if it may.

        The probe predicts the candidate's own centroids through a fresh
        predictor — the cheapest query guaranteed to be in-distribution —
        and requires finite distances of the right shape.
        """
        centroids = getattr(model, "centroids_", None)
        if centroids is None:
            return "candidate exposes no centroids to serve from"
        try:
            probe = np.asarray(centroids, dtype=np.float64)
            if probe.ndim != 2 or not np.all(np.isfinite(probe)):
                return "candidate centroids are not a finite (k, m) matrix"
            prediction = self._make_predictor(model).predict_full(probe)
            if prediction.labels.shape[0] != probe.shape[0] or not np.all(
                np.isfinite(prediction.distances)
            ):
                return "smoke prediction returned malformed or non-finite answers"
        except Exception as exc:  # any failure here must veto the swap
            return f"smoke prediction failed: {exc!r}"
        return None

    def _load_candidate(
        self, version: str, preloaded: Optional[object]
    ) -> tuple:
        """(model, None) on success, (None, reason) on a rollback cause."""
        model = preloaded
        if model is None:
            try:
                model = self.registry.load(version)
            except ArtifactError as exc:
                return None, f"candidate failed verification: {exc}"
        reason = self._smoke_failure(model)
        if reason is not None:
            return None, reason
        return model, None

    def swap_to(
        self, version: str, _model: Optional[object] = None
    ) -> SwapReport:
        """Hot-swap every shard to ``version``; loss-free and exact.

        The candidate loads and smoke-tests while the incumbent keeps
        serving; a checksum/schema/smoke failure rolls back with no shard
        touched. Then each shard, under its flip lock, drains its queue
        (pending requests are answered by the *incumbent*, bit-identical
        to its artifact's predictor) and atomically switches to a fresh
        predictor + queue over the new version. The maintainer resets so
        drift statistics never straddle a version change.
        """
        incumbent = self.version_
        model, failure = self._load_candidate(version, _model)
        if failure is not None:
            self.rollbacks_ += 1
            return SwapReport(
                version_from=incumbent,
                version_to=version,
                outcome=OUTCOME_ROLLED_BACK,
                reason=failure,
            )
        pauses: Dict[str, float] = {}
        drained: Dict[str, int] = {}
        for name in sorted(self._shards):
            shard = self._shards[name]
            new_predictor = self._make_predictor(model)
            new_queue = MicroBatchQueue(
                new_predictor,
                max_batch=self.max_batch,
                max_latency_s=self.max_latency_s,
                autostart=self.autostart,
            )
            tick = perf_counter()
            with shard.lock:
                old_queue = shard.queue
                backlog = old_queue.stats().queue_depth
                old_queue.close(drain=True)
                shard.predictor = new_predictor
                shard.queue = new_queue
            pauses[name] = perf_counter() - tick
            drained[name] = backlog
            _merge_serving_stats(self._retired, old_queue.stats())
        self._model = model
        self.version_ = version
        self.maintainer.reset_after_swap(getattr(model, "centroids_"))
        self.swaps_ += 1
        self._swap_pauses_s.extend(pauses.values())
        return SwapReport(
            version_from=incumbent,
            version_to=version,
            outcome=OUTCOME_SWAPPED,
            pause_s=pauses,
            drained=drained,
        )

    # ---------------------------------------------------------- promotion
    def canary_mask(
        self, keys: Sequence[Key], fraction: float
    ) -> np.ndarray:
        """Deterministic, key-stable canary selector.

        A key is canary traffic iff its hash position on the unit circle
        falls below ``fraction`` — the same key is always (or never) a
        canary for a given router seed, so repeated promotions compare on
        a consistent traffic slice.
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidParameterError(
                f"canary fraction must be in (0, 1], got {fraction}"
            )
        return np.array(
            [self.router.key_position(key) < fraction for key in keys],
            dtype=bool,
        )

    def promote(
        self,
        version: str,
        keys: Sequence[Key],
        X: ArrayLike,
        canary_fraction: float = 0.25,
        max_distance_regression: float = 0.05,
        max_disagreement: Optional[float] = None,
        max_soft_divergence: Optional[float] = None,
    ) -> PromotionReport:
        """Staged canary promotion of ``version`` against the incumbent.

        ``keys``/``X`` are the recent traffic sample to judge on; the
        hash-stable ``canary_fraction`` slice of it is scored by both
        versions (shadow comparison — the live fleet keeps serving the
        incumbent's answers throughout). The candidate is promoted and
        swapped in iff its mean nearest distance on the canary slice does
        not regress by more than ``max_distance_regression`` (relative),
        and the optional ``max_disagreement`` / ``max_soft_divergence``
        gates (comparable versions only) hold. Any failure — including a
        corrupted candidate — rolls back with the incumbent untouched.
        """
        incumbent = self.version_
        data = as_dataset(X, "X")
        if len(keys) != data.shape[0]:
            raise ShapeMismatchError(
                f"got {len(keys)} keys for {data.shape[0]} series"
            )

        def rollback(reason: str) -> PromotionReport:
            self.rollbacks_ += 1
            return PromotionReport(
                incumbent=incumbent,
                candidate=version,
                outcome=OUTCOME_ROLLED_BACK,
                reason=reason,
                canary_fraction=canary_fraction,
                n_traffic=data.shape[0],
            )

        model, failure = self._load_candidate(version, None)
        if failure is not None:
            return rollback(failure)
        mask = self.canary_mask(keys, canary_fraction)
        n_canary = int(mask.sum())
        if n_canary == 0:
            return rollback(
                f"canary fraction {canary_fraction} selected none of the "
                f"{data.shape[0]} traffic keys"
            )
        canary = data[mask]
        incumbent_pred = self._make_predictor(self._model)
        candidate_pred = self._make_predictor(model)
        base = incumbent_pred.predict_full(canary, soft=True)
        cand = candidate_pred.predict_full(canary, soft=True)

        base_mean = float(np.mean(base.distances))
        cand_mean = float(np.mean(cand.distances))
        if base_mean <= 1e-12:
            ratio = 1.0 if cand_mean <= 1e-12 else float("inf")
        else:
            ratio = cand_mean / base_mean

        comparable = (
            getattr(self._model, "centroids_").shape
            == getattr(model, "centroids_").shape
        )
        disagreement: Optional[float] = None
        divergence: Optional[float] = None
        if comparable:
            disagreement = float(np.mean(base.labels != cand.labels))
            if base.memberships is not None and cand.memberships is not None:
                divergence = float(
                    0.5
                    * np.mean(
                        np.abs(base.memberships - cand.memberships).sum(axis=1)
                    )
                )

        report = PromotionReport(
            incumbent=incumbent,
            candidate=version,
            outcome=OUTCOME_ROLLED_BACK,
            canary_fraction=canary_fraction,
            n_canary=n_canary,
            n_traffic=data.shape[0],
            distance_ratio=ratio,
            disagreement_rate=disagreement,
            soft_divergence=divergence,
        )
        if ratio > 1.0 + max_distance_regression:
            self.rollbacks_ += 1
            report.reason = (
                f"canary mean distance regressed {ratio:.4f}x "
                f"(allowed {1.0 + max_distance_regression:.4f}x)"
            )
            return report
        if max_disagreement is not None and (
            disagreement is None or disagreement > max_disagreement
        ):
            self.rollbacks_ += 1
            report.reason = (
                f"assignment disagreement {disagreement!r} exceeds "
                f"{max_disagreement}"
            )
            return report
        if max_soft_divergence is not None and (
            divergence is None or divergence > max_soft_divergence
        ):
            self.rollbacks_ += 1
            report.reason = (
                f"soft-membership divergence {divergence!r} exceeds "
                f"{max_soft_divergence}"
            )
            return report

        swap = self.swap_to(version, _model=model)
        report.swap = swap
        if swap.outcome == OUTCOME_SWAPPED:
            report.outcome = OUTCOME_PROMOTED
        else:
            report.reason = f"swap failed: {swap.reason}"
        return report

    # ---------------------------------------------------------- drift loop
    def observe(
        self,
        keys: Sequence[Key],
        X: ArrayLike,
        labels: Optional[ArrayLike] = None,
        update: bool = True,
    ) -> np.ndarray:
        """Feed labeled fleet traffic to the drift maintainer.

        ``update=True`` folds the batch into the maintained (shadow)
        centroids and reservoirs — the state a drift refit warm-starts
        from; ``update=False`` only records drift observations. Served
        predictions are never affected. ``keys`` are accepted for call-site
        symmetry with :meth:`submit` (drift is a model-level property, so
        observations are not sharded).
        """
        data = as_dataset(X, "X")
        if len(keys) != data.shape[0]:
            raise ShapeMismatchError(
                f"got {len(keys)} keys for {data.shape[0]} series"
            )
        if update:
            return self.maintainer.update(data, labels)
        return self.maintainer.observe(data)

    def check_drift(self) -> DriftReport:
        """The maintainer's current drift verdict."""
        return self.maintainer.check_drift()

    def run_drift_cycle(
        self,
        keys: Sequence[Key],
        X: ArrayLike,
        version: Optional[str] = None,
        refit_passes: int = 2,
        refit_params: Optional[Dict[str, Any]] = None,
        **promote_kwargs: Any,
    ) -> DriftCycleReport:
        """One synchronous turn of the closed drift loop.

        No drift → nothing happens. Drift → a
        :class:`~repro.core.minibatch.MiniBatchKShape` warm-started from
        the maintainer's centroids and reservoirs folds ``X`` in
        (``refit_passes`` passes of ``partial_fit`` batches), the refit
        is published to the registry, and :meth:`promote` decides between
        fleet-wide swap and rollback. ``keys``/``X`` double as the canary
        traffic sample.
        """
        drift = self.check_drift()
        if not drift.drifted:
            return DriftCycleReport(drift=drift)
        data = as_dataset(X, "X")
        if len(keys) != data.shape[0]:
            raise ShapeMismatchError(
                f"got {len(keys)} keys for {data.shape[0]} series"
            )
        params = dict(refit_params or {})
        params.setdefault("reservoir_size", self.maintainer.reservoir_size)
        refit = MiniBatchKShape.from_state(
            self.maintainer.centroids_,
            self.maintainer._reservoirs,
            **params,
        )
        for _ in range(max(int(refit_passes), 1)):
            for start in range(0, data.shape[0], refit.batch_size):
                refit.partial_fit(data[start : start + refit.batch_size])
        published = self.registry.publish(refit, version=version)
        promotion = self.promote(published, keys, data, **promote_kwargs)
        return DriftCycleReport(
            drift=drift, refit_version=published, promotion=promotion
        )

    def run_drift_cycle_async(
        self,
        keys: Sequence[Key],
        X: ArrayLike,
        **kwargs: Any,
    ) -> "Future[DriftCycleReport]":
        """Run :meth:`run_drift_cycle` on a background thread.

        The fleet keeps serving while the refit trains; the returned
        future resolves to the :class:`DriftCycleReport`. The registry
        publish and the shard flips happen on the background thread —
        safe because submits synchronize on each shard's flip lock.
        """
        keys = list(keys)
        data = as_dataset(X, "X").copy()
        future: "Future[DriftCycleReport]" = Future()

        def work() -> None:
            try:
                future.set_result(self.run_drift_cycle(keys, data, **kwargs))
            except BaseException as exc:  # propagate, don't wedge waiters
                future.set_exception(exc)

        thread = threading.Thread(
            target=work, name="repro-fleet-drift-cycle", daemon=True
        )
        thread.start()
        return future

    # ------------------------------------------------------------ teardown
    def close(self, drain: bool = True) -> None:
        """Close every shard queue (graceful drain by default)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards.values():
            with shard.lock:
                queue = shard.queue
            queue.close(drain=drain)

    def __enter__(self) -> "ShapeFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
