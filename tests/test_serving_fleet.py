"""Tests for repro.serving.fleet (sharded serving, hot swap, promotion)."""

import numpy as np
import pytest

from repro import KShape, MiniBatchKShape, zscore
from repro.distances import cross_distances
from repro.exceptions import (
    InvalidParameterError,
    QueueClosedError,
    ShapeMismatchError,
)
from repro.serving import (
    ModelRegistry,
    ShapeFleet,
    ShapePredictor,
)
from repro.tuning import HardwareProfile, use_profile

KEYS = [f"sensor-{i:03d}" for i in range(20)]


@pytest.fixture
def models(two_class_data):
    X, _ = two_class_data
    return (
        KShape(n_clusters=2, random_state=0).fit(X),
        KShape(n_clusters=2, random_state=7).fit(X),
    )


@pytest.fixture
def registry(tmp_path, models):
    registry = ModelRegistry(str(tmp_path / "registry"))
    registry.publish(models[0], version="r1")
    registry.publish(models[1], version="r2")
    return registry


@pytest.fixture
def fleet(registry):
    with ShapeFleet(registry, n_shards=3, version="r1", autostart=False) as f:
        yield f


class TestServing:
    def test_serves_resolved_version_bit_identically(
        self, fleet, models, two_class_data
    ):
        X, _ = two_class_data
        futures = [fleet.submit(k, x) for k, x in zip(KEYS, X)]
        assert fleet.flush() == X.shape[0]
        reference = ShapePredictor.from_model(models[0]).predict_full(X)
        for i, future in enumerate(futures):
            label, dist = future.result()
            assert label == int(reference.labels[i])
            assert dist == float(reference.distances[i])

    def test_routing_is_stable_per_key(self, fleet, two_class_data):
        X, _ = two_class_data
        assert [fleet.shard_of(k) for k in KEYS] == [
            fleet.shard_of(k) for k in KEYS
        ]
        assert set(fleet.shards) == {"shard-00", "shard-01", "shard-02"}

    def test_blocking_predict(self, fleet, models, two_class_data):
        X, _ = two_class_data
        label, dist = fleet.predict(KEYS[0], X[0])
        reference = ShapePredictor.from_model(models[0]).predict_full(X[:1])
        assert (label, dist) == (
            int(reference.labels[0]),
            float(reference.distances[0]),
        )

    def test_constructor_uses_pin_and_validates(self, registry):
        registry.pin("r1")
        fleet = ShapeFleet(registry, n_shards=2, autostart=False)
        assert fleet.version_ == "r1"
        fleet.close()
        with pytest.raises(InvalidParameterError):
            ShapeFleet(registry, n_shards=0)

    def test_accepts_registry_path(self, registry):
        fleet = ShapeFleet(registry.root, n_shards=1, autostart=False)
        assert fleet.version_ == "r2"  # latest active
        fleet.close()

    def test_close_rejects_late_submits(self, fleet, two_class_data):
        X, _ = two_class_data
        fleet.close()
        with pytest.raises(QueueClosedError):
            fleet.submit(KEYS[0], X[0])


class TestHotSwap:
    def test_swap_is_loss_free_and_exact(self, fleet, models, two_class_data):
        X, _ = two_class_data
        pending = [fleet.submit(k, x) for k, x in zip(KEYS, X)]
        report = fleet.swap_to("r2")
        assert report.outcome == "swapped"
        assert report.version_from == "r1" and report.version_to == "r2"
        assert sum(report.drained.values()) == X.shape[0]
        assert all(p >= 0 for p in report.pause_s.values())
        # Every pre-swap request was answered — by the INCUMBENT, exactly.
        old = ShapePredictor.from_model(models[0]).predict_full(X)
        for i, future in enumerate(pending):
            assert future.done()
            label, dist = future.result()
            assert label == int(old.labels[i])
            assert dist == float(old.distances[i])
        # Post-swap traffic is served by the new version, exactly.
        new = ShapePredictor.from_model(models[1]).predict_full(X)
        after = [fleet.submit(k, x) for k, x in zip(KEYS, X)]
        fleet.flush()
        for i, future in enumerate(after):
            label, dist = future.result()
            assert label == int(new.labels[i])
            assert dist == float(new.distances[i])
        assert fleet.version_ == "r2"

    def test_corrupted_candidate_rolls_back(
        self, fleet, registry, two_class_data
    ):
        import os

        X, _ = two_class_data
        payload = os.path.join(registry.path_of("r2"), "payload.npz")
        with open(payload, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff\xff\xff")
        pending = [fleet.submit(k, x) for k, x in zip(KEYS[:5], X[:5])]
        report = fleet.swap_to("r2")
        assert report.outcome == "rolled_back"
        assert "verification" in report.reason
        assert fleet.version_ == "r1"  # incumbent untouched
        assert not any(f.done() for f in pending)  # backlog not drained
        fleet.flush()
        assert all(f.done() for f in pending)  # still serving
        assert fleet.stats().rollbacks == 1

    def test_smoke_failure_rolls_back(self, fleet, registry, two_class_data):
        X, _ = two_class_data
        bad = MiniBatchKShape(n_clusters=2, random_state=0).fit(X)
        bad.centroids_[0, :] = np.nan  # poisoned refit
        registry.publish(bad, version="poison")
        report = fleet.swap_to("poison")
        assert report.outcome == "rolled_back"
        assert "finite" in report.reason or "smoke" in report.reason
        assert fleet.version_ == "r1"
        label, _ = fleet.predict(KEYS[0], X[0])
        assert label in (0, 1)  # incumbent still serving

    def test_unknown_version_rolls_back(self, fleet):
        report = fleet.swap_to("ghost")
        assert report.outcome == "rolled_back"
        assert fleet.version_ == "r1"

    def test_swap_resets_maintainer(self, fleet, two_class_data):
        X, _ = two_class_data
        fleet.observe(KEYS, X)
        assert fleet.maintainer.n_seen_ == X.shape[0]
        assert len(fleet.maintainer._baseline) > 0
        fleet.swap_to("r2")
        assert len(fleet.maintainer._baseline) == 0  # windows reset
        assert fleet.maintainer.n_seen_ == X.shape[0]  # lifetime kept
        assert np.array_equal(
            fleet.maintainer.centroids_,
            fleet.registry.load("r2").centroids_,
        )

    def test_stats_roll_up_across_swap(self, fleet, two_class_data):
        X, _ = two_class_data
        for k, x in zip(KEYS, X):
            fleet.submit(k, x)
        fleet.flush()
        fleet.swap_to("r2")
        for k, x in zip(KEYS, X):
            fleet.submit(k, x)
        fleet.flush()
        stats = fleet.stats()
        assert stats.version == "r2"
        assert stats.swaps == 1
        assert stats.requests == stats.completed == 2 * X.shape[0]
        assert len(stats.swap_pauses_s) == fleet.n_shards
        payload = stats.as_dict()
        assert payload["fleet"]["completed"] == 2 * X.shape[0]
        assert payload["swap_pause_p99_s"] >= 0.0
        assert set(payload["per_shard"]) == set(fleet.shards)
        assert stats.p99_latency_s >= stats.p50_latency_s >= 0.0


class TestCanaryPromotion:
    def test_canary_mask_is_deterministic_fraction(self, fleet):
        keys = [f"k-{i}" for i in range(500)]
        mask = fleet.canary_mask(keys, 0.25)
        assert np.array_equal(mask, fleet.canary_mask(keys, 0.25))
        assert 0 < mask.sum() < len(keys)
        wider = fleet.canary_mask(keys, 0.5)
        assert np.all(wider[mask])  # widening keeps existing canaries
        with pytest.raises(InvalidParameterError):
            fleet.canary_mask(keys, 0.0)
        with pytest.raises(InvalidParameterError):
            fleet.canary_mask(keys, 1.5)

    def test_equivalent_candidate_promotes(self, fleet, two_class_data):
        X, _ = two_class_data
        report = fleet.promote("r2", KEYS, X, canary_fraction=1.0)
        assert report.outcome == "promoted"
        assert report.swap is not None and report.swap.outcome == "swapped"
        assert report.n_canary == len(KEYS)
        assert report.distance_ratio == pytest.approx(1.0, abs=0.06)
        assert report.soft_divergence is not None
        assert fleet.version_ == "r2"

    def test_regressed_candidate_rolls_back(
        self, fleet, registry, two_class_data, rng
    ):
        X, _ = two_class_data
        noise = MiniBatchKShape(n_clusters=2, random_state=0).fit(
            zscore(rng.normal(size=(12, X.shape[1])))
        )
        registry.publish(noise, version="noise")
        report = fleet.promote("noise", KEYS, X, canary_fraction=1.0)
        assert report.outcome == "rolled_back"
        assert report.distance_ratio > 1.05
        assert "regressed" in report.reason
        assert fleet.version_ == "r1"
        assert fleet.stats().rollbacks == 1

    def test_optional_disagreement_gate(self, fleet, two_class_data):
        X, _ = two_class_data
        # r1 and r2 were fitted from different seeds: their label NUMBERING
        # differs even though the partitions agree, so a strict agreement
        # gate must veto while the distance gate alone promotes.
        report = fleet.promote(
            "r2", KEYS, X, canary_fraction=1.0, max_disagreement=0.0
        )
        assert report.outcome == "rolled_back"
        assert "disagreement" in report.reason
        assert fleet.version_ == "r1"

    def test_corrupted_candidate_never_reaches_canary(
        self, fleet, registry, two_class_data
    ):
        import os

        X, _ = two_class_data
        payload = os.path.join(registry.path_of("r2"), "payload.npz")
        with open(payload, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\x00\x00\x00")
        report = fleet.promote("r2", KEYS, X)
        assert report.outcome == "rolled_back"
        assert report.distance_ratio is None  # no shadow comparison ran
        assert fleet.version_ == "r1"

    def test_key_data_length_mismatch(self, fleet, two_class_data):
        X, _ = two_class_data
        with pytest.raises(ShapeMismatchError):
            fleet.promote("r2", KEYS[:3], X)


class TestDriftLoop:
    @staticmethod
    def _drifted_fleet(registry, X, rng):
        fleet = ShapeFleet(
            registry,
            n_shards=2,
            version="r1",
            autostart=False,
            maintainer={
                "baseline_window": len(KEYS),  # first observe freezes it
                "recent_window": len(KEYS),
                "drift_threshold": 2.0,
            },
        )
        t = np.linspace(0.0, 1.0, X.shape[1])
        drifted = zscore(
            np.asarray(
                [
                    np.sin(2 * np.pi * (3.3 * t + rng.uniform()))
                    + rng.normal(0, 0.05, t.shape[0])
                    for _ in range(X.shape[0])
                ]
            )
        )
        fleet.observe(KEYS, X)  # freezes the baseline
        fleet.observe(KEYS, drifted)  # fills the recent window
        return fleet, drifted

    def test_no_drift_no_refit(self, fleet, registry, two_class_data):
        X, _ = two_class_data
        fleet.observe(KEYS, X)
        cycle = fleet.run_drift_cycle(KEYS, X)
        assert not cycle.drift.drifted
        assert cycle.refit_version is None
        assert cycle.promotion is None and not cycle.swapped
        assert registry.versions() == ["r1", "r2"]  # nothing published

    def test_drift_triggers_refit_and_promotion(
        self, registry, two_class_data, rng
    ):
        X, _ = two_class_data
        fleet, drifted = self._drifted_fleet(registry, X, rng)
        assert fleet.check_drift().drifted
        cycle = fleet.run_drift_cycle(KEYS, drifted, canary_fraction=1.0)
        assert cycle.drift.drifted
        assert cycle.refit_version in registry.versions()
        assert cycle.promotion is not None
        # The refit trained on the drifted traffic: it must fit it tighter.
        assert cycle.promotion.distance_ratio < 1.0
        assert cycle.promotion.outcome == "promoted" and cycle.swapped
        assert fleet.version_ == cycle.refit_version
        # Drift state reset: the next check starts from scratch.
        assert not fleet.check_drift().drifted
        payload = cycle.as_dict()
        assert payload["swapped"] is True
        assert payload["drift"]["drifted"] is True
        fleet.close()

    def test_async_cycle_resolves_while_serving(
        self, registry, two_class_data, rng
    ):
        X, _ = two_class_data
        fleet, drifted = self._drifted_fleet(registry, X, rng)
        future = fleet.run_drift_cycle_async(
            KEYS, drifted, canary_fraction=1.0
        )
        cycle = future.result(timeout=60)
        assert cycle.swapped
        assert fleet.version_ == cycle.refit_version
        label, _ = fleet.predict(KEYS[0], drifted[0])
        assert 0 <= label < fleet.maintainer.n_clusters
        fleet.close()

    def test_observe_validates_key_count(self, fleet, two_class_data):
        X, _ = two_class_data
        with pytest.raises(ShapeMismatchError):
            fleet.observe(KEYS[:2], X)


class TestProfileIntegration:
    def test_fleet_splits_profile_batch_across_shards(self, registry):
        profile = HardwareProfile(
            machine={"cpu_count": 4, "platform": "test", "python": "3.11"},
            overheads={
                "process_spawn_s": 0.05,
                "thread_spawn_s": 0.001,
                "shm_handoff_s_per_mb": 0.002,
                "fft_warmup_s": 0.0001,
                "tile_dispatch_us": 25.0,
            },
            pair_cost_us={"sbd": {32: 8.0, 128: 20.0}},
            serving={"max_batch": 64.0, "max_latency_s": 0.02},
            calibration={"seed": 0, "reps": 3, "cdtw_band": 0.10},
        )
        with use_profile(profile):
            fleet = ShapeFleet(registry, n_shards=4, autostart=False)
        assert fleet.max_batch == 16  # ceil(64 / 4)
        assert fleet.max_latency_s == 0.02
        fleet.close()

    def test_explicit_policy_wins(self, registry):
        fleet = ShapeFleet(
            registry, n_shards=2, max_batch=5, max_latency_s=0.5,
            autostart=False,
        )
        assert fleet.max_batch == 5 and fleet.max_latency_s == 0.5
        fleet.close()


class TestIndexHandoff:
    def test_exact_index_kept_across_swap(self, tmp_path, two_class_data):
        from repro import TimeSeriesKMeans

        X, _ = two_class_data
        dtw_models = [
            TimeSeriesKMeans(2, metric="cdtw10", max_iter=5, random_state=seed)
            .fit(X)
            for seed in (0, 7)
        ]
        registry = ModelRegistry(str(tmp_path / "dtw-registry"))
        registry.publish(dtw_models[0], version="r1")
        registry.publish(dtw_models[1], version="r2")
        fleet = ShapeFleet(registry, n_shards=2, version="r1", autostart=False)
        for k, x in zip(KEYS, X):
            fleet.submit(k, x)
        fleet.flush()
        report = fleet.swap_to("r2")
        assert report.outcome == "swapped"
        # New predictors carry a fresh (c)DTW index over the NEW centroids
        # and stay bit-identical to the exhaustive answers.
        D = cross_distances(X, dtw_models[1].centroids_, metric="cdtw10")
        futures = [fleet.submit(k, x) for k, x in zip(KEYS, X)]
        fleet.flush()
        for i, future in enumerate(futures):
            label, dist = future.result()
            assert label == int(np.argmin(D[i]))
            assert dist == float(D[i].min())
        fleet.close()
