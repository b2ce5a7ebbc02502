"""Tests for repro.serving.artifacts (versioned, checksummed persistence)."""

import json
import os

import numpy as np
import pytest

from repro import (
    KMedoids,
    KShape,
    MiniBatchKShape,
    TimeSeriesKMeans,
)
from repro.classification import NearestShapeCentroid
from repro.distances import make_cdtw, pairwise_distances
from repro.exceptions import (
    ArtifactError,
    ChecksumError,
    NotFittedError,
    SchemaVersionError,
)
from repro.serving import (
    SCHEMA_VERSION,
    describe_artifact,
    load_model,
    save_model,
)
from repro.serving.artifacts import decode_metric, encode_metric


@pytest.fixture
def artifact_dir(tmp_path):
    return str(tmp_path / "model")


def _manifest_path(path):
    return os.path.join(path, "manifest.json")


def _rewrite_manifest(path, **overrides):
    with open(_manifest_path(path)) as handle:
        manifest = json.load(handle)
    manifest.update(overrides)
    with open(_manifest_path(path), "w") as handle:
        json.dump(manifest, handle)


class TestRoundTrips:
    """save -> load -> predict must be bit-identical to the original."""

    def test_kshape(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = KShape(n_clusters=2, random_state=0).fit(X)
        save_model(model, artifact_dir)
        loaded = load_model(artifact_dir)
        assert isinstance(loaded, KShape)
        assert np.array_equal(loaded.labels_, model.labels_)
        assert np.array_equal(loaded.centroids_, model.centroids_)
        assert loaded.inertia_ == model.inertia_
        assert loaded.n_iter_ == model.n_iter_
        assert np.array_equal(loaded.predict(X), model.predict(X))
        assert np.array_equal(loaded.predict(X), model.fit_predict(X))

    def test_kmeans_sbd(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = TimeSeriesKMeans(2, metric="sbd", random_state=0).fit(X)
        save_model(model, artifact_dir)
        loaded = load_model(artifact_dir)
        assert isinstance(loaded, TimeSeriesKMeans)
        assert loaded.metric == "sbd"
        assert np.array_equal(loaded.labels_, model.labels_)
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_kmeans_cdtw_callable_metric(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = TimeSeriesKMeans(
            2, metric=make_cdtw(0.1), random_state=0
        ).fit(X)
        save_model(model, artifact_dir)
        loaded = load_model(artifact_dir)
        assert np.array_equal(loaded.predict(X), model.predict(X))
        # Pruning stats in extra survive the JSON round trip as a dict.
        assert "pruning_stats" in loaded.result_.extra
        assert loaded.result_.extra["pruning_stats"]["candidates"] > 0

    def test_kmedoids(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = KMedoids(2, metric="ed", random_state=0).fit(X)
        save_model(model, artifact_dir)
        loaded = load_model(artifact_dir)
        assert isinstance(loaded, KMedoids)
        assert np.array_equal(loaded.labels_, model.labels_)
        assert np.array_equal(loaded.medoid_indices_, model.medoid_indices_)
        assert loaded.medoid_indices_.dtype.kind == "i"
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_minibatch(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = MiniBatchKShape(2, random_state=0).fit(X)
        save_model(model, artifact_dir)
        loaded = load_model(artifact_dir)
        assert isinstance(loaded, MiniBatchKShape)
        assert np.array_equal(loaded.centroids_, model.centroids_)
        assert loaded.n_seen_ == model.n_seen_
        assert np.array_equal(loaded.predict(X), model.predict(X))
        # Reservoirs came back: partial_fit keeps working after reload.
        loaded.partial_fit(X[:4])
        assert loaded.n_seen_ == model.n_seen_ + 4

    def test_nearest_centroid(self, two_class_data, artifact_dir):
        X, y = two_class_data
        model = NearestShapeCentroid().fit(X, y)
        save_model(model, artifact_dir)
        loaded = load_model(artifact_dir)
        assert np.array_equal(loaded.classes_, model.classes_)
        assert np.array_equal(loaded.predict(X), model.predict(X))


class TestManifest:
    def test_contents(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = KShape(n_clusters=2, random_state=0).fit(X)
        save_model(model, artifact_dir, preprocessing={"znormalize": False})
        manifest = describe_artifact(artifact_dir)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["model_type"] == "KShape"
        assert manifest["metric"] == {"kind": "name", "name": "sbd"}
        assert manifest["preprocessing"] == {"znormalize": False}
        assert manifest["payload"]["sha256"]
        assert "labels" in manifest["payload"]["arrays"]

    def test_default_preprocessing(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        save_model(KShape(2, random_state=0).fit(X), artifact_dir)
        manifest = describe_artifact(artifact_dir)
        assert manifest["preprocessing"] == {"znormalize": True}


class TestRejection:
    @pytest.fixture
    def saved(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        save_model(KShape(n_clusters=2, random_state=0).fit(X), artifact_dir)
        return artifact_dir

    def test_wrong_schema_version(self, saved):
        _rewrite_manifest(saved, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(SchemaVersionError):
            load_model(saved)
        with pytest.raises(SchemaVersionError):
            describe_artifact(saved)

    def test_corrupted_payload_checksum(self, saved):
        payload = os.path.join(saved, "payload.npz")
        blob = bytearray(open(payload, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(payload, "wb") as handle:
            handle.write(blob)
        with pytest.raises(ChecksumError):
            load_model(saved)

    def test_missing_payload(self, saved):
        os.remove(os.path.join(saved, "payload.npz"))
        with pytest.raises(ArtifactError):
            load_model(saved)

    def test_unknown_model_type(self, saved):
        _rewrite_manifest(saved, model_type="NotAModel")
        with pytest.raises(ArtifactError):
            load_model(saved)

    def test_malformed_manifest(self, saved):
        with open(_manifest_path(saved), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ArtifactError):
            load_model(saved)

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_model(str(tmp_path / "nope"))

    def test_typed_errors_are_repro_errors(self):
        from repro.exceptions import ReproError

        assert issubclass(SchemaVersionError, ArtifactError)
        assert issubclass(ChecksumError, ArtifactError)
        assert issubclass(ArtifactError, ReproError)


class TestUnsupported:
    def test_unfitted_raises(self, artifact_dir):
        with pytest.raises(NotFittedError):
            save_model(KShape(n_clusters=2), artifact_dir)

    def test_custom_callable_metric_raises(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        model = TimeSeriesKMeans(
            2, metric=lambda a, b: float(np.abs(a - b).sum()), random_state=0
        ).fit(X)
        with pytest.raises(ArtifactError):
            save_model(model, artifact_dir)

    def test_custom_assignment_distance_raises(
        self, two_class_data, artifact_dir
    ):
        from repro.distances import euclidean

        X, _ = two_class_data
        model = KShape(
            n_clusters=2, random_state=0, assignment_distance=euclidean
        ).fit(X)
        with pytest.raises(ArtifactError):
            save_model(model, artifact_dir)

    def test_precomputed_kmedoids_raises(self, two_class_data, artifact_dir):
        X, _ = two_class_data
        D = pairwise_distances(X, metric="ed")
        model = KMedoids(2, metric="precomputed", random_state=0).fit(D)
        with pytest.raises(ArtifactError):
            save_model(model, artifact_dir)

    def test_unsupported_model_raises(self, two_class_data, artifact_dir):
        from repro import Hierarchical

        X, _ = two_class_data
        model = Hierarchical(n_clusters=2).fit(X)
        with pytest.raises(ArtifactError):
            save_model(model, artifact_dir)


class TestMetricCodec:
    def test_name_round_trip(self):
        assert decode_metric(encode_metric("sbd")) == "sbd"
        assert decode_metric(encode_metric("cdtw5")) == "cdtw5"

    def test_dtw_callable_round_trip(self):
        from repro.distances import dtw
        from repro.distances.prune import dtw_window_of

        restored = decode_metric(encode_metric(dtw))
        assert restored is dtw
        restored = decode_metric(encode_metric(make_cdtw(0.07)))
        assert dtw_window_of(restored) == (True, 0.07)

    def test_custom_callable_rejected(self):
        with pytest.raises(ArtifactError):
            encode_metric(lambda a, b: 0.0)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ArtifactError):
            decode_metric({"kind": "martian"})


class TestLegacyArtifacts:
    """Artifacts written before the ``prune`` knob was removed still load.

    The fixtures under ``tests/fixtures/legacy_artifacts`` were saved by
    the release that still persisted ``"prune": null`` in the params of
    TimeSeriesKMeans and KMedoids artifacts, together with that release's
    predictions for a fixed query batch (``expected.npz``).
    """

    FIXTURES = os.path.join(
        os.path.dirname(__file__), "fixtures", "legacy_artifacts"
    )

    @pytest.mark.parametrize("name, key", [
        ("kmeans_cdtw10", "kmeans_labels"),
        ("kmedoids_cdtw10", "kmedoids_labels"),
    ])
    def test_loads_and_predicts_as_before(self, name, key):
        path = os.path.join(self.FIXTURES, name)
        with open(_manifest_path(path)) as handle:
            assert "prune" in json.load(handle)["params"]
        model = load_model(path)
        assert not hasattr(model, "prune")
        expected = np.load(os.path.join(self.FIXTURES, "expected.npz"))
        assert np.array_equal(model.predict(expected["queries"]), expected[key])
