"""Versioned, checksummed persistence for fitted clusterers.

A saved model is a directory containing two files:

* ``payload.npz`` — every array the model needs to answer queries
  (centroids, labels, reservoirs, ...), stored uncompressed-exact by
  :func:`numpy.savez_compressed` so round-trips are bit-identical;
* ``manifest.json`` — a human-readable manifest carrying the artifact
  schema version, the model type and constructor parameters, the distance
  metric in a serializable encoding, the preprocessing configuration the
  caller declares, and the SHA-256 checksum of ``payload.npz``.

:func:`load_model` refuses to reconstruct anything suspicious: a manifest
with an unsupported ``schema_version`` raises
:class:`~repro.exceptions.SchemaVersionError`, a payload whose bytes do not
hash to the recorded checksum raises
:class:`~repro.exceptions.ChecksumError`, and structurally broken artifacts
(missing files, unknown model types, unserializable metrics) raise
:class:`~repro.exceptions.ArtifactError`. All three derive from
:class:`~repro.exceptions.ReproError`.

Supported model types: :class:`~repro.core.kshape.KShape`,
:class:`~repro.clustering.kmeans.TimeSeriesKMeans`,
:class:`~repro.clustering.kmedoids.KMedoids`,
:class:`~repro.core.minibatch.MiniBatchKShape`, and
:class:`~repro.classification.nearest_centroid.NearestShapeCentroid`.
Reloaded estimators carry the same fitted state (``labels_``,
``centroids_``, ``inertia_``, reservoirs, ...) and answer ``predict``
bit-identically to the in-memory original.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..classification.nearest_centroid import NearestShapeCentroid
from ..clustering.base import ClusterResult
from ..clustering.kmeans import TimeSeriesKMeans, _mean_centroid
from ..clustering.kmedoids import KMedoids
from ..core.kshape import KShape
from ..core.minibatch import MiniBatchKShape
from ..distances.base import DistanceFn, make_cdtw
from ..distances.dtw import dtw as _dtw
from ..distances.prune import dtw_window_of
from ..exceptions import (
    ArtifactError,
    ChecksumError,
    NotFittedError,
    SchemaVersionError,
)

__all__ = [
    "SCHEMA_VERSION",
    "save_model",
    "load_model",
    "describe_artifact",
]

SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"
_PAYLOAD = "payload.npz"


# ---------------------------------------------------------------------------
# metric (de)serialization


def encode_metric(metric: object) -> dict:
    """Encode a distance metric into a JSON-serializable description.

    Registered names pass through verbatim; the ``dtw``/``cdtw`` callables
    and :func:`functools.partial` wrappers over them (what
    :func:`repro.distances.make_cdtw` produces) are recognized through
    :func:`repro.distances.dtw_window_of` and stored as a window spec.
    Arbitrary callables cannot be persisted and raise
    :class:`~repro.exceptions.ArtifactError`.
    """
    if isinstance(metric, str):
        return {"kind": "name", "name": metric}
    is_dtw, window = dtw_window_of(metric)
    if is_dtw:
        return {"kind": "dtw", "window": window}
    raise ArtifactError(
        f"cannot persist a custom callable metric ({metric!r}); register it "
        "under a name with repro.register_distance and pass the name instead"
    )


def decode_metric(spec: dict) -> Union[str, DistanceFn]:
    """Inverse of :func:`encode_metric`."""
    kind = spec.get("kind")
    if kind == "name":
        return spec["name"]
    if kind == "dtw":
        window = spec.get("window")
        if window is None:
            return _dtw
        return make_cdtw(window)
    raise ArtifactError(f"unknown metric encoding {spec!r}")


# ---------------------------------------------------------------------------
# ClusterResult <-> (arrays, meta)


def _jsonable(value: object) -> object:
    """Best-effort conversion of ``extra`` payloads to JSON-stable values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    return value


def _pack_result(result: ClusterResult, arrays: dict, meta: dict) -> None:
    arrays["labels"] = result.labels
    if result.centroids is not None:
        arrays["centroids"] = result.centroids
    extra = dict(result.extra)
    medoids = extra.pop("medoid_indices", None)
    if medoids is not None:
        arrays["medoid_indices"] = np.asarray(medoids)
    meta["result"] = {
        "inertia": result.inertia,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "has_centroids": result.centroids is not None,
        "has_medoid_indices": medoids is not None,
        "extra": _jsonable(extra),
    }


def _unpack_result(arrays: dict, meta: dict) -> ClusterResult:
    info = meta["result"]
    extra = dict(info.get("extra", {}))
    if info.get("has_medoid_indices"):
        extra["medoid_indices"] = np.asarray(arrays["medoid_indices"])
    return ClusterResult(
        labels=np.asarray(arrays["labels"]),
        centroids=(
            np.asarray(arrays["centroids"]) if info["has_centroids"] else None
        ),
        inertia=float(info["inertia"]),
        n_iter=int(info["n_iter"]),
        converged=bool(info["converged"]),
        extra=extra,
    )


def _require_result(model: object) -> ClusterResult:
    if model.result_ is None:
        raise NotFittedError(
            f"{type(model).__name__} must be fitted before saving"
        )
    return model.result_


# ---------------------------------------------------------------------------
# per-model exporters / restorers


def _export_kshape(model: KShape) -> Tuple[dict, dict]:
    if model.assignment_distance is not None:
        raise ArtifactError(
            "KShape with a custom assignment_distance cannot be persisted"
        )
    arrays: dict = {}
    meta = {
        "params": {
            "n_clusters": model.n_clusters,
            "max_iter": model.max_iter,
            "n_init": model.n_init,
            "init": model.init,
            "cache_clusters": model.cache_clusters,
        },
        "metric": {"kind": "name", "name": "sbd"},
    }
    _pack_result(_require_result(model), arrays, meta)
    return arrays, meta


def _restore_kshape(arrays: dict, meta: dict) -> KShape:
    model = KShape(**meta["params"])
    model.result_ = _unpack_result(arrays, meta)
    return model


def _export_kmeans(model: TimeSeriesKMeans) -> Tuple[dict, dict]:
    if model.centroid_fn is not _mean_centroid:
        raise ArtifactError(
            "TimeSeriesKMeans with a custom centroid_fn cannot be persisted"
        )
    arrays: dict = {}
    meta = {
        "params": {
            "n_clusters": model.n_clusters,
            "max_iter": model.max_iter,
            "n_init": model.n_init,
        },
        "metric": encode_metric(model.metric),
    }
    _pack_result(_require_result(model), arrays, meta)
    return arrays, meta


#: Constructor parameters older artifacts persisted that no longer exist
#: (the ``prune`` knob, gone since the nearest-candidate search is one path).
#: Dropped on restore; the stored manifest and checksum stay as written.
_RETIRED_PARAMS = frozenset({"prune"})


def _live_params(meta: dict) -> dict:
    return {
        key: value
        for key, value in meta["params"].items()
        if key not in _RETIRED_PARAMS
    }


def _restore_kmeans(arrays: dict, meta: dict) -> TimeSeriesKMeans:
    model = TimeSeriesKMeans(
        metric=decode_metric(meta["metric"]), **_live_params(meta)
    )
    model.result_ = _unpack_result(arrays, meta)
    return model


def _export_kmedoids(model: KMedoids) -> Tuple[dict, dict]:
    if isinstance(model.metric, str) and model.metric == "precomputed":
        raise ArtifactError(
            "KMedoids fitted on a precomputed matrix has no raw medoid "
            "sequences to serve from and cannot be persisted"
        )
    arrays: dict = {}
    meta = {
        "params": {
            "n_clusters": model.n_clusters,
            "max_iter": model.max_iter,
            "method": model.method,
        },
        "metric": encode_metric(model.metric),
    }
    _pack_result(_require_result(model), arrays, meta)
    return arrays, meta


def _restore_kmedoids(arrays: dict, meta: dict) -> KMedoids:
    model = KMedoids(metric=decode_metric(meta["metric"]), **_live_params(meta))
    model.result_ = _unpack_result(arrays, meta)
    return model


def _export_minibatch(model: MiniBatchKShape) -> Tuple[dict, dict]:
    if model.centroids_ is None or model._reservoirs is None:
        raise NotFittedError("MiniBatchKShape must be fitted before saving")
    arrays: dict = {"centroids": model.centroids_}
    for j, reservoir in enumerate(model._reservoirs):
        arrays[f"reservoir_{j}"] = reservoir
    meta = {
        "params": {
            "n_clusters": model.n_clusters,
            "batch_size": model.batch_size,
            "n_batches": model.n_batches,
            "reservoir_size": model.reservoir_size,
            "seed_iter": model.seed_iter,
        },
        "metric": {"kind": "name", "name": "sbd"},
        "state": {"n_seen": model.n_seen_, "n_reservoirs": len(model._reservoirs)},
    }
    return arrays, meta


def _restore_minibatch(arrays: dict, meta: dict) -> MiniBatchKShape:
    model = MiniBatchKShape(**meta["params"])
    model.centroids_ = np.asarray(arrays["centroids"])
    model._reservoirs = [
        np.asarray(arrays[f"reservoir_{j}"])
        for j in range(int(meta["state"]["n_reservoirs"]))
    ]
    model.n_seen_ = int(meta["state"]["n_seen"])
    return model


def _export_nearest_centroid(model: NearestShapeCentroid) -> Tuple[dict, dict]:
    if model.centroids_ is None or model.classes_ is None:
        raise NotFittedError(
            "NearestShapeCentroid must be fitted before saving"
        )
    arrays = {"centroids": model.centroids_, "classes": model.classes_}
    meta = {
        "params": {"refinements": model.refinements},
        "metric": {"kind": "name", "name": "sbd"},
    }
    return arrays, meta


def _restore_nearest_centroid(arrays: dict, meta: dict) -> NearestShapeCentroid:
    model = NearestShapeCentroid(**meta["params"])
    model.centroids_ = np.asarray(arrays["centroids"])
    model.classes_ = np.asarray(arrays["classes"])
    return model


_Exporter = Callable[[object], Tuple[dict, dict]]
_Restorer = Callable[[dict, dict], object]

_REGISTRY: Dict[str, Tuple[type, _Exporter, _Restorer]] = {
    "KShape": (KShape, _export_kshape, _restore_kshape),
    "TimeSeriesKMeans": (TimeSeriesKMeans, _export_kmeans, _restore_kmeans),
    "KMedoids": (KMedoids, _export_kmedoids, _restore_kmedoids),
    "MiniBatchKShape": (MiniBatchKShape, _export_minibatch, _restore_minibatch),
    "NearestShapeCentroid": (
        NearestShapeCentroid,
        _export_nearest_centroid,
        _restore_nearest_centroid,
    ),
}


def _model_type(model: object) -> str:
    # Exact-type match first, then subclass match (KDBA/KSC persist through
    # their TimeSeriesKMeans surface when their centroid rule permits).
    for name, (cls, _, _) in _REGISTRY.items():
        if type(model) is cls:
            return name
    for name, (cls, _, _) in _REGISTRY.items():
        if isinstance(model, cls):
            return name
    raise ArtifactError(
        f"no artifact exporter for {type(model).__name__}; supported: "
        f"{sorted(_REGISTRY)}"
    )


# ---------------------------------------------------------------------------
# public API


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_model(
    model: object, path: str, preprocessing: Optional[dict] = None
) -> str:
    """Persist a fitted clusterer as a versioned, checksummed artifact.

    Parameters
    ----------
    model:
        A fitted estimator of a supported type (see module docstring).
    path:
        Directory to write; created if missing. Existing
        ``manifest.json`` / ``payload.npz`` inside are overwritten.
    preprocessing:
        Optional JSON-serializable description of the preprocessing the
        model expects at inference time (e.g. ``{"znormalize": True}``).
        Stored verbatim in the manifest; defaults to ``{"znormalize":
        True}``, the package-wide convention.

    Returns
    -------
    str
        The artifact directory path.
    """
    from .. import __version__ as repro_version  # deferred: package init order

    name = _model_type(model)
    _, exporter, _ = _REGISTRY[name]
    arrays, meta = exporter(model)
    os.makedirs(path, exist_ok=True)
    payload_path = os.path.join(path, _PAYLOAD)
    np.savez_compressed(payload_path, **arrays)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "model_type": name,
        "repro_version": repro_version,
        "preprocessing": (
            {"znormalize": True} if preprocessing is None else preprocessing
        ),
        "payload": {
            "file": _PAYLOAD,
            "sha256": _sha256(payload_path),
            "arrays": sorted(arrays),
        },
        **meta,
    }
    with open(os.path.join(path, _MANIFEST), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _read_manifest(path: str) -> dict:
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isdir(path) or not os.path.exists(manifest_path):
        raise ArtifactError(f"no model artifact at {path!r}")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"unreadable manifest in {path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or "schema_version" not in manifest:
        raise ArtifactError(f"malformed manifest in {path!r}")
    return manifest


def describe_artifact(path: str) -> dict:
    """Return an artifact's manifest without loading its arrays.

    Performs the same schema-version check as :func:`load_model` but skips
    the payload checksum, so it is cheap enough for registry scans.
    """
    manifest = _read_manifest(path)
    version = manifest["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"artifact {path!r} has schema version {version}; this build "
            f"supports version {SCHEMA_VERSION}"
        )
    return manifest


def load_model(
    path: str,
) -> Union[KShape, TimeSeriesKMeans, KMedoids, MiniBatchKShape, NearestShapeCentroid]:
    """Load a model artifact written by :func:`save_model`.

    Validates the manifest schema version and the payload checksum before
    reconstructing anything, then rebuilds the estimator with its fitted
    state.

    Raises
    ------
    SchemaVersionError
        The manifest declares a schema version this build does not support.
    ChecksumError
        The payload bytes do not hash to the manifest's recorded SHA-256.
    ArtifactError
        The artifact is missing, malformed, or of an unknown model type.
    """
    manifest = describe_artifact(path)
    payload_info = manifest.get("payload", {})
    payload_path = os.path.join(path, payload_info.get("file", _PAYLOAD))
    if not os.path.exists(payload_path):
        raise ArtifactError(f"artifact {path!r} is missing its payload file")
    recorded = payload_info.get("sha256")
    actual = _sha256(payload_path)
    if recorded != actual:
        raise ChecksumError(
            f"payload checksum mismatch for {path!r}: manifest records "
            f"{recorded}, file hashes to {actual}"
        )
    name = manifest.get("model_type")
    if name not in _REGISTRY:
        raise ArtifactError(
            f"artifact {path!r} holds unknown model type {name!r}"
        )
    try:
        with np.load(payload_path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (ValueError, OSError, KeyError) as exc:
        raise ArtifactError(
            f"corrupted payload in artifact {path!r}: {exc}"
        ) from exc
    _, _, restorer = _REGISTRY[name]
    try:
        return restorer(arrays, manifest)
    except (KeyError, TypeError) as exc:
        raise ArtifactError(
            f"artifact {path!r} is missing fields required to rebuild "
            f"{name}: {exc}"
        ) from exc
