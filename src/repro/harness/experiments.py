"""The paper's evaluation protocols as reusable library calls (Section 4-5).

Each function implements one of the evaluation pipelines behind the paper's
tables, parameterized by the dataset panel and scale knobs, and returns
per-dataset score/runtime vectors keyed by the paper's method names. The
benchmark suite under ``benchmarks/`` is a thin wrapper around these.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..classification import one_nn_accuracy, tune_cdtw_window
from ..clustering import (
    Hierarchical,
    KDBA,
    KMedoids,
    KSC,
    SpectralClustering,
    TimeSeriesKMeans,
)
from ..core import KShape
from ..datasets.base import Dataset
from ..distances import make_cdtw, pairwise_distances
from ..distances.prune import PruningStats
from ..evaluation import rand_index
from ..exceptions import ConvergenceWarning, UnknownNameError
from .runner import timed

__all__ = [
    "DistanceEvaluation",
    "ClusteringEvaluation",
    "evaluate_distance_measures",
    "evaluate_lb_runtimes",
    "evaluate_kmeans_variants",
    "compute_dissimilarity_matrices",
    "evaluate_nonscalable_methods",
    "KMEANS_VARIANTS",
    "NONSCALABLE_METHODS",
]

KMEANS_VARIANTS = (
    "k-AVG+ED", "k-AVG+SBD", "k-AVG+DTW", "KSC", "k-DBA",
    "k-Shape+DTW", "k-Shape",
)

NONSCALABLE_METHODS = tuple(
    f"{tag}+{metric}"
    for tag in ("H-S", "H-A", "H-C", "S", "PAM")
    for metric in ("ED", "cDTW", "SBD")
)


@dataclass
class DistanceEvaluation:
    """Per-dataset 1-NN accuracies and runtimes of distance measures."""

    dataset_names: List[str]
    accuracies: Dict[str, np.ndarray]
    runtimes: Dict[str, np.ndarray]
    tuned_windows: Dict[str, float] = field(default_factory=dict)

    def runtime_factors(self, baseline: str = "ED") -> Dict[str, float]:
        base = self.runtimes[baseline].sum()
        if base <= 0:
            base = 1e-12
        return {m: t.sum() / base for m, t in self.runtimes.items()}


@dataclass
class ClusteringEvaluation:
    """Per-dataset Rand Index (and runtimes) of clustering methods."""

    dataset_names: List[str]
    scores: Dict[str, np.ndarray]
    runtimes: Dict[str, np.ndarray] = field(default_factory=dict)

    def runtime_factors(self, baseline: str) -> Dict[str, float]:
        base = self.runtimes[baseline].sum()
        if base <= 0:
            base = 1e-12
        return {m: t.sum() / base for m, t in self.runtimes.items()}


def evaluate_distance_measures(
    datasets: Sequence[Dataset],
    cdtw_opt_windows: Sequence[float] = (0.02, 0.05, 0.08, 0.10),
) -> DistanceEvaluation:
    """Table 2's accuracy/runtime evaluation of all distance measures.

    Runs 1-NN classification over each dataset's train/test split for ED,
    DTW, cDTW5, cDTW10, the per-dataset leave-one-out-tuned cDTWopt, and
    the three SBD implementation variants.
    """
    tuned: Dict[str, float] = {}
    for ds in datasets:
        w, _ = tune_cdtw_window(ds.X_train, ds.y_train, cdtw_opt_windows)
        tuned[ds.name] = w

    specs = {
        "ED": lambda ds: "ed",
        "SBD": lambda ds: "sbd",
        "SBDNoPow2": lambda ds: "sbd_nopow2",
        "SBDNoFFT": lambda ds: "sbd_nofft",
        "DTW": lambda ds: "dtw",
        "cDTW5": lambda ds: "cdtw5",
        "cDTW10": lambda ds: "cdtw10",
        "cDTWopt": lambda ds: make_cdtw(tuned[ds.name]),
    }
    accuracies: Dict[str, List[float]] = {name: [] for name in specs}
    runtimes: Dict[str, List[float]] = {name: [] for name in specs}
    for ds in datasets:
        for name, metric_for in specs.items():
            acc, elapsed = timed(
                one_nn_accuracy,
                ds.X_train, ds.y_train, ds.X_test, ds.y_test,
                metric=metric_for(ds),
            )
            accuracies[name].append(acc)
            runtimes[name].append(elapsed)
    return DistanceEvaluation(
        dataset_names=[ds.name for ds in datasets],
        accuracies={k: np.asarray(v) for k, v in accuracies.items()},
        runtimes={k: np.asarray(v) for k, v in runtimes.items()},
        tuned_windows=tuned,
    )


def evaluate_lb_runtimes(
    datasets: Sequence[Dataset],
    stats_out: Optional[Dict[str, PruningStats]] = None,
) -> Dict[str, np.ndarray]:
    """Runtimes of the lower-bound-accelerated 1-NN rows of Table 2.

    Each row runs through the exact :class:`repro.search.CentroidIndex`
    search (PAA sketch and LB_Keogh bounds plus early-abandoning
    confirmation), so the accuracies are bit-identical to the
    corresponding unpruned rows. The
    unconstrained ``DTW_LB`` row uses the full-length envelope window
    (``1.0``), which degenerates to the global extremes and stays
    admissible.

    ``stats_out``, when given, is populated with one merged
    :class:`repro.distances.PruningStats` per row name, so callers can
    report per-tier pruning power alongside the wall-clock numbers.
    """
    specs = {
        "DTW_LB": ("dtw", 1.0),
        "cDTW5_LB": ("cdtw5", 0.05),
        "cDTW10_LB": ("cdtw10", 0.10),
    }
    runtimes: Dict[str, List[float]] = {name: [] for name in specs}
    for ds in datasets:
        for name, (metric, lb_window) in specs.items():
            stats = None
            if stats_out is not None:
                stats = stats_out.setdefault(name, PruningStats())
            _, elapsed = timed(
                one_nn_accuracy,
                ds.X_train, ds.y_train, ds.X_test, ds.y_test,
                metric=metric, lb_window=lb_window, stats=stats,
            )
            runtimes[name].append(elapsed)
    return {k: np.asarray(v) for k, v in runtimes.items()}


def _build_kmeans_variant(
    name: str, k: int, seed: int, dtw_window: float, dtw_max_iter: int
):
    dtw_metric = make_cdtw(dtw_window)
    if name == "k-AVG+ED":
        return TimeSeriesKMeans(k, metric="ed", random_state=seed)
    if name == "k-AVG+SBD":
        return TimeSeriesKMeans(k, metric="sbd", random_state=seed)
    if name == "k-AVG+DTW":
        return TimeSeriesKMeans(k, metric=dtw_metric, random_state=seed,
                                max_iter=dtw_max_iter)
    if name == "KSC":
        return KSC(k, random_state=seed)
    if name == "k-DBA":
        return KDBA(k, window=dtw_window, random_state=seed,
                    max_iter=dtw_max_iter)
    if name == "k-Shape+DTW":
        return KShape(k, random_state=seed, max_iter=dtw_max_iter,
                      assignment_distance=dtw_metric)
    if name == "k-Shape":
        return KShape(k, random_state=seed)
    raise UnknownNameError(
        f"unknown k-means variant {name!r}; available: {KMEANS_VARIANTS}"
    )


def evaluate_kmeans_variants(
    datasets: Sequence[Dataset],
    methods: Sequence[str] = KMEANS_VARIANTS,
    n_runs: int = 10,
    dtw_window: float = 0.10,
    dtw_max_iter: int = 15,
    seed: int = 1000,
) -> ClusteringEvaluation:
    """Table 3's evaluation: Rand Index of k-means variants, averaged over
    ``n_runs`` random initializations (the paper uses 10), plus total
    runtimes.

    DTW-based variants use a Sakoe-Chiba band of ``dtw_window`` and an
    iteration cap of ``dtw_max_iter`` to stay tractable on commodity
    hardware; pure ED/SBD variants run the paper's settings unchanged.
    """
    scores: Dict[str, List[float]] = {m: [] for m in methods}
    runtimes: Dict[str, List[float]] = {m: [] for m in methods}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for ds in datasets:
            for m in methods:
                values = []
                total = 0.0
                for run in range(n_runs):
                    model = _build_kmeans_variant(
                        m, ds.n_classes, seed + run, dtw_window, dtw_max_iter
                    )
                    _, elapsed = timed(model.fit, ds.X)
                    total += elapsed
                    values.append(rand_index(ds.y, model.labels_))
                scores[m].append(float(np.mean(values)))
                runtimes[m].append(total)
    return ClusteringEvaluation(
        dataset_names=[ds.name for ds in datasets],
        scores={k: np.asarray(v) for k, v in scores.items()},
        runtimes={k: np.asarray(v) for k, v in runtimes.items()},
    )


def compute_dissimilarity_matrices(
    datasets: Sequence[Dataset],
    metrics: Dict[str, str] = None,
    n_jobs: int = None,
    backend: str = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Full dissimilarity matrices per dataset and metric (Table 4 input).

    ``n_jobs``/``backend`` are forwarded to
    :func:`repro.distances.pairwise_distances`; the cDTW matrices dominate
    this step's cost and parallelize across symmetric tiles.
    """
    metrics = metrics or {"ED": "ed", "cDTW": "cdtw5", "SBD": "sbd"}
    return {
        ds.name: {
            label: pairwise_distances(
                ds.X, metric, n_jobs=n_jobs, backend=backend
            )
            for label, metric in metrics.items()
        }
        for ds in datasets
    }


def evaluate_nonscalable_methods(
    datasets: Sequence[Dataset],
    matrices: Dict[str, Dict[str, np.ndarray]],
    n_spectral_runs: int = 100,
    seed: int = 2000,
) -> ClusteringEvaluation:
    """Table 4's evaluation: hierarchical, spectral, and PAM over
    precomputed ED/cDTW/SBD dissimilarity matrices.

    Hierarchical and PAM are deterministic (one run); spectral is averaged
    over ``n_spectral_runs`` seeded runs (the paper uses 100).
    """
    linkages = {"H-S": "single", "H-A": "average", "H-C": "complete"}
    scores: Dict[str, List[float]] = {m: [] for m in NONSCALABLE_METHODS}
    for ds in datasets:
        for name in NONSCALABLE_METHODS:
            tag, metric = name.split("+")
            D = matrices[ds.name][metric]
            if tag in linkages:
                model = Hierarchical(
                    ds.n_classes, linkages[tag], metric="precomputed"
                )
                model.fit(D)
                scores[name].append(rand_index(ds.y, model.labels_))
            elif tag == "PAM":
                model = KMedoids(
                    ds.n_classes, metric="precomputed", random_state=0
                )
                model.fit(D)
                scores[name].append(rand_index(ds.y, model.labels_))
            else:  # spectral
                values = []
                for run in range(n_spectral_runs):
                    model = SpectralClustering(
                        ds.n_classes, metric="precomputed",
                        random_state=seed + run,
                    )
                    model.fit(D)
                    values.append(rand_index(ds.y, model.labels_))
                scores[name].append(float(np.mean(values)))
    return ClusteringEvaluation(
        dataset_names=[ds.name for ds in datasets],
        scores={k: np.asarray(v) for k, v in scores.items()},
    )
