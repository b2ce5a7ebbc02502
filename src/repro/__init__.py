"""repro: a full reproduction of "k-Shape: Efficient and Accurate Clustering
of Time Series" (Paparrizos & Gravano, SIGMOD 2015).

The package implements the paper's primary contribution — the shape-based
distance (SBD), the shape-extraction centroid method, and the k-Shape
clustering algorithm — together with every baseline and substrate its
evaluation depends on: ED/DTW/cDTW/LB_Keogh distances, DBA/NLAAF/PSA/KSC
averaging, k-means variants, PAM, hierarchical and spectral clustering,
1-NN classification, Rand-Index evaluation, Wilcoxon/Friedman/Nemenyi
statistics, and a seeded synthetic stand-in for the UCR archive.

Quickstart
----------
>>> from repro import KShape, load_dataset, rand_index
>>> dataset = load_dataset("ECGFiveDays-syn")
>>> model = KShape(n_clusters=dataset.n_classes, random_state=0).fit(dataset.X)
>>> score = rand_index(dataset.y, model.labels_)
"""

from .clustering import (
    DBSCAN,
    KDBA,
    KSC,
    DensityPeaks,
    FuzzyCShapes,
    Hierarchical,
    KMedoids,
    SpectralClustering,
    TimeSeriesKMeans,
    UShapeletClustering,
    k_avg_dtw,
    k_avg_ed,
    k_avg_sbd,
)
from .clustering.base import ClusterResult
from .classification import (
    NearestShapeCentroid,
    leave_one_out_accuracy,
    one_nn_accuracy,
    one_nn_classify,
    tune_cdtw_window,
)
from .core import (
    ConstrainedKShape,
    KShape,
    MiniBatchKShape,
    align_cluster,
    cross_correlation,
    kshape,
    ncc,
    ncc_max,
    sbd,
    sbd_with_alignment,
    shape_extraction,
)
from .datasets import (
    Dataset,
    list_datasets,
    load_archive,
    load_dataset,
    load_ucr_dataset,
    make_cbf,
    make_ecg_five_days,
)
from .distances import (
    PruningStats,
    cascade,
    cdtw,
    dtw,
    dtw_batch,
    dtw_path,
    dtw_path_batch,
    elastic_batch,
    euclidean,
    get_distance,
    keogh_envelope,
    ksc_distance,
    lb_keogh,
    lb_keogh_max,
    lb_kim,
    lb_paa,
    lb_yi,
    list_distances,
    pairwise_distances,
    pruned_medoid,
    register_distance,
)
from .evaluation import (
    adjusted_rand_index,
    normalized_mutual_information,
    purity,
    rand_index,
)
from .exceptions import (
    ArtifactError,
    ChecksumError,
    ConvergenceWarning,
    EmptyInputError,
    InvalidParameterError,
    NotFittedError,
    ProfileChecksumError,
    ProfileError,
    ProfileSchemaError,
    QueueClosedError,
    RegistryError,
    ReproError,
    SchemaVersionError,
    ShapeMismatchError,
    UnknownNameError,
)
from .parallel import (
    get_executor,
    list_executors,
    parallel_map,
    register_executor,
)
from .preprocessing import minmax_scale, zscore
from .search import CentroidIndex
from .serving import (
    CentroidMaintainer,
    DriftCycleReport,
    DriftReport,
    FleetStats,
    MicroBatchQueue,
    ModelRegistry,
    Prediction,
    PromotionReport,
    ServingStats,
    ShapeFleet,
    ShapePredictor,
    ShardRouter,
    SwapReport,
    describe_artifact,
    load_model,
    save_model,
)
from .tuning import HardwareProfile
from .stats import (
    compare_to_baseline,
    friedman_test,
    nemenyi_groups,
    nemenyi_test,
    wilcoxon_signed_rank,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "KShape",
    "MiniBatchKShape",
    "ConstrainedKShape",
    "kshape",
    "sbd",
    "sbd_with_alignment",
    "shape_extraction",
    "align_cluster",
    "cross_correlation",
    "ncc",
    "ncc_max",
    # distances
    "euclidean",
    "dtw",
    "cdtw",
    "dtw_path",
    "dtw_path_batch",
    "dtw_batch",
    "elastic_batch",
    "lb_keogh",
    "lb_kim",
    "lb_yi",
    "lb_keogh_max",
    "lb_paa",
    "cascade",
    "keogh_envelope",
    "PruningStats",
    "pruned_medoid",
    # nearest-candidate search
    "CentroidIndex",
    "ksc_distance",
    "get_distance",
    "list_distances",
    "register_distance",
    "pairwise_distances",
    # parallel execution
    "get_executor",
    "list_executors",
    "parallel_map",
    "register_executor",
    # hardware tuning
    "HardwareProfile",
    # clustering
    "TimeSeriesKMeans",
    "k_avg_ed",
    "k_avg_sbd",
    "k_avg_dtw",
    "KDBA",
    "KSC",
    "KMedoids",
    "Hierarchical",
    "SpectralClustering",
    "DBSCAN",
    "DensityPeaks",
    "FuzzyCShapes",
    "UShapeletClustering",
    "NearestShapeCentroid",
    "ClusterResult",
    # classification & evaluation
    "one_nn_classify",
    "one_nn_accuracy",
    "leave_one_out_accuracy",
    "tune_cdtw_window",
    "rand_index",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "purity",
    # stats
    "wilcoxon_signed_rank",
    "friedman_test",
    "nemenyi_test",
    "nemenyi_groups",
    "compare_to_baseline",
    # datasets
    "Dataset",
    "list_datasets",
    "load_dataset",
    "load_archive",
    "load_ucr_dataset",
    "make_cbf",
    "make_ecg_five_days",
    # preprocessing
    "zscore",
    "minmax_scale",
    # serving
    "save_model",
    "load_model",
    "describe_artifact",
    "ShapePredictor",
    "Prediction",
    "MicroBatchQueue",
    "ServingStats",
    "CentroidMaintainer",
    "DriftReport",
    # fleet serving
    "ModelRegistry",
    "ShardRouter",
    "ShapeFleet",
    "FleetStats",
    "SwapReport",
    "PromotionReport",
    "DriftCycleReport",
    # exceptions
    "ReproError",
    "ShapeMismatchError",
    "EmptyInputError",
    "InvalidParameterError",
    "ConvergenceWarning",
    "NotFittedError",
    "UnknownNameError",
    "ArtifactError",
    "SchemaVersionError",
    "ChecksumError",
    "RegistryError",
    "QueueClosedError",
    "ProfileError",
    "ProfileSchemaError",
    "ProfileChecksumError",
]
