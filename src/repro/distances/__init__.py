"""Distance measures and dissimilarity matrices (paper Sections 2.3, 3.1)."""

from .base import (
    DistanceFn,
    get_distance,
    list_distances,
    make_cdtw,
    register_distance,
)
from .batch import dtw_batch, elastic_batch
from .dtw import (
    cdtw,
    dtw,
    dtw_path,
    dtw_path_batch,
    resolve_window,
    sakoe_chiba_mask,
)
from .elastic import edr, erp, lcss, lcss_distance, msm
from .euclidean import euclidean, squared_euclidean
from .ksc import ksc_align, ksc_distance, ksc_distance_with_shift
from .lb_cascade import cascade, lb_keogh_max, lb_kim, lb_paa, lb_yi
from .lower_bounds import keogh_envelope, lb_keogh
from .prune import PruningStats, dtw_window_of, pruned_medoid
from .uniform_scaling import uniform_scaling_distance, us_ed, us_sbd
from .matrix import (
    cross_distances,
    euclidean_matrix,
    pairwise_distances,
    sbd_matrix,
)

__all__ = [
    "DistanceFn",
    "get_distance",
    "list_distances",
    "register_distance",
    "make_cdtw",
    "euclidean",
    "squared_euclidean",
    "dtw",
    "cdtw",
    "dtw_path",
    "dtw_path_batch",
    "dtw_batch",
    "elastic_batch",
    "sakoe_chiba_mask",
    "resolve_window",
    "lcss",
    "lcss_distance",
    "edr",
    "erp",
    "msm",
    "keogh_envelope",
    "lb_keogh",
    "lb_kim",
    "lb_yi",
    "lb_keogh_max",
    "lb_paa",
    "cascade",
    "PruningStats",
    "dtw_window_of",
    "pruned_medoid",
    "uniform_scaling_distance",
    "us_ed",
    "us_sbd",
    "ksc_distance",
    "ksc_distance_with_shift",
    "ksc_align",
    "pairwise_distances",
    "cross_distances",
    "euclidean_matrix",
    "sbd_matrix",
]
