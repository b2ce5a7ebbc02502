"""Subsequence search, anomaly discovery, and nearest-candidate search."""

from .discord import find_discords, matrix_profile
from .index import CentroidIndex
from .sketch import paa_envelope_sketch, paa_lower_bound, paa_query_means
from .subsequence import best_match, mass, sbd_profile, top_k_matches

__all__ = [
    "mass",
    "best_match",
    "top_k_matches",
    "sbd_profile",
    "matrix_profile",
    "find_discords",
    "CentroidIndex",
    "paa_envelope_sketch",
    "paa_query_means",
    "paa_lower_bound",
]
