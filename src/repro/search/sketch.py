"""PAA envelope sketches: the cheap first bound tier of the (c)DTW search.

Keogh's exact-indexing LB_PAA: the candidate's Keogh envelope is
coarsened to segment-wise extremes (``max(U)``, ``min(L)`` per segment
from :func:`repro.preprocessing.paa_edges`) and the query to segment
means, giving an ``O(S)``-per-pair bound that never exceeds LB_Keogh
(Cauchy-Schwarz per segment) and therefore never exceeds cDTW.
:func:`paa_lower_bound` evaluates a whole query batch against a whole
sketch set as a few vectorized array ops; :class:`repro.search.CentroidIndex`
uses it to discard most candidates before any exact work.

The bound is shrunk by :data:`FLOAT_SAFETY` before it is compared against
exactly-computed distances: it holds with real-valued slack in exact
arithmetic, and the shrink (orders of magnitude above accumulated float64
rounding, orders of magnitude below any real margin) keeps it admissible
under floating point as well.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "FLOAT_SAFETY",
    "paa_envelope_sketch",
    "paa_query_means",
    "paa_lower_bound",
]

#: Relative shrink applied to the PAA bound before it faces exactly
#: computed distances. Accumulated float64 rounding in the bound and in
#: the exact kernels is ~1e-14 relative; real bound-to-distance margins
#: are almost always >> 1e-9. 1e-12 sits safely between the two.
FLOAT_SAFETY = 1.0 - 1e-12


# ---------------------------------------------------------------------------
# PAA envelope sketches: the (c)DTW tier-0 filter
# ---------------------------------------------------------------------------

def paa_envelope_sketch(
    upper: np.ndarray, lower: np.ndarray, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Segment-wise extremes of a stack of Keogh envelopes.

    Parameters
    ----------
    upper, lower:
        ``(n, m)`` envelope stacks (from
        :func:`repro.distances.keogh_envelope` over the candidate set).
    edges:
        ``(S + 1,)`` integer segment boundaries from
        :func:`repro.preprocessing.paa_edges`.

    Returns
    -------
    (u_hat, l_hat):
        ``(n, S)`` arrays: per-segment max of ``upper`` / min of ``lower``.
    """
    starts = np.asarray(edges[:-1], dtype=np.intp)
    u_hat = np.maximum.reduceat(upper, starts, axis=-1)
    l_hat = np.minimum.reduceat(lower, starts, axis=-1)
    return u_hat, l_hat


def paa_query_means(Q: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``(q, S)`` segment means of each query row over whole-sample edges."""
    starts = np.asarray(edges[:-1], dtype=np.intp)
    counts = np.diff(edges).astype(np.float64)
    return np.add.reduceat(Q, starts, axis=-1) / counts


def paa_lower_bound(
    q_means: np.ndarray,
    u_hat: np.ndarray,
    l_hat: np.ndarray,
    counts: np.ndarray,
    safety: bool = True,
) -> np.ndarray:
    """``(q, n)`` LB_PAA matrix from query means vs. envelope sketches.

    Each cell equals the scalar :func:`repro.distances.lb_paa` of that
    (query, candidate) pair (up to the float-safety shrink when
    ``safety`` is on): ``sqrt(sum_s n_s * (pos(q_s - U_s)^2
    + pos(L_s - q_s)^2))``.
    """
    above = np.maximum(q_means[:, None, :] - u_hat[None, :, :], 0.0)
    below = np.maximum(l_hat[None, :, :] - q_means[:, None, :], 0.0)
    sq = np.einsum("qns,qns,s->qn", above, above, counts) + np.einsum(
        "qns,qns,s->qn", below, below, counts
    )
    bound = np.sqrt(np.maximum(sq, 0.0))
    if safety:
        bound *= FLOAT_SAFETY
    return bound
