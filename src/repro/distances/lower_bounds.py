"""LB_Keogh lower bound for (c)DTW (Keogh & Ratanamahatana [44]).

The paper's Table 2 reports cDTW baselines accelerated with LB_Keogh
(``cDTW_LB`` rows): in 1-NN search, candidates whose lower bound already
exceeds the best distance so far are pruned without computing the full DTW.

LB_Keogh builds, for the query's warping window ``w``, an **envelope**
around the candidate series — ``U_i = max(y_{i-w..i+w})``,
``L_i = min(y_{i-w..i+w})`` — and charges the query only for excursions
outside the envelope. It never exceeds the true cDTW distance with the same
window, so pruning is exact.

:func:`keogh_envelope` also accepts a 2-D ``(n, m)`` candidate set and
returns the ``n`` stacked envelopes from a single filter call, which is how
:class:`repro.search.CentroidIndex` precomputes every candidate envelope
once per search instead of once per (query, candidate) pair.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .._validation import as_dataset, as_series, check_equal_length
from .dtw import Window, resolve_window

__all__ = ["keogh_envelope", "lb_keogh"]


def keogh_envelope(y: ArrayLike, window: Window) -> Tuple[np.ndarray, np.ndarray]:
    """Upper/lower envelope of ``y`` for a Sakoe-Chiba half-width ``window``.

    Parameters
    ----------
    y:
        1-D series of length ``m``, or a 2-D ``(n, m)`` batch of series.
    window:
        Half-width as int (cells) or float (fraction of length); ``None``
        degenerates to the global max/min everywhere.

    Returns
    -------
    (upper, lower):
        Arrays of the same shape as ``y``: ``(m,)`` for a single series,
        ``(n, m)`` stacked envelopes for a batch (computed in one
        vectorized ``axis=-1`` filter call).
    """
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 2 and 1 not in arr.shape:
        yv = as_dataset(arr, "y")
    else:
        yv = as_series(y, "y")  # preserves the 1-D contract (flattens (1, m))
    m = yv.shape[-1]
    w = resolve_window(window, m)
    if w is None or w >= m:
        upper = np.broadcast_to(yv.max(axis=-1, keepdims=True), yv.shape).copy()
        lower = np.broadcast_to(yv.min(axis=-1, keepdims=True), yv.shape).copy()
        return upper, lower
    size = 2 * w + 1
    upper = maximum_filter1d(yv, size=size, mode="nearest", axis=-1)
    lower = minimum_filter1d(yv, size=size, mode="nearest", axis=-1)
    return upper, lower


def lb_keogh(
    x: ArrayLike,
    y: ArrayLike,
    window: Window,
    envelope: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> float:
    """LB_Keogh lower bound on ``cDTW(x, y, window)``.

    ``x`` is the query; the envelope is built around ``y``. Returns the
    square root of the summed squared excursions of ``x`` outside the
    envelope, mirroring DTW's sqrt-of-squared-costs form so the bound is
    directly comparable to :func:`repro.distances.dtw.dtw` values.

    ``envelope`` accepts a precomputed ``(upper, lower)`` pair for ``y``
    (from :func:`keogh_envelope` at the same window) so repeated queries
    against a fixed candidate do not rebuild it.
    """
    xv = as_series(x, "x")
    yv = as_series(y, "y")
    check_equal_length(xv, yv)
    if envelope is None:
        upper, lower = keogh_envelope(yv, window)
    else:
        upper, lower = envelope
    above = np.maximum(xv - upper, 0.0)
    below = np.maximum(lower - xv, 0.0)
    return float(np.sqrt(np.sum(above**2 + below**2)))
