"""Additional DTW lower bounds and the standard pruning cascade.

LB_Keogh (in :mod:`repro.distances.lower_bounds`) is the tightest cheap
bound the paper's baselines use, but production 1-NN search pipelines
(e.g., the UCR Suite [65] the paper cites) chain progressively tighter
bounds so most candidates are discarded by the cheapest ones:

* **LB_Kim** (simplified constant-time form) — compares the first, last,
  maximum, and minimum points of the two sequences; each absolute
  difference individually lower-bounds the warping cost. For z-normalized
  sequences the first/last points carry most of the signal.
* **LB_Yi** — O(m): points of ``x`` above ``max(y)`` or below ``min(y)``
  must pay at least their excursion beyond that global envelope.
* **LB_Keogh reversed** — LB_Keogh with roles swapped; the maximum of both
  directions is still a lower bound and is tighter than either alone.
* **LB_PAA** — LB_Keogh coarsened to PAA resolution (Keogh's exact-indexing
  bound): segment means of the query against the segment-wise extremes of
  the envelope. Cheaper than LB_Keogh (``S`` terms instead of ``m``) and
  never tighter; it is the first bound tier of the nearest-candidate
  search (:class:`repro.search.CentroidIndex`).
* :func:`cascade` — evaluates bounds cheapest-first and returns the first
  one exceeding a pruning threshold.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_series, check_equal_length, check_positive_int
from .dtw import Window
from .lower_bounds import keogh_envelope, lb_keogh

__all__ = ["lb_kim", "lb_yi", "lb_keogh_max", "lb_paa", "cascade"]


def lb_kim(x: ArrayLike, y: ArrayLike) -> float:
    """Simplified constant-time LB_Kim lower bound on DTW.

    Any warping path couples the two first points and the two last points,
    and the global max/min of one sequence must be matched by *some* point
    of the other, so each of the four absolute differences lower-bounds
    the total cost. Returns the largest of them (in the sqrt-of-squares
    scale used by :func:`repro.distances.dtw.dtw`).
    """
    xv = as_series(x, "x")
    yv = as_series(y, "y")
    first = abs(xv[0] - yv[0])
    last = abs(xv[-1] - yv[-1])
    top = abs(xv.max() - yv.max())
    bottom = abs(xv.min() - yv.min())
    return float(max(first, last, top, bottom))


def lb_yi(x: ArrayLike, y: ArrayLike) -> float:
    """LB_Yi lower bound on DTW: excursions beyond the global envelope.

    Every point of ``x`` above ``max(y)`` must be matched to a point of
    ``y`` at distance at least its excess over ``max(y)`` (symmetrically
    below ``min(y)``), so the summed squared excursions lower-bound the
    squared DTW cost.
    """
    xv = as_series(x, "x")
    yv = as_series(y, "y")
    hi, lo = yv.max(), yv.min()
    above = np.maximum(xv - hi, 0.0)
    below = np.maximum(lo - xv, 0.0)
    return float(np.sqrt(np.sum(above**2 + below**2)))


def lb_keogh_max(x: ArrayLike, y: ArrayLike, window: Window) -> float:
    """Symmetrized LB_Keogh: the larger of both envelope directions.

    ``max(LB_Keogh(x | env(y)), LB_Keogh(y | env(x)))`` is still a valid
    cDTW lower bound and is tighter than either single direction.
    """
    return max(lb_keogh(x, y, window), lb_keogh(y, x, window))


def lb_paa(
    x: ArrayLike, y: ArrayLike, window: Window, n_segments: int
) -> float:
    """PAA-resolution LB_Keogh lower bound on ``cDTW(x, y, window)``.

    Splits the axis into ``n_segments`` whole-sample segments
    (:func:`repro.preprocessing.paa_edges`) and charges the query's segment
    *mean* only for its excursion beyond the segment-wise **extremes** of
    the candidate's Keogh envelope — ``max(U)`` above, ``min(L)`` below —
    scaled by the segment length.

    Admissibility chains through LB_Keogh: within a segment the envelope
    extremes are looser than the pointwise envelope, and by the
    Cauchy-Schwarz inequality the summed squared pointwise excursions are
    at least ``n_s`` times the squared excursion of the mean. So
    ``lb_paa <= lb_keogh <= cDTW`` always, at any segment count.

    This scalar form is the reference oracle for the vectorized sketch
    tier in :mod:`repro.search.sketch`; both compute the same bound.
    """
    from ..preprocessing.reduction import paa_edges

    xv = as_series(x, "x")
    yv = as_series(y, "y")
    check_equal_length(xv, yv)
    m = xv.shape[0]
    n_segments = check_positive_int(n_segments, "n_segments")
    upper, lower = keogh_envelope(yv, window)
    edges = paa_edges(m, min(n_segments, m))
    total = 0.0
    for s in range(edges.shape[0] - 1):
        lo, hi = int(edges[s]), int(edges[s + 1])
        n_s = hi - lo
        x_bar = float(xv[lo:hi].mean())
        u_hat = float(upper[lo:hi].max())
        l_hat = float(lower[lo:hi].min())
        above = max(x_bar - u_hat, 0.0)
        below = max(l_hat - x_bar, 0.0)
        total += n_s * (above * above + below * below)
    return float(np.sqrt(total))


def cascade(
    x: ArrayLike,
    y: ArrayLike,
    window: Window,
    threshold: float,
) -> Tuple[bool, str, float]:
    """Run the standard bound cascade against a pruning ``threshold``.

    Evaluates LB_Kim, then LB_Yi, then symmetric LB_Keogh — cheapest first —
    and stops at the first bound that meets or exceeds ``threshold`` (i.e.,
    proves the true cDTW distance cannot beat the best-so-far).

    Returns
    -------
    (pruned, stage, bound):
        ``pruned`` is True when some bound reached the threshold; ``stage``
        names the deciding bound (``"lb_kim"``/``"lb_yi"``/``"lb_keogh"``,
        or ``"none"``); ``bound`` is that stage's value.
    """
    xv = as_series(x, "x")
    yv = as_series(y, "y")
    check_equal_length(xv, yv)
    for stage, fn in (
        ("lb_kim", lambda: lb_kim(xv, yv)),
        ("lb_yi", lambda: lb_yi(xv, yv)),
        ("lb_keogh", lambda: lb_keogh_max(xv, yv, window)),
    ):
        value = fn()
        if value >= threshold:
            return True, stage, value
    return False, "none", value
