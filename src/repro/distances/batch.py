"""Batched many-pairs wavefront kernels for DTW and the elastic family.

The scalar kernels in :mod:`repro.distances.dtw` and
:mod:`repro.distances.elastic` evaluate one pair per call: every
anti-diagonal of the dynamic program costs a handful of numpy operations on
``O(band)`` elements, so the Python-level overhead per diagonal is paid
once *per pair*. The paper's Table 2-4 workloads — 1-NN confirmation,
medoid updates, k-DBA assignment — call these kernels tens of thousands of
times, which makes that overhead the dominant cost.

This module stacks ``B`` pairs and sweeps **one** ``(B, diagonal)``
wavefront: each anti-diagonal is a single set of vectorized operations over
all pairs at once, so the per-diagonal Python overhead is amortized over
the whole batch. Because every operation is elementwise over the batch
axis, each pair's floating-point trajectory is identical to its scalar
run — batched results are **bit-identical** to per-pair calls, which the
differential suite (``tests/test_dtw_differential.py``,
``tests/test_batch_kernels.py``) locks in.

Early abandoning (``cutoff=``) is kept as a *per-row mask*: a pair is
abandoned — exactly as in the scalar kernel — when two consecutive
anti-diagonals hold no cell at or below its cutoff; abandoned rows are
compacted out of the sweep so a mostly-dead batch finishes early. The
kernel can also record every row's per-diagonal band minima, which lets
:func:`repro.distances.pruned_medoid` *replay* the scalar sequential
abandon decisions after the fact (the DP values never depend on the
cutoff; the cutoff only decides when to stop) and keep its per-tier
pruning statistics bit-identical to the unbatched search.

Ragged batches (mixed lengths, mixed windows) are supported by grouping
pairs of identical ``(len_x, len_y, window)`` shape and sweeping each
group as one uniform sub-batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_series
from ..exceptions import InvalidParameterError
from .dtw import Window, resolve_window

__all__ = ["dtw_batch", "elastic_batch"]

_INF = np.inf


# ---------------------------------------------------------------------------
# DTW: uniform (B, diag) wavefront with per-row abandon mask
# ---------------------------------------------------------------------------


def _dtw_band(d: int, mx: int, my: int, w: Optional[int]) -> Tuple[int, int]:
    """Inclusive ``i`` range of anti-diagonal ``d`` (mirrors the scalar kernel)."""
    i_lo = max(0, d - my + 1)
    i_hi = min(mx - 1, d)
    if w is not None:
        i_lo = max(i_lo, -((w - d) // 2))  # ceil((d - w) / 2)
        i_hi = min(i_hi, (d + w) // 2)
    return i_lo, i_hi


def dtw_nonempty_diagonals(mx: int, my: int, w: Optional[int]) -> np.ndarray:
    """Boolean mask over anti-diagonals holding at least one band cell.

    Empty diagonals only occur for very narrow bands (e.g. ``window=0``);
    the scalar kernel skips its abandon check on them, so the sequential
    replay in :mod:`repro.distances.prune` needs this geometry mask to
    reproduce the scalar decisions exactly.
    """
    if w is not None:
        w = max(w, abs(mx - my))
    out = np.empty(mx + my - 1, dtype=bool)
    for d in range(mx + my - 1):
        i_lo, i_hi = _dtw_band(d, mx, my, w)
        out[d] = i_lo <= i_hi
    return out


def _dtw_cost_batch(
    X: np.ndarray,
    Y: np.ndarray,
    w: Optional[int],
    cutoff_sq: Optional[np.ndarray] = None,
    record_minima: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Accumulated squared DTW costs for ``B`` equal-shape pairs.

    Parameters
    ----------
    X, Y:
        ``(B, mx)`` and ``(B, my)`` float64 stacks; row ``b`` is one pair.
    w:
        Uniform Sakoe-Chiba half-width in cells (``None`` = unconstrained).
    cutoff_sq:
        ``(B,)`` squared abandon thresholds (``np.inf`` disables abandoning
        for that row), or ``None`` to disable everywhere.
    record_minima:
        Also return the ``(B, mx + my - 1)`` per-diagonal band minima
        (``np.inf`` for diagonals a row never reached, and for empty
        diagonals), enabling exact replay of scalar abandon decisions at
        any cutoff at or below the one used here.

    Returns
    -------
    (costs, minima):
        ``costs`` is ``(B,)``; abandoned rows hold ``np.inf``. ``minima``
        is ``None`` unless requested.

    Notes
    -----
    Every operation is elementwise over the batch axis and mirrors
    :func:`repro.distances.dtw._accumulate_diagonals` step for step, so
    each row is bit-identical to its scalar run. Abandoned rows are
    compacted out of the sweep (the "active mask"), so the per-diagonal
    cost tracks the number of *live* pairs.
    """
    B, mx = X.shape
    my = Y.shape[1]
    if w is not None:
        w = max(w, abs(mx - my))
    n_diag = mx + my - 1
    bands = [_dtw_band(d, mx, my, w) for d in range(n_diag)]
    bw = max(hi - lo + 1 for lo, hi in bands)
    costs = np.full(B, _INF)
    minima = np.full((B, n_diag), _INF) if record_minima else None
    live = np.arange(B)
    # Three rotating *band-compact* buffers: cell (i, d - i) of diagonal
    # ``d`` lives at column ``i - i_lo(d) + 1``. Column 0 is a permanent
    # inf guard; the column just right of each written band is re-infed
    # every diagonal. Band edges move by at most one column per diagonal
    # (the ``_dtw_band`` clamps are monotone), so every cross-diagonal
    # read lands inside the neighbor's written band or on a guard — and
    # the working set stays ~band-width wide instead of series-length
    # wide, with all elementwise steps writing into reused buffers.
    buf = [np.full((B, bw + 3), _INF) for _ in range(3)]
    work = np.empty((B, bw))
    prev_min = np.full(B, _INF)
    cut = cutoff_sq
    pending = None  # dead-but-not-yet-compacted row mask
    for d in range(n_diag):
        i_lo, i_hi = bands[d]
        cur = buf[d % 3]
        if i_lo > i_hi:
            # Empty diagonal: no cells, no abandon check (scalar parity).
            cur[:] = _INF
            prev_min = np.full(live.shape[0], _INF)
            continue
        L = i_hi - i_lo + 1
        band = cur[:, 1 : L + 1]
        # cost(i, j) with j = d - i: the y side is a reversed view.
        xs = X[:, i_lo : i_hi + 1]
        ys = Y[:, d - i_hi : d - i_lo + 1][:, ::-1]
        if d == 0:
            np.subtract(xs, ys, out=band)
            np.square(band, out=band)
        else:
            prev = buf[(d - 1) % 3]
            prev2 = buf[(d - 2) % 3]
            a = i_lo - bands[d - 1][0]            # ∈ {0, 1}
            b = i_lo - bands[d - 2][0] if d >= 2 else i_lo  # ∈ {0, 1, 2}
            # best = min(gamma(i, j-1), gamma(i-1, j), gamma(i-1, j-1))
            np.minimum(prev[:, a + 1 : a + 1 + L], prev[:, a : a + L], out=band)
            np.minimum(band, prev2[:, b : b + L], out=band)
            wk = work[:, :L]
            np.subtract(xs, ys, out=wk)
            np.square(wk, out=wk)
            np.add(band, wk, out=band)
        cur[:, L + 1] = _INF  # right guard
        cur_min = band.min(axis=1)
        if record_minima:
            minima[live, d] = cur_min
        if cut is not None:
            dead = (cur_min > cut) & (prev_min > cut)
            if pending is not None:
                dead |= pending  # abandonment is sticky
            n_dead = int(np.count_nonzero(dead))
            if n_dead == dead.shape[0]:
                return costs, minima
            if 4 * n_dead >= dead.shape[0]:
                # Compacting copies every live buffer row, so do it only
                # once a quarter of the batch is dead; until then dead rows
                # ride along (their DP values are ignored at the end, and
                # any extra recorded minima sit past the diagonal where
                # replay abandons, so they are unreachable).
                keep = ~dead
                live = live[keep]
                X = X[keep]
                Y = Y[keep]
                cut = cut[keep]
                buf = [bf[keep] for bf in buf]
                work = work[keep]
                cur_min = cur_min[keep]
                pending = None
            elif n_dead:
                pending = dead
        prev_min = cur_min
    # The last diagonal is the singleton (mx-1, my-1): compact column 1.
    final = buf[(n_diag - 1) % 3][:, 1]
    if pending is not None:
        keep = ~pending
        live = live[keep]
        final = final[keep]
    costs[live] = final
    return costs, minima


def _as_pair_list(X: ArrayLike, name: str) -> List[np.ndarray]:
    """Normalize a stack or sequence of series into a list of 1-D arrays."""
    if isinstance(X, np.ndarray) and X.dtype != object:
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim == 1:
            return [as_series(arr, name)]
        if arr.ndim == 2:
            return [arr[b] for b in range(arr.shape[0])]
        raise InvalidParameterError(
            f"{name} must be a (B, m) stack or a sequence of 1-D series"
        )
    return [as_series(x, f"{name}[{b}]") for b, x in enumerate(X)]


def _per_pair(value: object, B: int, name: str) -> list:
    """Broadcast a scalar spec, or validate a length-``B`` sequence of specs."""
    if isinstance(value, (list, tuple, np.ndarray)) and not np.isscalar(value):
        seq = list(value)
        if len(seq) != B:
            raise InvalidParameterError(
                f"{name} sequence has length {len(seq)}, expected {B}"
            )
        return seq
    return [value] * B


def dtw_batch(
    X: ArrayLike,
    Y: ArrayLike,
    window: Union[Window, Sequence[Window]] = None,
    cutoff: Union[float, Sequence[Optional[float]], None] = None,
) -> np.ndarray:
    """DTW distances for ``B`` pairs in one vectorized wavefront sweep.

    Parameters
    ----------
    X, Y:
        ``(B, m)`` stacks, or sequences of 1-D series (ragged lengths
        allowed — pairs are grouped by shape and each group swept as one
        uniform sub-batch).
    window:
        One Sakoe-Chiba spec (``None``/int/float, as in
        :func:`repro.distances.dtw.dtw`) for every pair, or a length-``B``
        sequence of per-pair specs.
    cutoff:
        ``None``, one early-abandon threshold for every pair, or a
        length-``B`` sequence. Abandoned pairs return ``np.inf``, exactly
        when the scalar call would.

    Returns
    -------
    numpy.ndarray
        ``(B,)`` distances, bit-identical to
        ``[dtw(x_b, y_b, window_b, cutoff_b) for b in range(B)]``.
    """
    xs = _as_pair_list(X, "X")
    ys = _as_pair_list(Y, "Y")
    if len(xs) != len(ys):
        raise InvalidParameterError(
            f"X holds {len(xs)} series but Y holds {len(ys)}"
        )
    B = len(xs)
    out = np.full(B, _INF)
    if B == 0:
        return out
    windows = _per_pair(window, B, "window")
    cutoffs = _per_pair(cutoff, B, "cutoff")
    groups: dict = {}
    for b in range(B):
        mx, my = xs[b].shape[0], ys[b].shape[0]
        w = resolve_window(windows[b], max(mx, my))
        c = cutoffs[b]
        if c is not None and c < 0:
            continue  # distances are non-negative: scalar returns inf
        groups.setdefault((mx, my, w), []).append(b)
    for (mx, my, w), members in groups.items():
        Xg = np.stack([xs[b] for b in members])
        Yg = np.stack([ys[b] for b in members])
        cut = None
        if any(cutoffs[b] is not None for b in members):
            cut = np.array(
                [
                    float(cutoffs[b]) ** 2
                    if cutoffs[b] is not None and np.isfinite(cutoffs[b])
                    else _INF
                    for b in members
                ]
            )
        costs, _ = _dtw_cost_batch(Xg, Yg, w, cutoff_sq=cut)
        out[members] = np.sqrt(costs)
    return out


# ---------------------------------------------------------------------------
# Elastic family: batched grid wavefronts
# ---------------------------------------------------------------------------
#
# Each measure is a DP over an (mx[+1], my[+1]) grid whose cell (i, j)
# depends on (i-1, j-1), (i-1, j), and (i, j-1) — anti-diagonals d-2, d-1,
# d-1. The sweeps below hold two rolling diagonals indexed by grid row i
# (boundary cells included), so each diagonal is one vectorized step over
# the (B, band) block. Boundary accumulations use np.cumsum (sequential
# add.accumulate), reproducing the naive references' float trajectories
# bit for bit.


def _grid_interior(d: int, mx: int, my: int) -> np.ndarray:
    """Interior grid rows ``i`` on diagonal ``d`` of an (mx+1, my+1) grid."""
    return np.arange(max(1, d - my), min(mx, d - 1) + 1)


def _lcss_batch(
    X: np.ndarray, Y: np.ndarray, epsilon: float, delta: Optional[float]
) -> np.ndarray:
    """Batched LCSS lengths over a (B, diag) wavefront; exact integer DP."""
    B, mx = X.shape
    my = Y.shape[1]
    dlt = None if delta is None else int(delta)
    prev2 = np.zeros((B, mx + 1), dtype=np.int64)
    prev = np.zeros((B, mx + 1), dtype=np.int64)
    for d in range(2, mx + my + 1):
        idx = _grid_interior(d, mx, my)
        cur = np.zeros((B, mx + 1), dtype=np.int64)
        if idx.shape[0]:
            match = np.abs(X[:, idx - 1] - Y[:, d - idx - 1]) <= epsilon
            if dlt is not None:
                match &= np.abs(2 * idx - d) <= dlt  # |i - j| <= delta
            skip = np.maximum(prev[:, idx - 1], prev[:, idx])
            cur[:, idx] = np.where(match, prev2[:, idx - 1] + 1, skip)
        prev2, prev = prev, cur
    return prev[:, mx].copy()


def _edr_batch(X: np.ndarray, Y: np.ndarray, epsilon: float) -> np.ndarray:
    """Batched EDR costs (unnormalized) over a (B, diag) wavefront."""
    B, mx = X.shape
    my = Y.shape[1]
    prev2 = np.zeros((B, mx + 1))
    prev = np.zeros((B, mx + 1))
    prev[:, 0] = 1.0  # cell (0, 1)
    if mx >= 1:
        prev[:, 1] = 1.0  # cell (1, 0)
    for d in range(2, mx + my + 1):
        idx = _grid_interior(d, mx, my)
        cur = np.zeros((B, mx + 1))
        if d <= my:
            cur[:, 0] = float(d)
        if d <= mx:
            cur[:, d] = float(d)
        if idx.shape[0]:
            sub = np.where(
                np.abs(X[:, idx - 1] - Y[:, d - idx - 1]) <= epsilon, 0.0, 1.0
            )
            cur[:, idx] = np.minimum(
                np.minimum(prev2[:, idx - 1] + sub, prev[:, idx - 1] + 1.0),
                prev[:, idx] + 1.0,
            )
        prev2, prev = prev, cur
    return prev[:, mx].copy()


def _erp_batch(X: np.ndarray, Y: np.ndarray, g: float) -> np.ndarray:
    """Batched ERP costs over a (B, diag) wavefront."""
    B, mx = X.shape
    my = Y.shape[1]
    gap_x = np.abs(X - g)
    gap_y = np.abs(Y - g)
    row0 = np.concatenate([np.zeros((B, 1)), np.cumsum(gap_y, axis=1)], axis=1)
    col0 = np.concatenate([np.zeros((B, 1)), np.cumsum(gap_x, axis=1)], axis=1)
    prev2 = np.zeros((B, mx + 1))
    prev = np.zeros((B, mx + 1))
    prev[:, 0] = row0[:, 1]
    if mx >= 1:
        prev[:, 1] = col0[:, 1]
    for d in range(2, mx + my + 1):
        idx = _grid_interior(d, mx, my)
        cur = np.zeros((B, mx + 1))
        if d <= my:
            cur[:, 0] = row0[:, d]
        if d <= mx:
            cur[:, d] = col0[:, d]
        if idx.shape[0]:
            xi = X[:, idx - 1]
            yj = Y[:, d - idx - 1]
            cur[:, idx] = np.minimum(
                np.minimum(
                    prev2[:, idx - 1] + np.abs(xi - yj),
                    prev[:, idx - 1] + gap_x[:, idx - 1],
                ),
                prev[:, idx] + gap_y[:, d - idx - 1],
            )
        prev2, prev = prev, cur
    return prev[:, mx].copy()


def _msm_cost_batch(
    new: np.ndarray, left: np.ndarray, right: np.ndarray, c: float
) -> np.ndarray:
    """Vectorized split/merge cost (mirrors ``elastic._msm_cost``)."""
    inside = ((left <= new) & (new <= right)) | ((right <= new) & (new <= left))
    return np.where(
        inside, c, c + np.minimum(np.abs(new - left), np.abs(new - right))
    )


def _msm_batch(X: np.ndarray, Y: np.ndarray, c: float) -> np.ndarray:
    """Batched MSM costs over a (B, diag) wavefront on the (mx, my) grid."""
    B, mx = X.shape
    my = Y.shape[1]
    d00 = np.abs(X[:, :1] - Y[:, :1])
    row0 = np.cumsum(
        np.concatenate(
            [d00, _msm_cost_batch(Y[:, 1:], X[:, :1], Y[:, :-1], c)], axis=1
        ),
        axis=1,
    )
    col0 = np.cumsum(
        np.concatenate(
            [d00, _msm_cost_batch(X[:, 1:], X[:, :-1], Y[:, :1], c)], axis=1
        ),
        axis=1,
    )
    prev2 = np.zeros((B, mx))
    prev = np.zeros((B, mx))
    prev2[:, 0] = row0[:, 0]  # diagonal 0: cell (0, 0)
    if my >= 2:
        prev[:, 0] = row0[:, 1]
    if mx >= 2:
        prev[:, 1] = col0[:, 1]
    for d in range(2, mx + my - 1):
        idx = np.arange(max(1, d - my + 1), min(mx - 1, d - 1) + 1)
        cur = np.zeros((B, mx))
        if d <= my - 1:
            cur[:, 0] = row0[:, d]
        if d <= mx - 1:
            cur[:, d] = col0[:, d]
        if idx.shape[0]:
            xi = X[:, idx]
            xp = X[:, idx - 1]
            yj = Y[:, d - idx]
            yp = Y[:, d - idx - 1]
            cur[:, idx] = np.minimum(
                np.minimum(
                    prev2[:, idx - 1] + np.abs(xi - yj),
                    prev[:, idx - 1] + _msm_cost_batch(xi, xp, yj, c),
                ),
                prev[:, idx] + _msm_cost_batch(yj, xi, yp, c),
            )
        prev2, prev = prev, cur
    if mx + my - 2 == 0:  # both length 1: the answer is cell (0, 0)
        return prev2[:, 0].copy()
    return prev[:, mx - 1].copy()


_ELASTIC_KERNELS = {
    "lcss": lambda X, Y, p: _lcss_batch(X, Y, p["epsilon"], p["delta"]),
    "lcss_distance": lambda X, Y, p: 1.0
    - _lcss_batch(X, Y, p["epsilon"], p["delta"]) / min(X.shape[1], Y.shape[1]),
    "edr": lambda X, Y, p: (
        _edr_batch(X, Y, p["epsilon"]) / max(X.shape[1], Y.shape[1])
        if p["normalize"]
        else _edr_batch(X, Y, p["epsilon"])
    ),
    "erp": lambda X, Y, p: _erp_batch(X, Y, p["g"]),
    "msm": lambda X, Y, p: _msm_batch(X, Y, p["c"]),
}

_ELASTIC_DEFAULTS = {
    "lcss": {"epsilon": 0.5, "delta": None},
    "lcss_distance": {"epsilon": 0.5, "delta": None},
    "edr": {"epsilon": 0.5, "normalize": False},
    "erp": {"g": 0.0},
    "msm": {"c": 0.5},
}


def elastic_batch(measure: str, X: ArrayLike, Y: ArrayLike, **params: object) -> np.ndarray:
    """Batched elastic distances: one wavefront sweep for ``B`` pairs.

    Parameters
    ----------
    measure:
        ``"lcss"`` (lengths), ``"lcss_distance"``, ``"edr"``, ``"erp"``,
        or ``"msm"``.
    X, Y:
        ``(B, m)`` stacks or sequences of 1-D series (ragged lengths are
        grouped by shape).
    **params:
        The scalar function's keyword parameters (``epsilon``/``delta``
        for LCSS, ``epsilon``/``normalize`` for EDR, ``g`` for ERP, ``c``
        for MSM), applied uniformly to the batch.

    Returns
    -------
    numpy.ndarray
        ``(B,)`` values, bit-identical to per-pair scalar calls (int64 for
        ``"lcss"``, float64 otherwise).
    """
    if measure not in _ELASTIC_KERNELS:
        raise InvalidParameterError(
            f"unknown elastic measure {measure!r}; "
            f"available: {', '.join(sorted(_ELASTIC_KERNELS))}"
        )
    defaults = dict(_ELASTIC_DEFAULTS[measure])
    unknown = set(params) - set(defaults)
    if unknown:
        raise InvalidParameterError(
            f"unknown parameter(s) {sorted(unknown)} for measure {measure!r}"
        )
    defaults.update(params)
    eps = defaults.get("epsilon")
    if eps is not None and eps < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {eps}")
    dlt = defaults.get("delta")
    if dlt is not None and dlt < 0:
        raise InvalidParameterError(f"delta must be >= 0 or None, got {dlt}")
    cc = defaults.get("c")
    if cc is not None and cc < 0:
        raise InvalidParameterError(f"c must be >= 0, got {cc}")
    xs = _as_pair_list(X, "X")
    ys = _as_pair_list(Y, "Y")
    if len(xs) != len(ys):
        raise InvalidParameterError(
            f"X holds {len(xs)} series but Y holds {len(ys)}"
        )
    B = len(xs)
    dtype = np.int64 if measure == "lcss" else np.float64
    out = np.zeros(B, dtype=dtype)
    if B == 0:
        return out
    kernel = _ELASTIC_KERNELS[measure]
    groups: dict = {}
    for b in range(B):
        groups.setdefault((xs[b].shape[0], ys[b].shape[0]), []).append(b)
    for (mx, my), members in groups.items():
        Xg = np.stack([xs[b] for b in members])
        Yg = np.stack([ys[b] for b in members])
        out[members] = kernel(Xg, Yg, defaults)
    return out
