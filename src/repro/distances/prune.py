"""Lower-bound pruning for exact (c)DTW search: bounds, accounting, medoids.

The paper's ``cDTW_LB`` baselines (Table 2) exist because full (c)DTW is
the cost center of 1-NN and medoid-style evaluation; the UCR Suite [65] it
cites shows that cascading progressively tighter lower bounds and
abandoning the DTW recurrence once it provably exceeds the best-so-far
prunes the vast majority of candidates. This module holds the pieces of
that pipeline shared by the two exact searches built on it:

* vectorized LB_Kim, LB_Yi and symmetric LB_Keogh over a whole candidate
  set at once (one broadcast each, no Python loop per pair), with the
  envelope width chosen by :func:`_envelope_cells`;
* :class:`PruningStats`, the per-tier accounting both searches report,
  so benchmarks can record pruning *power*, not just wall-clock;
* :func:`pruned_medoid`, the medoid update of alternating k-medoids.

The nearest-candidate search itself is
:class:`repro.search.CentroidIndex`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_dataset
from ..exceptions import InvalidParameterError
from .base import DistanceFn, get_distance
from .batch import _dtw_cost_batch, dtw_nonempty_diagonals
from .dtw import Window, cdtw, dtw, resolve_window
from .lower_bounds import keogh_envelope

__all__ = ["PruningStats", "dtw_window_of", "pruned_medoid"]


def _replay_dtw(
    value: float,
    band_minima: np.ndarray,
    nonempty: np.ndarray,
    cutoff: Optional[float],
) -> float:
    """Replay a scalar ``dtw(..., cutoff=...)`` call from recorded band minima.

    The DP values of the wavefront never depend on the cutoff — the cutoff
    only decides *when the sweep stops*. So a batch run at a loose cutoff
    can record every anti-diagonal's band minimum and the scalar decision
    at any tighter ``cutoff`` can be replayed after the fact: the scalar
    kernel abandons at the first **nonempty** diagonal whose minimum and
    whose nonempty predecessor's minimum (``inf`` — always a hit — at the
    start and after empty diagonals) both exceed ``cutoff**2``. Bit-exact,
    which is what keeps :class:`PruningStats` identical under batching.

    ``value`` is the completed distance (``sqrt`` of the final cost) and is
    returned untouched when the replay does not abandon.
    """
    if cutoff is None or np.isinf(cutoff):
        return value
    if cutoff < 0:
        return np.inf
    cut_sq = float(cutoff) ** 2
    hit = band_minima > cut_sq
    prev_hit = np.empty_like(hit)
    prev_hit[0] = True  # prev_min starts at inf in the scalar kernel
    prev_hit[1:] = np.where(nonempty[:-1], hit[:-1], True)
    if np.any(nonempty & hit & prev_hit):
        return np.inf
    return value


@dataclass
class PruningStats:
    """Per-tier accounting of a pruned search.

    Attributes
    ----------
    queries:
        Queries answered (nearest-candidate searches; 0 for medoid
        searches).
    candidates:
        Total (query, candidate) pairs considered.
    lb_paa:
        Pairs discarded by the PAA-sketch tier of
        :class:`repro.search.CentroidIndex`.
    lb_kim / lb_yi / lb_keogh:
        Pairs discarded by that bound tier (cheapest sufficient tier wins
        the attribution).
    abandoned:
        Pairs whose DTW recurrence was started but abandoned at the cutoff.
    full:
        Pairs whose (c)DTW ran to completion.
    cached:
        Pairs answered from a symmetric-distance cache (medoid search).
    skipped:
        Pairs never examined because their candidate was already ruled out
        (medoid search: the candidate's running total went over budget).

    The tiers partition the work: ``candidates == lb_paa + lb_kim + lb_yi
    + lb_keogh + abandoned + full + cached + skipped``.
    """

    queries: int = 0
    candidates: int = 0
    lb_paa: int = 0
    lb_kim: int = 0
    lb_yi: int = 0
    lb_keogh: int = 0
    abandoned: int = 0
    full: int = 0
    cached: int = 0
    skipped: int = 0

    def merge(self, other: "PruningStats") -> "PruningStats":
        """Accumulate ``other``'s counters into this instance (returns self)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @property
    def pruned(self) -> int:
        """Pairs resolved without completing a full (c)DTW."""
        return self.candidates - self.full

    @property
    def prune_rate(self) -> float:
        """Fraction of pairs resolved without a full (c)DTW."""
        return self.pruned / self.candidates if self.candidates else 0.0

    def as_dict(self) -> dict:
        """Counters plus derived rates, ready for JSON reports."""
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["prune_rate"] = self.prune_rate
        total = max(self.candidates, 1)
        for tier in ("lb_paa", "lb_kim", "lb_yi", "lb_keogh", "abandoned"):
            out[f"{tier}_rate"] = getattr(self, tier) / total
        return out


def dtw_window_of(metric: object) -> Tuple[bool, object]:
    """Classify a metric as (c)DTW and extract its Sakoe-Chiba window.

    Recognizes the registered names (``"dtw"``, ``"cdtw5"``, ``"cdtw10"``,
    and any name whose registered callable qualifies), the :func:`dtw` /
    :func:`cdtw` callables themselves, and :func:`functools.partial`
    wrappers over them — which is what :func:`repro.distances.make_cdtw`
    produces.

    Returns
    -------
    (is_dtw_like, window):
        ``window`` is the metric's window spec (``None`` for unconstrained
        DTW) and only meaningful when ``is_dtw_like`` is True.
    """
    if isinstance(metric, str):
        try:
            fn = get_distance(metric)
        except Exception:
            return False, None
        return dtw_window_of(fn)
    if metric is dtw:
        return True, None
    if metric is cdtw:
        return True, 0.05  # cdtw's default window
    if isinstance(metric, functools.partial) and not metric.args:
        if metric.func is dtw:
            return True, metric.keywords.get("window", None)
        if metric.func is cdtw:
            return True, metric.keywords.get("window", 0.05)
    return False, None


def _envelope_cells(m: int, window: Window, confirm_window: Window) -> int:
    """Keogh envelope half-width in cells for a (c)DTW search.

    The envelope is at least as wide as the confirming distance's band
    (``confirm_window``; ``None`` means unconstrained DTW, i.e. ``m``
    cells), widened to ``window`` when that is wider, so every bound
    built from it stays admissible for the confirming distance.
    """
    cells = resolve_window(confirm_window, m)
    cells = m if cells is None else cells
    extra = resolve_window(window, m)
    return cells if extra is None else max(cells, extra)


def _row_envelopes(C: np.ndarray, cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(n, m)`` Keogh envelopes of every row of ``C`` at ``cells``."""
    if C.shape[1] == 1:  # keogh_envelope would read an (n, 1) stack as one series
        return C.copy(), C.copy()
    upper, lower = keogh_envelope(C, cells)
    return upper.reshape(C.shape), lower.reshape(C.shape)


def _lb_kim(
    xv: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    top: np.ndarray,
    bottom: np.ndarray,
) -> np.ndarray:
    """LB_Kim of ``xv`` against candidates given by their end points and extremes."""
    return np.maximum.reduce([
        np.abs(xv[0] - first),
        np.abs(xv[-1] - last),
        np.abs(xv.max() - top),
        np.abs(xv.min() - bottom),
    ])


def _lb_yi(xv: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """LB_Yi of ``xv`` against candidates given by their extremes.

    The excursions are formed directly (not through expanded prefix-sum
    algebra) so the result carries only relative rounding error — an
    expanded ``s2 - 2*hi*s1 + n*hi^2`` form can leave absolute
    cancellation noise that overshoots a near-zero true bound and would
    break exact pruning on near-duplicate candidates.
    """
    above = np.maximum(xv[None, :] - top[:, None], 0.0)
    below = np.maximum(bottom[:, None] - xv[None, :], 0.0)
    return np.sqrt(
        np.einsum("ij,ij->i", above, above)
        + np.einsum("ij,ij->i", below, below)
    )


def _lb_keogh_pairs(
    Q: np.ndarray,
    q_upper: np.ndarray,
    q_lower: np.ndarray,
    C: np.ndarray,
    c_upper: np.ndarray,
    c_lower: np.ndarray,
    qs: np.ndarray,
    cs: np.ndarray,
) -> np.ndarray:
    """Symmetric LB_Keogh for the (query ``qs[i]``, candidate ``cs[i]``) pairs.

    Both envelope directions (query against the candidate's envelope and
    candidate against the query's), the larger one wins — the bound
    :func:`repro.distances.lb_keogh_max` computes for one pair.
    """
    out = np.empty(qs.shape[0])
    for s in range(0, qs.shape[0], 1024):
        sq, sc = qs[s : s + 1024], cs[s : s + 1024]
        above = np.maximum(Q[sq] - c_upper[sc], 0.0)
        below = np.maximum(c_lower[sc] - Q[sq], 0.0)
        forward = np.einsum("ij,ij->i", above, above) + np.einsum(
            "ij,ij->i", below, below
        )
        above_r = np.maximum(C[sc] - q_upper[sq], 0.0)
        below_r = np.maximum(q_lower[sq] - C[sc], 0.0)
        reverse = np.einsum("ij,ij->i", above_r, above_r) + np.einsum(
            "ij,ij->i", below_r, below_r
        )
        out[s : s + 1024] = np.sqrt(np.maximum(forward, reverse))
    return out


def pruned_medoid(
    X: ArrayLike,
    window: Window = None,
    metric: Union[str, DistanceFn, None] = None,
    stats: Optional[PruningStats] = None,
    batch_full: bool = True,
) -> Tuple[int, float]:
    """Index of the member of ``X`` minimizing its summed distance to the rest.

    The medoid-update step of alternating k-medoids, pruned with the
    LB_Kim → LB_Yi → symmetric LB_Keogh cascade: the full lower-bound
    matrix is precomputed vectorized (one pass per row), candidates are
    scanned in ascending bound-sum order, every pair inherits the running
    budget ``best_total - partial_sum - remaining_bounds`` as its DTW
    cutoff, and exact symmetric distances are cached so each surviving pair
    is computed once.

    ``metric`` must be (c)DTW-like (see :func:`dtw_window_of`) and is
    confirmed at its own window, with Keogh envelopes at the wider of that
    and ``window``; ``None`` confirms with ``(c)DTW`` at ``window``.

    With ``batch_full`` (default), each candidate's surviving pairs are
    confirmed in **one** batched wavefront sweep instead of a scalar DTW
    per pair. The scan visits pairs in descending-bound order and every
    confirmed distance is at least its (admissible) bound, so the running
    budget never increases along the scan — the first pair's budget is a
    valid loosest cutoff for the whole batch, and the scalar per-pair
    abandon decisions are replayed exactly (:func:`_replay_dtw`). Results
    and :class:`PruningStats` are bit-identical to ``batch_full=False``.

    Returns
    -------
    (index, total):
        The winning member index and its summed distance.
    """
    data = as_dataset(X, "X")
    n, m = data.shape
    if n == 1:
        return 0, 0.0
    confirm_window = window
    if metric is not None:
        is_dtw, confirm_window = dtw_window_of(metric)
        if not is_dtw:
            raise InvalidParameterError(
                "pruned_medoid requires a (c)DTW metric; "
                f"the lower bounds are not admissible for {metric!r}"
            )
    upper, lower = _row_envelopes(data, _envelope_cells(m, window, confirm_window))
    first, last = data[:, 0], data[:, -1]
    top, bottom = data.max(axis=1), data.min(axis=1)
    local = PruningStats(candidates=n * (n - 1))
    kim_m = np.empty((n, n))
    yi_m = np.empty((n, n))
    keogh_m = np.empty((n, n))
    rows = np.arange(n)
    for i in range(n):
        kim_m[i] = _lb_kim(data[i], first, last, top, bottom)
        yi_m[i] = _lb_yi(data[i], top, bottom)
        keogh_m[i] = _lb_keogh_pairs(
            data, upper, lower, data, upper, lower, np.full(n, i), rows
        )
    lb = np.maximum.reduce([kim_m, yi_m, keogh_m])
    np.fill_diagonal(lb, 0.0)
    w_cells = resolve_window(confirm_window, m)
    nonempty = dtw_nonempty_diagonals(m, m, w_cells)
    lb_sums = lb.sum(axis=1)
    order = np.argsort(lb_sums, kind="stable")
    cache: dict = {}
    best_total = np.inf
    best_idx = int(order[0])
    for ci in order:
        i = int(ci)
        row_lb = lb[i]
        if lb_sums[i] >= best_total and np.isfinite(best_total):
            # The whole candidate is ruled out by its bound-sum; attribute
            # its pairs to the cheapest tier whose row-sum alone suffices.
            row_kim = kim_m[i].sum() - kim_m[i, i]
            row_yi = np.maximum(kim_m[i], yi_m[i]).sum() - max(
                kim_m[i, i], yi_m[i, i]
            )
            if row_kim >= best_total:
                local.lb_kim += n - 1
            elif row_yi >= best_total:
                local.lb_yi += n - 1
            else:
                local.lb_keogh += n - 1
            continue
        others = rows[rows != i]
        # Visit the loosest-bounded pairs first so the cached/easy mass is
        # subtracted from the budget as late as possible.
        scan = others[np.argsort(-row_lb[others], kind="stable")]
        total = 0.0
        rest = float(row_lb[others].sum())
        confirmed: dict = {}
        if batch_full:
            # The budget never increases along a descending-bound scan
            # (each confirmed d is at least the admissible bound the scan
            # just released), so the first pair's budget is the loosest
            # cutoff any pair will see — batch every uncached pair that
            # it does not already rule out, then replay per-pair.
            b0 = best_total - (rest - float(row_lb[scan[0]]))
            todo = [
                int(j)
                for j in scan
                if ((i, int(j)) if i < int(j) else (int(j), i)) not in cache
                and row_lb[int(j)] <= b0
            ]
            if len(todo) > 1:
                todo_arr = np.asarray(todo)
                cut = None
                if np.isfinite(b0):
                    cut = np.full(len(todo), float(b0) ** 2)
                costs, minima = _dtw_cost_batch(
                    np.broadcast_to(data[i], (len(todo), m)),
                    data[todo_arr],
                    w_cells,
                    cutoff_sq=cut,
                    record_minima=True,
                )
                values = np.sqrt(costs)
                confirmed = {
                    j: (float(values[k]), minima[k])
                    for k, j in enumerate(todo)
                }
        dead = False
        for pos, j in enumerate(scan):
            j = int(j)
            rest -= float(row_lb[j])
            budget = best_total - total - rest
            key = (i, j) if i < j else (j, i)
            if key in cache:
                local.cached += 1
                d = cache[key]
            else:
                if row_lb[j] > budget:
                    if kim_m[i, j] > budget:
                        local.lb_kim += 1
                    elif max(kim_m[i, j], yi_m[i, j]) > budget:
                        local.lb_yi += 1
                    else:
                        local.lb_keogh += 1
                    local.skipped += len(scan) - pos - 1
                    dead = True
                    break
                if j in confirmed:
                    value, mins = confirmed.pop(j)
                    d = _replay_dtw(
                        value,
                        mins,
                        nonempty,
                        budget if np.isfinite(budget) else None,
                    )
                else:
                    d = dtw(
                        data[i],
                        data[j],
                        window=confirm_window,
                        cutoff=budget if np.isfinite(budget) else None,
                    )
                if np.isinf(d):
                    local.abandoned += 1
                    local.skipped += len(scan) - pos - 1
                    dead = True
                    break
                local.full += 1
                cache[key] = d
            total += d
            if total + rest >= best_total and np.isfinite(best_total):
                local.skipped += len(scan) - pos - 1
                dead = True
                break
        if not dead and total < best_total:
            best_total = total
            best_idx = i
    if stats is not None:
        stats.merge(local)
    return best_idx, float(best_total)
