"""Batch-vs-scalar equivalence for the many-pairs wavefront kernels.

``dtw_batch``/``elastic_batch``/``dtw_path_batch`` sweep one
``(B, diagonal)`` wavefront over a stack of pairs; every operation is
elementwise over the batch axis, so each row must reproduce its scalar
call **bit for bit** — ragged stacks, mixed windows, and partially
abandoned batches included. The last check covers the consumer that
replays scalar decisions: :func:`~repro.distances.pruned_medoid` confirms
through the batched kernel with a sequential replay of the scalar abandon
decisions, so its result *and* per-tier pruning statistics must be
identical with batching on or off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import (
    PruningStats,
    dtw,
    dtw_batch,
    dtw_path,
    dtw_path_batch,
    elastic_batch,
    pruned_medoid,
)
from repro.distances.elastic import edr, erp, lcss, lcss_distance, msm
from repro.exceptions import InvalidParameterError

RNG = np.random.default_rng(77)


def ragged_pairs(n, max_len=40):
    xs = [RNG.normal(size=RNG.integers(1, max_len)) for _ in range(n)]
    ys = [RNG.normal(size=RNG.integers(1, max_len)) for _ in range(n)]
    return xs, ys


# ---------------------------------------------------------------------------
# dtw_batch
# ---------------------------------------------------------------------------


def test_dtw_batch_uniform_stack_matches_scalar():
    X = RNG.normal(size=(12, 30))
    Y = RNG.normal(size=(12, 30))
    for window in (None, 0.1, 3):
        got = dtw_batch(X, Y, window=window)
        ref = np.array([dtw(X[b], Y[b], window=window) for b in range(12)])
        assert np.array_equal(got, ref)


def test_dtw_batch_ragged_mixed_windows_matches_scalar():
    xs, ys = ragged_pairs(25)
    windows = [
        (None, 0.05, 0.3, 2, 0)[int(k)] for k in RNG.integers(0, 5, size=25)
    ]
    got = dtw_batch(xs, ys, window=windows)
    ref = np.array(
        [dtw(x, y, window=w) for x, y, w in zip(xs, ys, windows)]
    )
    assert np.array_equal(got, ref)


def test_dtw_batch_partially_abandoned_matches_scalar():
    """Rows with tight cutoffs go inf exactly when their scalar call does."""
    X = RNG.normal(size=(16, 24))
    Y = RNG.normal(size=(16, 24))
    full = dtw_batch(X, Y)
    # Cutoffs straddling each row's true distance: some survive, some die.
    cutoffs = [
        None if b % 4 == 0 else float(full[b] * (0.5 + 0.25 * (b % 3)))
        for b in range(16)
    ]
    got = dtw_batch(X, Y, cutoff=cutoffs)
    ref = np.array(
        [dtw(X[b], Y[b], cutoff=cutoffs[b]) for b in range(16)]
    )
    assert np.array_equal(got, ref)
    assert np.isinf(got).any() and np.isfinite(got).any()
    # Surviving rows are bit-identical to the cutoff-free sweep.
    alive = np.isfinite(got)
    assert np.array_equal(got[alive], full[alive])


def test_dtw_batch_negative_and_infinite_cutoffs():
    X = RNG.normal(size=(4, 10))
    Y = RNG.normal(size=(4, 10))
    got = dtw_batch(X, Y, cutoff=[-1.0, np.inf, None, 1e-9])
    assert np.isinf(got[0])  # nothing beats a negative cutoff
    assert got[1] == dtw(X[1], Y[1])
    assert got[2] == dtw(X[2], Y[2])
    assert got[3] == dtw(X[3], Y[3], cutoff=1e-9)


def test_dtw_batch_empty_and_singleton():
    assert dtw_batch([], []).shape == (0,)
    x, y = RNG.normal(size=9), RNG.normal(size=7)
    assert dtw_batch([x], [y])[0] == dtw(x, y)


def test_dtw_batch_validation():
    with pytest.raises(InvalidParameterError):
        dtw_batch([RNG.normal(size=5)], [])
    with pytest.raises(InvalidParameterError):
        dtw_batch(
            [RNG.normal(size=5)], [RNG.normal(size=5)], window=[0.1, 0.2]
        )


# ---------------------------------------------------------------------------
# elastic_batch
# ---------------------------------------------------------------------------


ELASTIC_CASES = (
    ("lcss", lcss, {"epsilon": 0.4, "delta": 3}),
    ("lcss_distance", lcss_distance, {"epsilon": 0.4}),
    ("edr", edr, {"epsilon": 0.3, "normalize": True}),
    ("erp", erp, {"g": 0.2}),
    ("msm", msm, {"c": 0.7}),
)


@pytest.mark.parametrize("measure,fn,params", ELASTIC_CASES)
def test_elastic_batch_matches_scalar(measure, fn, params):
    xs, ys = ragged_pairs(20, max_len=30)
    got = elastic_batch(measure, xs, ys, **params)
    ref = np.array([fn(x, y, **params) for x, y in zip(xs, ys)])
    assert np.array_equal(got, ref)


def test_elastic_batch_validation():
    x = [RNG.normal(size=5)]
    with pytest.raises(InvalidParameterError):
        elastic_batch("nope", x, x)
    with pytest.raises(InvalidParameterError):
        elastic_batch("erp", x, x, epsilon=0.5)  # erp takes g, not epsilon
    with pytest.raises(InvalidParameterError):
        elastic_batch("msm", x, x, c=-1.0)


# ---------------------------------------------------------------------------
# dtw_path_batch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("window", (None, 0.2, 2))
def test_dtw_path_batch_matches_scalar(window):
    x = RNG.normal(size=26)
    Y = RNG.normal(size=(9, 18))
    got = dtw_path_batch(x, Y, window=window)
    for b in range(9):
        assert got[b] == dtw_path(x, Y[b], window=window)


def test_dtw_path_batch_ragged_and_empty():
    x = RNG.normal(size=12)
    ys = [RNG.normal(size=m) for m in (4, 19, 12)]
    got = dtw_path_batch(x, ys)
    for b, y in enumerate(ys):
        assert got[b] == dtw_path(x, y)
    assert dtw_path_batch(x, []) == []


def test_dtw_path_batch_chunking_is_invisible():
    x = RNG.normal(size=15)
    Y = RNG.normal(size=(8, 15))
    assert dtw_path_batch(x, Y, max_cells=15 * 15) == dtw_path_batch(x, Y)


# ---------------------------------------------------------------------------
# pruned_medoid: the batched confirmation is invisible to results and stats
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("window", (None, 0.05, 1))
def test_pruned_medoid_batch_full_identical(window):
    X = RNG.normal(size=(22, 36)).cumsum(axis=1)
    s1, s2 = PruningStats(), PruningStats()
    r1 = pruned_medoid(X, window=window, stats=s1, batch_full=False)
    r2 = pruned_medoid(X, window=window, stats=s2, batch_full=True)
    assert r1 == r2
    assert s1.as_dict() == s2.as_dict()
