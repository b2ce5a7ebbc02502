"""Tests for repro.distances.prune: bounds, accounting, pruned_medoid.

The (c)DTW cases of the nearest-candidate search live here too — the
lower-bound envelope window, ties, constants — exercised through
:class:`repro.search.CentroidIndex`, the one search built on these bounds.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering import KMedoids, TimeSeriesKMeans
from repro.datasets import make_cbf
from repro.distances import (
    PruningStats,
    cdtw,
    cross_distances,
    dtw,
    dtw_window_of,
    make_cdtw,
    pairwise_distances,
    pruned_medoid,
    resolve_window,
)
from repro.distances.prune import _lb_keogh_pairs, _lb_kim, _lb_yi, _row_envelopes
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.preprocessing import zscore
from repro.search import CentroidIndex


@pytest.fixture
def cbf(rng):
    """A fixed CBF-style fixture: 30 train candidates, 12 queries."""
    X, _ = make_cbf(42, 48, rng)
    return zscore(X[:30]), zscore(X[30:])


def windowed_dtw(window):
    """(c)DTW at ``window`` as a metric the search recognizes."""
    return functools.partial(dtw, window=window)


def lower_bounds(x, C, window):
    """``(lb_kim, lb_yi, lb_keogh)`` of ``x`` against every row of ``C``."""
    cells = resolve_window(window, C.shape[1])
    upper, lower = _row_envelopes(C, cells)
    q_upper, q_lower = _row_envelopes(x[None, :], cells)
    kim = _lb_kim(x, C[:, 0], C[:, -1], C.max(axis=1), C.min(axis=1))
    yi = _lb_yi(x, C.max(axis=1), C.min(axis=1))
    rows = np.arange(C.shape[0])
    keogh = _lb_keogh_pairs(
        x[None, :], q_upper, q_lower, C, upper, lower, np.zeros_like(rows), rows
    )
    return kim, yi, keogh


def brute_nn(Q, C, fn):
    D = cross_distances(Q, C, metric=fn)
    idx = np.argmin(D, axis=1)
    return idx, D[np.arange(Q.shape[0]), idx]


class TestStats:
    def test_partition_invariant(self, cbf):
        train, test = cbf
        index = CentroidIndex(train, windowed_dtw(0.1))
        index.query_batch(test)
        s = index.stats
        assert s.candidates == (
            s.lb_paa + s.lb_kim + s.lb_yi + s.lb_keogh + s.abandoned
            + s.full + s.cached + s.skipped
        )
        assert s.candidates == test.shape[0] * train.shape[0]

    def test_merge_and_rates(self):
        a = PruningStats(candidates=10, lb_kim=4, full=6)
        b = PruningStats(candidates=5, lb_yi=5)
        a.merge(b)
        assert a.candidates == 15 and a.lb_kim == 4 and a.lb_yi == 5
        assert a.pruned == 9
        d = a.as_dict()
        assert d["prune_rate"] == pytest.approx(9 / 15)
        assert d["lb_kim_rate"] == pytest.approx(4 / 15)

    def test_empty_rate_is_zero(self):
        assert PruningStats().prune_rate == 0.0


class TestDtwWindowOf:
    def test_names_and_callables(self):
        assert dtw_window_of("dtw") == (True, None)
        assert dtw_window_of("cdtw5") == (True, 0.05)
        assert dtw_window_of(dtw) == (True, None)
        assert dtw_window_of(cdtw) == (True, 0.05)
        assert dtw_window_of(make_cdtw(0.08)) == (True, 0.08)

    def test_non_dtw(self):
        assert dtw_window_of("ed") == (False, None)
        assert dtw_window_of("sbd") == (False, None)
        assert dtw_window_of(lambda a, b: 0.0) == (False, None)
        assert dtw_window_of("no-such-metric") == (False, None)


class TestEngineExactness:
    @pytest.mark.parametrize("window", [0.05, 0.1, 5, None])
    def test_bit_identical_to_brute(self, cbf, window):
        train, test = cbf
        idx, dist = CentroidIndex(train, windowed_dtw(window)).query_batch(test)
        bidx, bdist = brute_nn(test, train, lambda a, b: dtw(a, b, window=window))
        assert np.array_equal(idx, bidx)
        assert np.array_equal(dist, bdist)

    def test_metric_callable_confirms_at_metric_window(self, cbf):
        train, test = cbf
        index = CentroidIndex(train, make_cdtw(0.05), window=0.1)
        idx, dist = index.query_batch(test)
        bidx, bdist = brute_nn(test, train, make_cdtw(0.05))
        assert np.array_equal(idx, bidx)
        assert np.array_equal(dist, bdist)

    def test_duplicates_tie_to_lowest_index(self, rng):
        base = rng.normal(0, 1, (6, 20))
        train = np.vstack([base, base])  # every series twice
        idx, dist = CentroidIndex(train, windowed_dtw(0.1)).query_batch(base)
        assert np.array_equal(idx, np.arange(6))
        assert np.all(dist == 0.0)

    def test_constant_series(self):
        train = np.vstack([np.full(16, v) for v in (0.0, 1.0, -2.0)])
        index = CentroidIndex(train, windowed_dtw(0.1))
        idx, dist = index.query_batch(np.full((1, 16), 0.9))
        assert idx[0] == 1
        assert dist[0] == pytest.approx(dtw(np.full(16, 0.9), train[1], window=0.1))

    def test_single_candidate(self, rng):
        train = rng.normal(0, 1, (1, 24))
        index = CentroidIndex(train, windowed_dtw(0.1))
        idx, dist = index.query_batch(rng.normal(0, 1, (3, 24)))
        assert np.all(idx == 0)
        assert np.all(np.isfinite(dist))

    def test_query_batch_deterministic_in_workers(self, cbf):
        train, test = cbf
        serial = CentroidIndex(train, "cdtw5")
        si, sd = serial.query_batch(test)
        threaded = CentroidIndex(train, "cdtw5")
        ti, td = threaded.query_batch(test, n_jobs=4, backend="threads")
        assert np.array_equal(si, ti)
        assert np.array_equal(sd, td)
        assert serial.stats == threaded.stats
        # The dense strategy tiles its matrix over the workers; tiled cells
        # match the serial matrix to rounding (see pairwise_distances).
        si, sd = CentroidIndex(train, "sbd").query_batch(test)
        ti, td = CentroidIndex(train, "sbd").query_batch(
            test, n_jobs=4, backend="threads"
        )
        assert np.array_equal(si, ti)
        assert np.allclose(sd, td, rtol=0.0, atol=1e-12)

    def test_lower_bounds_are_admissible(self, cbf):
        train, test = cbf
        for q in test[:4]:
            kim, yi, keogh = lower_bounds(q, train, 0.1)
            true = np.array([cdtw(q, c, window=0.1) for c in train])
            assert np.all(kim <= true + 1e-9)
            assert np.all(yi <= true + 1e-9)
            assert np.all(keogh <= true + 1e-9)


class TestPrunedMedoid:
    def test_matches_brute(self, cbf):
        train, _ = cbf
        stats = PruningStats()
        idx, total = pruned_medoid(train, window=0.1, stats=stats)
        D = pairwise_distances(train, metric=make_cdtw(0.1))
        sums = D.sum(axis=1)
        assert idx == int(np.argmin(sums))
        assert total == pytest.approx(float(sums.min()))
        assert stats.candidates == (
            stats.lb_kim + stats.lb_yi + stats.lb_keogh + stats.abandoned
            + stats.full + stats.cached + stats.skipped
        )

    def test_singleton(self, rng):
        assert pruned_medoid(rng.normal(0, 1, (1, 10))) == (0, 0.0)

    def test_rejects_non_dtw_metric(self, rng):
        with pytest.raises(InvalidParameterError):
            pruned_medoid(rng.normal(0, 1, (4, 10)), metric="sbd")


def plain(metric):
    """The same distance as a bare callable: the dense strategy, unpruned."""
    return lambda a, b: metric(a, b)


class TestClusteringEquivalence:
    def test_kmeans_prune_bit_identical(self, cbf):
        train, _ = cbf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            a = TimeSeriesKMeans(3, metric=make_cdtw(0.1), random_state=5,
                                 max_iter=10).fit(train)
            b = TimeSeriesKMeans(3, metric=plain(make_cdtw(0.1)),
                                 random_state=5, max_iter=10).fit(train)
        assert np.array_equal(a.labels_, b.labels_)
        assert a.inertia_ == b.inertia_
        assert a.result_.extra["pruning_stats"].prune_rate > 0.0
        assert b.result_.extra["pruning_stats"].prune_rate == 0.0

    def test_kmeans_auto_enables_for_dtw(self, cbf):
        train, _ = cbf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model = TimeSeriesKMeans(2, metric="cdtw5", random_state=0,
                                     max_iter=5).fit(train)
        stats = model.result_.extra["pruning_stats"]
        assert stats.candidates > 0
        assert stats.prune_rate > 0.0

    def test_kmedoids_alternate_prune_bit_identical(self, cbf):
        train, _ = cbf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            a = KMedoids(3, metric="cdtw5", random_state=2, method="alternate",
                         max_iter=15).fit(train)
            b = KMedoids(3, metric=plain(make_cdtw(0.05)), random_state=2,
                         method="alternate", max_iter=15).fit(train)
        assert np.array_equal(a.labels_, b.labels_)
        assert np.array_equal(a.medoid_indices_, b.medoid_indices_)
        assert a.inertia_ == b.inertia_
        assert "pruning_stats" in a.result_.extra

    def test_kmedoids_alternate_rejects_precomputed(self):
        model = KMedoids(2, metric="precomputed", method="alternate")
        with pytest.raises(InvalidParameterError):
            model.fit(np.zeros((4, 4)))

    def test_kmedoids_bad_method(self):
        with pytest.raises(InvalidParameterError):
            KMedoids(2, method="nope")


finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False, width=64)


def series_set(n_min=2, n_max=6, m_max=16):
    return st.tuples(
        st.integers(n_min, n_max), st.integers(2, m_max)
    ).flatmap(
        lambda nm: arrays(np.float64, (nm[0], nm[1]), elements=finite)
    )


@given(series_set())
@settings(max_examples=40, deadline=None)
def test_engine_matches_brute_property(C):
    q = C[0] + 0.5
    idx, dist = CentroidIndex(C, windowed_dtw(0.2)).query(q)
    D = np.array([dtw(q, c, window=0.2) for c in C])
    assert idx == int(np.argmin(D))
    assert dist == D[idx]


@given(series_set())
@settings(max_examples=40, deadline=None)
def test_bounds_never_exceed_dtw_property(C):
    kim, yi, keogh = lower_bounds(C[-1], C, 0.2)
    true = np.array([cdtw(C[-1], c, window=0.2) for c in C])
    bound = np.maximum.reduce([kim, yi, keogh])
    assert np.all(bound <= true + 1e-9)
