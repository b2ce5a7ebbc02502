"""Differential suite for the one nearest-candidate search.

:class:`~repro.search.CentroidIndex` is the only nearest-candidate
searcher: the pruned (c)DTW scan or the dense matrix, picked from the
metric. Its contract — indices and distances **bit-identical** to
``argmin(cross_distances(Q, candidates, metric))``, ties to the lowest
index — is pinned here twice:

* directly, over every metric family the consumers use, on clustered,
  random, duplicate, constant and single-candidate inputs plus a
  hypothesis-drawn case;
* through every consumer (1-NN, ``TimeSeriesKMeans``, both ``KMedoids``
  methods, ``ShapePredictor``): each is run once as shipped and once with
  the search swapped for a plain dense-argmin oracle, and labels,
  distances, medoids and inertia must agree exactly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.classification import one_nn_classify
from repro.clustering import KMedoids, TimeSeriesKMeans
from repro.datasets import make_cbf
from repro.distances import cross_distances, make_cdtw
from repro.distances.prune import PruningStats
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.preprocessing import zscore
from repro.search import CentroidIndex
from repro.serving import ShapePredictor

METRICS = [
    "sbd",
    "dtw",
    "cdtw5",
    "cdtw10",
    pytest.param(make_cdtw(0.08), id="make_cdtw8"),
    "ed",
]
DTW_METRICS = ["dtw", "cdtw5", "cdtw10", pytest.param(make_cdtw(0.08), id="make_cdtw8")]


def clustered_workload(rng, n_queries=24, k=9, m=48):
    """A CBF split: candidate set plus a held-out query stream."""
    total = n_queries + k
    X, _ = make_cbf(-(-total // 3), m, rng)
    X = zscore(X[rng.permutation(X.shape[0])[:total]])
    return X[:k], X[k:]


def exhaustive(queries, candidates, metric):
    """The dense argmin the search must reproduce bit-for-bit."""
    D = cross_distances(queries, candidates, metric=metric)
    idx = np.argmin(D, axis=1)
    return idx, D[np.arange(D.shape[0]), idx]


class TestExactMode:
    @pytest.mark.parametrize("metric", METRICS)
    def test_batch_matches_exhaustive(self, rng, metric):
        C, Q = clustered_workload(rng)
        index = CentroidIndex(C, metric)
        labels, dists = index.query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, metric)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)

    @pytest.mark.parametrize("metric", METRICS)
    def test_single_query_matches_batch(self, rng, metric):
        C, Q = clustered_workload(rng, n_queries=6)
        index = CentroidIndex(C, metric)
        batch_labels, batch_dists = index.query_batch(Q)
        for i, q in enumerate(Q):
            label, dist = index.query(q)
            assert label == batch_labels[i]
            assert dist == batch_dists[i]

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_property_random_workloads(self, metric, seed):
        """Seeded sweep over mixed shapes: sines, walks, pure noise."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(24, 72))
        k = int(rng.integers(2, 20))
        t = np.linspace(0.0, 1.0, m)
        pool = [np.sin(2 * np.pi * (rng.uniform(1, 6) * t + rng.uniform()))
                for _ in range(k)]
        pool += [np.cumsum(rng.normal(size=m)) for _ in range(8)]
        pool += [rng.normal(size=m) for _ in range(8)]
        X = zscore(np.asarray(pool))
        C, Q = X[:k], X[k:]
        labels, dists = CentroidIndex(C, metric).query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, metric)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)

    @pytest.mark.parametrize("metric", METRICS)
    def test_duplicate_candidates_tie_to_lowest_index(self, rng, metric):
        C, Q = clustered_workload(rng, n_queries=10, k=5)
        C = np.vstack([C, C[1], C[3]])  # plant exact duplicates
        Q = np.vstack([Q, C[3]])  # a query sitting on a duplicated candidate
        labels, dists = CentroidIndex(C, metric).query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, metric)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)
        assert not np.any(labels >= 5)  # never the later copy

    @pytest.mark.parametrize("metric", DTW_METRICS)
    def test_tie_whose_rounded_root_squares_below_its_cost(self, metric):
        """Both costs are 0.75, whose float sqrt squares to 0.7499...; the
        lower index must not be abandoned against the seed's cutoff."""
        C = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        Q = C[:1] + 0.5
        labels, dists = CentroidIndex(C, metric).query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, metric)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)

    @pytest.mark.parametrize("metric", METRICS)
    def test_constant_rows(self, rng, metric):
        C, Q = clustered_workload(rng, n_queries=8, k=4)
        C = np.vstack([C, np.zeros(C.shape[1]), np.full(C.shape[1], 2.5)])
        Q = np.vstack([Q, np.zeros(Q.shape[1])])
        labels, dists = CentroidIndex(C, metric).query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, metric)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)

    @pytest.mark.parametrize("metric", METRICS)
    def test_single_candidate(self, rng, metric):
        C, Q = clustered_workload(rng, n_queries=6, k=3)
        labels, dists = CentroidIndex(C[:1], metric).query_batch(Q)
        assert np.array_equal(labels, np.zeros(Q.shape[0], dtype=labels.dtype))
        _, ref_dists = exhaustive(Q, C[:1], metric)
        assert np.array_equal(dists, ref_dists)

    def test_cdtw_extra_window_widens_envelope_not_results(self, rng):
        C, Q = clustered_workload(rng)
        index = CentroidIndex(C, "cdtw5", window=0.1)
        labels, dists = index.query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, "cdtw5")
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)

    @pytest.mark.parametrize("metric", METRICS)
    def test_exact_distances_subset(self, rng, metric):
        C, Q = clustered_workload(rng, n_queries=5)
        cells = CentroidIndex(C, metric).exact_distances(Q, [0, 3, 7])
        full = cross_distances(Q, C, metric=metric)
        assert np.array_equal(cells, full[:, [0, 3, 7]])

    def test_make_cdtw_window_object(self, rng):
        C, Q = clustered_workload(rng)
        metric = make_cdtw(0.08)
        labels, dists = CentroidIndex(C, metric).query_batch(Q)
        ref_labels, ref_dists = exhaustive(Q, C, metric)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)


finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False, width=64)


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 16))
    .flatmap(lambda s: st.tuples(
        arrays(np.float64, (s[0], s[2]), elements=finite),
        arrays(np.float64, (s[1], s[2]), elements=finite),
        st.lists(st.integers(0, s[0] - 1), max_size=3),
    )),
    st.sampled_from(["dtw", "cdtw10", "sbd", "ed"]),
)
@settings(max_examples=60, deadline=None)
def test_matches_exhaustive_property(case, metric):
    C, Q, dup = case
    C = np.vstack([C, C[dup]]) if dup else C  # duplicates tie to the lowest
    labels, dists = CentroidIndex(C, metric).query_batch(Q)
    ref_labels, ref_dists = exhaustive(Q, C, metric)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(dists, ref_dists)


class DenseOracle:
    """Stand-in for the search: the plain dense argmin, nothing pruned."""

    def __init__(self, candidates, metric, window=None):
        self.candidates = np.asarray(candidates, dtype=np.float64)
        self.metric = metric
        self.stats = PruningStats()

    def query_batch(self, Q, n_jobs=None, backend=None):
        return exhaustive(Q, self.candidates, self.metric)

    def exact_distances(self, X, candidates):
        return cross_distances(X, self.candidates, metric=self.metric)[:, candidates]


def _under_oracle(monkeypatch, run):
    """``run()`` with every consumer's search swapped for :class:`DenseOracle`."""
    with monkeypatch.context() as patch:
        for consumer in ("clustering.kmeans", "clustering.kmedoids",
                         "classification.nearest_neighbor", "serving.predictor"):
            patch.setattr(f"repro.{consumer}.CentroidIndex", DenseOracle)
        return run()


def _fit(model, X):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return model.fit(X)


class TestConsumers:
    """Every consumer answers exactly as it would over a dense argmin."""

    @pytest.fixture
    def data(self, rng):
        X, _ = make_cbf(10, 40, rng)
        X = zscore(X)
        # Duplicate rows: candidate ties must resolve to the lowest index.
        return np.vstack([X, X[:3]])

    @pytest.mark.parametrize("metric", DTW_METRICS)
    def test_one_nn_classify(self, rng, metric):
        C, Q = clustered_workload(rng)
        C = np.vstack([C, C[:2]])
        y = np.arange(C.shape[0])  # one label per candidate: labels = argmins
        got = one_nn_classify(C, y, Q, metric=metric, lb_window=0.1)
        assert np.array_equal(got, y[exhaustive(Q, C, metric)[0]])

    @pytest.mark.parametrize("metric", METRICS)
    def test_kmeans_fit_and_predict(self, monkeypatch, data, metric):
        def run():
            model = _fit(TimeSeriesKMeans(3, metric=metric, max_iter=6,
                                          random_state=4), data)
            return model, model.predict(data[::-1])

        model, predicted = run()
        ref, ref_predicted = _under_oracle(monkeypatch, run)
        assert np.array_equal(model.labels_, ref.labels_)
        assert np.array_equal(model.centroids_, ref.centroids_)
        assert model.inertia_ == ref.inertia_
        assert np.array_equal(predicted, ref_predicted)
        stats = model.result_.extra["pruning_stats"]
        assert stats.queries == data.shape[0] * model.n_iter_
        assert stats.candidates == stats.queries * 3

    @pytest.mark.parametrize("method", ["pam", "alternate"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_kmedoids_fit_and_predict(self, monkeypatch, data, metric, method):
        def run():
            model = _fit(KMedoids(3, metric=metric, method=method, max_iter=8,
                                  random_state=2), data)
            return model, model.predict(data[::-1])

        model, predicted = run()
        ref, ref_predicted = _under_oracle(monkeypatch, run)
        assert np.array_equal(model.labels_, ref.labels_)
        assert np.array_equal(model.medoid_indices_, ref.medoid_indices_)
        assert model.inertia_ == ref.inertia_
        assert np.array_equal(predicted, ref_predicted)

    @pytest.mark.parametrize("metric", METRICS)
    def test_shape_predictor(self, monkeypatch, data, metric):
        centroids = np.vstack([data[:4], data[1]])  # a duplicated centroid

        def run():
            return ShapePredictor(centroids, metric=metric).predict_full(data)

        got = run()
        ref = _under_oracle(monkeypatch, run)
        assert np.array_equal(got.labels, ref.labels)
        assert np.array_equal(got.distances, ref.distances)
        idx, dist = exhaustive(data, centroids, metric)
        if metric != "sbd":  # the SBD kernel is the predictor's own matrix
            assert np.array_equal(got.labels, idx)
            assert np.array_equal(got.distances, dist)


class TestStatsAccounting:
    @pytest.mark.parametrize("metric", METRICS)
    def test_partition_invariant(self, rng, metric):
        C, Q = clustered_workload(rng)
        index = CentroidIndex(C, metric)
        index.query_batch(Q)
        s = index.stats
        assert s.queries == Q.shape[0]
        assert s.candidates == Q.shape[0] * C.shape[0]
        assert s.candidates == (
            s.lb_paa + s.lb_kim + s.lb_yi + s.lb_keogh
            + s.abandoned + s.full + s.cached + s.skipped
        )
        assert 0.0 <= s.prune_rate <= 1.0

    def test_merge_and_as_dict(self, rng):
        C, Q = clustered_workload(rng, n_queries=10)
        index = CentroidIndex(C, "cdtw5")
        index.query_batch(Q)
        total = PruningStats()
        total.merge(index.stats).merge(index.stats)
        assert total.queries == 2 * index.stats.queries
        assert total.full == 2 * index.stats.full
        d = total.as_dict()
        assert d["queries"] == total.queries
        assert "lb_paa_rate" in d


class TestValidation:
    def test_rejects_window_under_sbd(self, rng):
        C, _ = clustered_workload(rng)
        for metric in ("sbd", "lcss", "ed"):  # bounds not admissible
            with pytest.raises(InvalidParameterError):
                CentroidIndex(C, metric, window=0.1)

    def test_rejects_unsupported_metric(self, rng):
        C, _ = clustered_workload(rng)
        with pytest.raises(InvalidParameterError):
            CentroidIndex(C, metric=42)

    def test_rejects_length_mismatch(self, rng):
        C, Q = clustered_workload(rng)
        index = CentroidIndex(C, "cdtw5")
        with pytest.raises(Exception):
            index.query_batch(Q[:, :-3])


class TestGoldenArgmins:
    """Routing pinned against the golden fixtures: the committed matrices
    say which candidate each row is closest to, and the search must keep
    agreeing with them after any rewrite."""

    @pytest.mark.parametrize("metric", ["sbd", "dtw", "cdtw5"])
    def test_golden_routing(self, metric):
        from pathlib import Path

        fixture = (
            Path(__file__).parent / "golden" / f"golden_{metric}.npz"
        )
        data = np.load(fixture)
        X, D = data["X"], data["D"]
        ref = np.argmin(D + np.eye(D.shape[0]) * 1e6, axis=1)
        index = CentroidIndex(X, metric)
        labels = np.empty_like(ref)
        for i in range(X.shape[0]):
            others = np.delete(np.arange(X.shape[0]), i)
            j, _ = CentroidIndex(X[others], metric).query(X[i])
            labels[i] = others[j]
        assert np.array_equal(labels, ref)
        # Self-queries hit distance ~0 at the right index too.
        self_labels, _ = index.query_batch(X)
        assert np.array_equal(self_labels, np.arange(X.shape[0]))
