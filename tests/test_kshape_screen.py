"""Screened SBD assignment in ``KShape.fit``.

The fit scores every (series, centroid) pair with a float32 NCCc on
unit-norm spectra and confirms in float64 only the pairs that can still win
a row. These tests pin that path to the dense float64 oracle
``_assign_sbd_naive``: whole fits must be byte-identical with the oracle
patched in, kernel-level states must agree on every assigned pair, and the
screen's error must stay far inside the bound the confirmation relies on.
"""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KShape
from repro.clustering.base import repair_empty_clusters
from repro.core._fft_batch import (
    fft_len_for,
    ncc_c_max_batch,
    ncc_c_max_multi,
    ncc_c_max_screen,
    rfft_batch,
    screen_tol,
    unit_spectra,
)
from repro.core.kshape import _assign_sbd_naive, _SBDState, assign_sbd
from repro.datasets import make_cbf
from repro.exceptions import ConvergenceWarning
from repro.preprocessing import zscore

kshape_module = importlib.import_module("repro.core.kshape")


def _edge_panel(m, seed):
    """CBF rows (resampled to ``m``) plus a zero row, a constant row, rows
    scaled to 1e-7 (where the kernel's absolute ``eps`` fires between two
    rows, as in ``plusplus`` seeding) and to 1e-14 (where it fires against
    a z-normalized centroid), and duplicated rows."""
    rng = np.random.default_rng(seed)
    length = max(m, 8)
    X, _ = make_cbf(6, length, rng)
    X = X[:, :: length // m][:, :m] if m < length else X
    X = zscore(X) if m > 2 else X + rng.standard_normal(X.shape)
    X[0] = 0.0
    X[1] = 2.5
    X[2:4] *= 1e-7
    X[4] *= 1e-14
    X[5:8] = X[9]
    return X


def _fit(X, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return KShape(**kwargs).fit(X)


def _outputs(model):
    return (
        model.labels_.tobytes(),
        model.centroids_.tobytes(),
        model.inertia_,
        model.n_iter_,
        model.result_.extra["history"],
    )


def _assert_matches_dense(monkeypatch, X, **kwargs):
    screened = _fit(X, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(kshape_module, "assign_sbd", _assign_sbd_naive)
        dense = _fit(X, **kwargs)
    assert _outputs(screened) == _outputs(dense)


class TestDifferentialFit:
    """``KShape.fit`` as shipped vs the same fit on the dense oracle."""

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 128, 1024])
    @pytest.mark.parametrize("init", ["random", "plusplus"])
    @pytest.mark.parametrize("cache_clusters", [True, False])
    def test_edge_panel(self, monkeypatch, m, init, cache_clusters):
        for seed in range(2):
            _assert_matches_dense(
                monkeypatch, _edge_panel(m, seed), n_clusters=3, max_iter=20,
                random_state=seed, init=init, cache_clusters=cache_clusters,
            )

    @pytest.mark.parametrize("m", [16, 128])
    def test_restarts_and_workers(self, monkeypatch, m):
        X = _edge_panel(m, 5)
        _assert_matches_dense(monkeypatch, X, n_clusters=3, n_init=3, random_state=5)
        _assert_matches_dense(monkeypatch, X, n_clusters=3, n_jobs=2, random_state=6)

    def test_more_clusters_than_shapes_repairs(self, monkeypatch):
        """Duplicated rows leave clusters empty, so ``repair_empty_clusters``
        moves rows onto centroids the screen did not confirm them to."""
        base = zscore(make_cbf(2, 32, np.random.default_rng(3))[0])
        X = np.repeat(base, 4, axis=0)
        for seed in range(6):
            _assert_matches_dense(
                monkeypatch, X, n_clusters=5, max_iter=8, random_state=seed,
            )


def _state(X, C):
    m = X.shape[1]
    fft_len = fft_len_for(m)
    state = _SBDState(rfft_batch(X, fft_len), np.linalg.norm(X, axis=1), C.shape[0], m, fft_len)
    return state, rfft_batch(C, fft_len), np.linalg.norm(C, axis=1)


def _assign_both(X, C, seed=0):
    """Run the screened and the dense assignment from the same state."""
    k, n = C.shape[0], X.shape[0]
    results = []
    for fn in (assign_sbd, _assign_sbd_naive):
        state, fft_C, norms_C = _state(X, C)
        labels = fn(state, fft_C, norms_C, list(range(k)), np.random.default_rng(seed))
        results.append((state, labels))
    (screened, labels), (dense, dense_labels) = results
    assert np.array_equal(labels, dense_labels)
    rows = np.arange(n)
    assert screened.exact[labels, rows].all()
    assert screened.dists[rows, labels].tobytes() == dense.dists[rows, labels].tobytes()
    assert np.array_equal(screened.shifts[rows, labels], dense.shifts[rows, labels])
    return screened, labels


class TestKernel:

    def test_identical_centroids_tie_to_lowest_index(self, rng):
        X = zscore(rng.standard_normal((30, 40)))
        C = zscore(rng.standard_normal((3, 40)))
        C[2] = C[1]
        C[0] = -C[1]
        state, labels = _assign_both(X, C)
        won = labels != 0
        assert won.sum() > 1
        # Centroid 2 only ever gets the one row repair moves to it.
        assert np.sum(labels == 2) == 1
        assert state.exact[1, won].all() and state.exact[2, won].all()

    @pytest.mark.parametrize("m", [16, 128])
    def test_near_ties_below_float32_resolution(self, rng, m):
        """Centroids 1e-9 apart in shape: the float32 scores cannot order
        them, so the float64 confirmation must decide every row."""
        X = zscore(rng.standard_normal((60, m)))
        base = zscore(rng.standard_normal(m))
        C = np.stack([base + 1e-9 * rng.standard_normal(m) for _ in range(4)])
        _assign_both(X, C)

    def test_repair_moves_are_confirmed(self, rng):
        """Every row prefers centroid 0, so clusters 1 and 2 are empty and
        repaired onto rows whose pairs the screen never confirmed."""
        m = 48
        X = zscore(np.sin(np.linspace(0, 6, m)) + 0.05 * rng.standard_normal((12, m)))
        C = np.stack([X.mean(axis=0), zscore(rng.standard_normal(m)), np.zeros(m)])
        C[:2] = zscore(C[:2])
        for seed in range(4):
            state, labels = _assign_both(X, C, seed)
            assert set(labels) == {0, 1, 2}

    def test_sub_eps_pairs_are_exact_zero_without_transform(self, rng):
        X = zscore(rng.standard_normal((8, 32)))
        X[:3] *= 1e-14
        X[3] = 0.0
        C = zscore(rng.standard_normal((2, 32)))
        state, _ = _assign_both(X, C)
        assert np.all(state.screen[:, :4] == 0.0)
        assert state.exact[:, :4].all()

    def test_clean_columns_are_reused(self, rng):
        X = zscore(rng.standard_normal((20, 32)))
        C = zscore(rng.standard_normal((3, 32)))
        state, fft_C, norms_C = _state(X, C)
        assign_sbd(state, fft_C, norms_C, [0, 1, 2], np.random.default_rng(0))
        before = state.screen.copy()
        C[1] = zscore(rng.standard_normal(32))
        fft_C[1], norms_C[1] = rfft_batch(C[1:2], state.fft_len)[0], np.linalg.norm(C[1])
        labels = assign_sbd(state, fft_C, norms_C, [1], np.random.default_rng(1))
        assert np.array_equal(state.screen[[0, 2]], before[[0, 2]])
        dense, *_ = _state(X, C)
        expected = _assign_sbd_naive(dense, fft_C, norms_C, [0, 1, 2], np.random.default_rng(1))
        assert np.array_equal(labels, expected)
        rows = np.arange(X.shape[0])
        assert state.exact[labels, rows].all()
        assert np.array_equal(state.dists[rows, labels], dense.dists[rows, labels])


def _rows(seed, kind, n, m):
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.standard_normal((n, m))
    if kind == "spiky":
        X = np.zeros((n, m))
        for row in X:
            at = rng.integers(0, m, size=rng.integers(1, 4))
            row[at] = rng.standard_normal(at.size) * 10.0 ** rng.uniform(-3, 3, at.size)
        return X
    return rng.choice([-1.0, 1.0], (n, m)) * 10.0 ** rng.uniform(-8, 8, (n, m))


@given(
    m=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gauss", "spiky", "dynamic"]),
)
@settings(max_examples=60, deadline=None)
def test_screen_error_far_inside_bound(m, seed, kind):
    """|float32 screen - float64 NCCc| <= tol / 8 on every pair the screen
    scores (norm product above the kernel's eps)."""
    X = _rows(seed, kind, 6, m)
    C = _rows(seed + 1, kind, 3, m)
    fft_len = fft_len_for(m)
    fft_X, fft_C = rfft_batch(X, fft_len), rfft_batch(C, fft_len)
    norms_X, norms_C = np.linalg.norm(X, axis=1), np.linalg.norm(C, axis=1)
    exact, _ = ncc_c_max_multi(fft_X, norms_X, fft_C, norms_C, m, fft_len)
    screen = ncc_c_max_screen(
        unit_spectra(fft_X, norms_X), unit_spectra(fft_C, norms_C), m, fft_len
    )
    assert screen.dtype == np.float32
    scored = norms_C[:, None] * norms_X[None, :] > 1e-12
    error = np.abs(screen.astype(np.float64) - exact)[scored]
    assert error.max(initial=0.0) <= screen_tol(m) / 8


def _plusplus_seeds_recomputed(self, X, fft_X, norms_X, fft_len, rng):
    """The seeding as first written: every seed's NCC computed twice."""
    n, m = X.shape
    seeds = [int(rng.integers(0, n))]
    nearest = np.full(n, np.inf)
    for _ in range(self.n_clusters - 1):
        last = seeds[-1]
        values, _ = ncc_c_max_batch(fft_X, norms_X, fft_X[last], float(norms_X[last]), m, fft_len)
        nearest = np.minimum(nearest, 1.0 - values)
        weights = np.maximum(nearest, 0.0) ** 2
        total = weights.sum()
        if total <= 0:
            seeds.append(int(rng.choice(np.setdiff1d(np.arange(n), seeds))))
            continue
        seeds.append(int(rng.choice(n, p=weights / total)))
    dists = np.empty((n, len(seeds)))
    for j, idx in enumerate(seeds):
        values, _ = ncc_c_max_batch(fft_X, norms_X, fft_X[idx], float(norms_X[idx]), m, fft_len)
        dists[:, j] = 1.0 - values
    return repair_empty_clusters(np.argmin(dists, axis=1), self.n_clusters, rng)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_plusplus_seeding_unchanged(monkeypatch, k):
    X = _edge_panel(64, 9)
    shipped = _fit(X, n_clusters=k, init="plusplus", random_state=2, max_iter=10)
    monkeypatch.setattr(KShape, "_plusplus_seeds", _plusplus_seeds_recomputed)
    reference = _fit(X, n_clusters=k, init="plusplus", random_state=2, max_iter=10)
    assert _outputs(shipped) == _outputs(reference)
