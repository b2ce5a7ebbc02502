"""Tests for the private batched FFT kernels (repro.core._fft_batch).

These kernels power k-Shape's assignment/alignment steps; they must agree
exactly with the public per-pair API.
"""

import numpy as np
import pytest

from repro.core import ncc_max
from repro.core._fft_batch import _best_lag, fft_len_for, ncc_c_max_batch, rfft_batch


@pytest.fixture
def batch(rng):
    X = rng.normal(0, 1, (9, 40))
    ref = rng.normal(0, 1, 40)
    return X, ref


class TestBatchKernels:
    def test_fft_len_is_power_of_two(self):
        for m in (1, 2, 17, 64, 100):
            L = fft_len_for(m)
            assert L >= 2 * m - 1
            assert L & (L - 1) == 0

    def test_values_match_pairwise_ncc_max(self, batch):
        X, ref = batch
        m = X.shape[1]
        L = fft_len_for(m)
        values, _ = ncc_c_max_batch(
            rfft_batch(X, L), np.linalg.norm(X, axis=1),
            np.fft.rfft(ref, L), float(np.linalg.norm(ref)), m, L,
        )
        for i in range(X.shape[0]):
            expected, _ = ncc_max(X[i], ref)
            assert values[i] == pytest.approx(expected, abs=1e-9)

    def test_shifts_match_pairwise_ncc_max(self, batch):
        X, ref = batch
        m = X.shape[1]
        L = fft_len_for(m)
        _, shifts = ncc_c_max_batch(
            rfft_batch(X, L), np.linalg.norm(X, axis=1),
            np.fft.rfft(ref, L), float(np.linalg.norm(ref)), m, L,
        )
        for i in range(X.shape[0]):
            _, expected = ncc_max(X[i], ref)
            assert shifts[i] == expected

    def test_zero_norm_rows_safe(self, rng):
        X = np.vstack([np.zeros(16), rng.normal(0, 1, 16)])
        ref = rng.normal(0, 1, 16)
        L = fft_len_for(16)
        values, shifts = ncc_c_max_batch(
            rfft_batch(X, L), np.linalg.norm(X, axis=1),
            np.fft.rfft(ref, L), float(np.linalg.norm(ref)), 16, L,
        )
        assert values[0] == 0.0
        assert shifts[0] == 0

    def test_zero_reference_safe(self, rng):
        X = rng.normal(0, 1, (3, 16))
        ref = np.zeros(16)
        L = fft_len_for(16)
        values, _ = ncc_c_max_batch(
            rfft_batch(X, L), np.linalg.norm(X, axis=1),
            np.fft.rfft(ref, L), 0.0, 16, L,
        )
        assert np.all(values == 0.0)

    def test_length_one_series(self):
        X = np.array([[3.0], [-2.0]])
        ref = np.array([4.0])
        L = fft_len_for(1)
        values, shifts = ncc_c_max_batch(
            rfft_batch(X, L), np.linalg.norm(X, axis=1),
            np.fft.rfft(ref, L), 4.0, 1, L,
        )
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(-1.0)
        assert np.all(shifts == 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_lag_selection_matches_concatenated_argmax(self, rng, m):
        """Ties and NaNs pick the first index of the lag order
        ``-(m-1)..m-1``, as an argmax over the concatenated lags does."""
        L = fft_len_for(m)
        for _ in range(200):
            cc = rng.integers(0, 3, size=(2, 3, L)).astype(float)
            cc[rng.random(cc.shape) < 0.1] = np.nan
            full = np.concatenate((cc[..., L - (m - 1):], cc[..., :m]), axis=-1)
            idx = np.argmax(full, axis=-1)
            values, shifts = _best_lag(cc, np.ones((2, 3)), m, 1e-12)
            assert np.array_equal(shifts, idx - (m - 1))
            expected = np.take_along_axis(full, idx[..., None], axis=-1)[..., 0]
            assert np.array_equal(values, expected, equal_nan=True)
