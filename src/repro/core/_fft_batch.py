"""Vectorized FFT cross-correlation kernels used by k-Shape internally.

These helpers batch the NCCc computation of one reference sequence against
many sequences at once, which turns k-Shape's assignment and alignment steps
into a handful of numpy FFT calls per iteration instead of ``n * k``
individual ones. They are private: the public, per-pair API lives in
:mod:`repro.core.crosscorr` and :mod:`repro.core.sbd`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..preprocessing.utils import next_power_of_two

__all__ = [
    "fft_len_for",
    "rfft_batch",
    "unit_spectra",
    "screen_tol",
    "ncc_c_max_batch",
    "ncc_c_max_multi",
    "ncc_c_max_screen",
    "sbd_to_centroids",
]


def fft_len_for(m: int) -> int:
    """Power-of-two FFT length for series of length ``m`` (Algorithm 1)."""
    return next_power_of_two(2 * m - 1)


def rfft_batch(X: np.ndarray, fft_len: int) -> np.ndarray:
    """Real FFT of each row of ``X`` padded to ``fft_len``."""
    return np.fft.rfft(X, fft_len, axis=-1)


def unit_spectra(fft: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """complex64 spectra of the unit-norm rows ``x / ||x||``.

    The division runs in float64 on the float64 spectra (the transform is
    linear, so this is the spectrum of ``x / ||x||``) and only the result
    is cast. Zero-norm rows stay zero.
    """
    unit = np.zeros_like(fft)
    np.divide(fft, norms[:, None], out=unit, where=norms[:, None] > 0)
    return unit.astype(np.complex64)


def screen_tol(m: int) -> float:
    """Bound on ``|NCCc32 - NCCc64|`` of the max NCCc of two unit-norm rows.

    NCCc32 is the :func:`ncc_c_max_screen` value on :func:`unit_spectra`;
    NCCc64 is the :func:`ncc_c_max_multi` value on the raw spectra.
    With ``L = fft_len_for(m)``, ``u = 2**-24`` the float32 unit roundoff
    and unit-norm rows ``x, y`` (``||x||_2 = ||y||_2 = 1``), the error of
    the float32 correlation ``cc = irfft(X * conj(Y))`` comes from three
    steps:

    * **the cast** of the float64 spectra rounds each component with
      relative error ``<= u``: ``||dX||_2 <= u ||X||_2``;
    * **the product** ``X * conj(Y)`` has relative error ``<= sqrt(5) u``
      per element (complex multiplication);
    * **the inverse FFT** of ``log2 L`` stages adds relative error
      ``<= log2(L) * eta * ||cc||_2`` with ``eta ~= 4 sqrt(2) u + u``
      (Higham, *Accuracy and Stability of Numerical Algorithms*,
      Thm. 24.2, with twiddles correct to ``u``); the ``1/L`` scaling
      is a power of two and exact.

    Every step is bounded through ``||X||_inf <= ||x||_1 <= sqrt(m)
    ||x||_2 = sqrt(m)`` and Parseval, ``||X||_2 = sqrt(L)``: a perturbation
    ``dP`` of the product moves ``cc`` by at most ``||dP||_2 / sqrt(L)``
    in 2-norm, and ``||X * conj(Y)||_2 <= ||X||_inf ||Y||_2 <=
    sqrt(m L)``, so ``||cc||_2 <= sqrt(m)``. Counting the half spectrum
    twice (``sqrt(2)``), the cast and product contribute
    ``sqrt(2) (2 + sqrt(5)) u sqrt(m) ~= 6 u sqrt(m)`` and the inverse
    transform ``6.7 log2(L) u sqrt(m)``. A max over lags moves by at
    most the largest entrywise error, which ``||.||_2`` bounds. The sum,
    ``(3.4 log2 L + 3) eps32 sqrt(m)``, sits under the returned
    ``4 (log2 L + 2) eps32 sqrt(m)``, whose slack also covers the real-FFT
    post-processing stage and the float64 side's own (``2**-29`` times
    smaller) error. That is 5.4e-5 at ``m = 128`` and 2.0e-4 at
    ``m = 1024``. Measured errors stay near 1.5e-7 at every length: 20x
    under the bound at ``m = 2``, 2000x at ``m = 2048``.
    """
    fft_len = fft_len_for(m)
    eps32 = 2.0**-23
    return float(4.0 * (np.log2(fft_len) + 2.0) * eps32 * np.sqrt(m))


def _best_lag(
    cc: np.ndarray, denom: np.ndarray, m: int, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized max and lag over the last axis of circular correlations.

    The ``2m - 1`` valid lags are two views of each row: lags
    ``-(m-1)..-1`` at ``cc[..., L-(m-1):]`` and ``0..m-1`` at
    ``cc[..., :m]``. Each view's argmax is taken in place and the two are
    combined; the negative-lag view wins exact ties, and a NaN wins as it
    does in ``np.argmax``, so the lag is the first maximal index of the
    concatenated lag order without copying rows into it. Pairs whose
    ``denom`` is ``<= eps`` yield value 0, lag 0.
    """
    shape = cc.shape[:-1]
    fft_len = cc.shape[-1]
    cc = cc.reshape(-1, fft_len)
    rows = np.arange(cc.shape[0])
    lag = np.argmax(cc[:, :m], axis=1)
    best = cc[rows, lag]
    if m > 1:
        start = fft_len - (m - 1)
        idx = np.argmax(cc[:, start:], axis=1)
        best_neg = cc[rows, start + idx]
        take_neg = (best_neg >= best) | np.isnan(best_neg)
        lag = np.where(take_neg, idx - (m - 1), lag)
        best = np.where(take_neg, best_neg, best)
    best = best.reshape(shape)
    safe = denom > eps
    out = np.zeros_like(best)
    np.divide(best, denom, out=out, where=safe)
    return out, np.where(safe, lag.reshape(shape), 0)


def ncc_c_max_batch(
    fft_X: np.ndarray,
    norms_X: np.ndarray,
    fft_ref: np.ndarray,
    norm_ref: float,
    m: int,
    fft_len: int,
    eps: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray]:
    """Max NCCc (and optimal shift) of a reference against a batch of rows.

    Parameters
    ----------
    fft_X:
        ``(n, fft_len//2 + 1)`` precomputed rFFTs of the batch rows.
    norms_X:
        ``(n,)`` L2 norms of the batch rows.
    fft_ref:
        rFFT of the reference sequence.
    norm_ref:
        L2 norm of the reference sequence.
    m:
        Original series length.
    fft_len:
        FFT length used for the transforms.

    Returns
    -------
    (values, shifts):
        ``values[i]`` is ``max_w NCCc(row_i, ref)``; ``shifts[i]`` is the lag
        by which *ref* must be shifted (positive = right) to best align with
        row ``i``. Rows or references with zero norm yield value 0, shift 0.
    """
    cc = np.fft.irfft(fft_X * np.conj(fft_ref), fft_len, axis=-1)
    return _best_lag(cc, norms_X * norm_ref, m, eps)


def ncc_c_max_multi(
    fft_X: np.ndarray,
    norms_X: np.ndarray,
    fft_refs: np.ndarray,
    norms_refs: np.ndarray,
    m: int,
    fft_len: int,
    eps: float = 1e-12,
    max_chunk_bytes: int = 8 << 20,
) -> Tuple[np.ndarray, np.ndarray]:
    """Max NCCc of *many* references against a batch of rows at once.

    The per-reference inverse FFTs are evaluated as one broadcast multiply
    ``fft_X[None] * conj(fft_refs)[:, None]`` followed by a single batched
    ``irfft``, chunked over the reference axis so the intermediate
    ``(chunk, n, fft_len)`` buffer never exceeds ``max_chunk_bytes``.
    Each ``(reference, row)`` cell is numerically identical to the
    corresponding :func:`ncc_c_max_batch` call. The default chunk budget
    is deliberately cache-sized: measured on the n=500, m=1024 benchmark
    workload, an 8 MB bound is ~6× faster than letting the scratch buffer
    grow to 64 MB.

    Returns
    -------
    (values, shifts):
        ``(k, n)`` arrays; ``values[j, i]`` is ``max_w NCCc(row_i, ref_j)``
        and ``shifts[j, i]`` the lag shifting ``ref_j`` toward row ``i``.
    """
    k = fft_refs.shape[0]
    n = fft_X.shape[0]
    values = np.empty((k, n))
    shifts = np.empty((k, n), dtype=np.int64)
    chunk = max(1, int(max_chunk_bytes // max(n * fft_len * 8, 1)))
    if chunk <= 2:
        # Large batches degenerate to one or two references per chunk,
        # where the 3-D broadcast machinery (stubby leading axis, extra
        # temporaries, take_along_axis) costs ~30% of the sweep while
        # amortizing almost nothing; the 2-D per-reference kernel computes
        # the same cells faster. Values are identical: every step is
        # elementwise per (reference, row) cell.
        for j in range(k):
            cc = np.fft.irfft(fft_X * np.conj(fft_refs[j]), fft_len, axis=-1)
            values[j], shifts[j] = _best_lag(cc, norms_refs[j] * norms_X, m, eps)
        return values, shifts
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        cc = np.fft.irfft(
            fft_X[None, :, :] * np.conj(fft_refs[start:stop])[:, None, :],
            fft_len,
            axis=-1,
        )
        values[start:stop], shifts[start:stop] = _best_lag(
            cc, norms_refs[start:stop, None] * norms_X[None, :], m, eps
        )
    return values, shifts


def ncc_c_max_screen(
    unit_X: np.ndarray, unit_refs: np.ndarray, m: int, fft_len: int
) -> np.ndarray:
    """float32 max NCCc of unit-norm references against unit-norm rows.

    ``unit_X`` and ``unit_refs`` are complex64 :func:`unit_spectra`. Each
    reference takes one float32 inverse transform over all rows and a max
    over the two views of valid lags; no lag is located and nothing is
    normalized, since the rows already have unit norm. ``values[j, i]``
    is within :func:`screen_tol` of the float64 :func:`ncc_c_max_multi`
    cell wherever that cell's norm product exceeds its ``eps``.
    """
    values = np.empty((unit_refs.shape[0], unit_X.shape[0]), dtype=np.float32)
    for j, ref in enumerate(unit_refs):
        cc = np.fft.irfft(unit_X * np.conj(ref), fft_len, axis=-1)
        np.max(cc[:, :m], axis=-1, out=values[j])
        if m > 1:
            np.maximum(values[j], cc[:, fft_len - (m - 1):].max(axis=-1), out=values[j])
    return values


def sbd_to_centroids(
    fft_X: np.ndarray,
    norms_X: np.ndarray,
    centroids: np.ndarray,
    m: int,
    fft_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(n, k)`` SBD matrix (and optimal lags) from rows to centroids.

    Computes all ``k`` centroid rFFTs with one :func:`rfft_batch` call and
    scores every column through :func:`ncc_c_max_multi` — the batched
    assignment kernel shared by :class:`~repro.core.kshape.KShape` and
    :class:`~repro.core.minibatch.MiniBatchKShape`.
    """
    fft_C = rfft_batch(centroids, fft_len)
    norms_C = np.linalg.norm(centroids, axis=1)
    values, shifts = ncc_c_max_multi(fft_X, norms_X, fft_C, norms_C, m, fft_len)
    return 1.0 - values.T, shifts.T
