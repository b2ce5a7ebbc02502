"""Host speed, from a fixed probe timed beside each operation.

On a shared 2-vCPU machine one single-threaded k-Shape fit, repeated for a
minute, took from 0.26 s to 0.46 s while its process held the CPU the whole
time: the CPU itself slows while other tenants are busy, in waves of tens
of seconds, and the mean fit time of the same panel moved by a quarter
between runs ten minutes apart. A raw wall time says as much about the
neighbours as about the code.

:class:`HostSpeed` times a probe right before and after each timed
operation and reports the operation's time multiplied by
``reference_s / probe time``: the time it would take on a host on which
the probe takes ``reference_s``, its time on a quiet 2-vCPU VM. A probe is
plain numpy written here, sharing no code with the library, so a change to
the library moves the operation and not the probe and shows in full. The
closer a probe's mix of work is to the operation's, the more of the host's
drift cancels: over twelve processes of 20 fits each, the spread of mean
``fit_wide`` fit time (coefficient of variation) was 0.059 raw, 0.039
scaled by a generic probe of eigensolves, FFTs and scalar work, and 0.019
scaled by one numpy k-Shape refinement (correlation with the fit 0.95).
So the fit workloads probe with :func:`kshape_step`, the kernels a fit
spends its time in. The 1-NN workload uses the ``fit_wide`` probe too:
over 90 s of alternating 1-NN calls and probes, means of 8 calls
correlated 0.91 with a k-Shape probe and 0.84 with a banded-DTW probe
written for the call, and the spread of those means fell from 0.067 raw
to 0.030. The serving workload reports raw times: a
probe of small-batch NCC and queue work, taken with the fleet idle,
widened the spread of its CPU time per request.
"""

from __future__ import annotations

import time

import numpy as np

#: A probe older than this is retaken before the next operation.
STALE_S = 1.0
#: Byte budget of one NCC block of :func:`kshape_step`. Blocks of this size
#: allocate and free temporaries of a few MB, as a fit does, so the probe
#: pays the page faults a fit pays (about 20,000 per ``fit_wide`` fit),
#: whose cost moves with the host as much as arithmetic does.
NCC_BLOCK_BYTES = 8 << 20


def kshape_step(n, m, k):
    """One k-Shape refinement in plain numpy, at the workload's size.

    NCC of every row against ``k`` centroids through batched FFTs, a few
    centroids per block, then per cluster the extraction eigensolve: on the
    ``m x m`` side when the cluster has at least ``m`` rows, else on its
    small Gram side.
    """
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, m))
    labels = np.arange(n) % k
    fft_len = 1 << (2 * m - 2).bit_length()
    ref = np.fft.rfft(rng.standard_normal((k, m)), fft_len, axis=1).conj()
    block = max(1, NCC_BLOCK_BYTES // (n * fft_len * 8))
    Q = np.eye(m) - 1.0 / m

    def step():
        fx = np.fft.rfft(X, fft_len, axis=1)
        for lo in range(0, k, block):
            cc = np.fft.irfft(fx[None, :, :] * ref[lo:lo + block, None, :], fft_len, axis=2)
            full = np.concatenate((cc[..., -(m - 1):], cc[..., :m]), axis=2)
            full.argmax(axis=2)
        for j in range(k):
            A = X[labels == j]
            if len(A) >= m:
                np.linalg.eigh(Q @ (A.T @ A) @ Q)
            else:
                B = A @ Q
                np.linalg.eigh(B @ B.T)

    return step


class HostSpeed:
    """Times ``step`` and scales operation times by it.

    ``reference_s`` is the median time of ``step`` on the reference host.
    """

    def __init__(self, step, reference_s):
        self._step = step
        self.reference_s = reference_s
        self._last = None  # (taken at, seconds)
        self.samples = []
        self.probe()  # the first call pays one-time costs (FFT plans, page faults)
        self.samples.clear()

    def probe(self):
        """Time the probe once; its seconds."""
        start = time.perf_counter()
        self._step()
        now = time.perf_counter()
        self._last = (now, now - start)
        self.samples.append(now - start)
        return now - start

    def recent(self):
        """The last probe's seconds, retaken if it is stale."""
        if self._last is None or time.perf_counter() - self._last[0] > STALE_S:
            self.probe()
        return self._last[1]

    def scale(self, seconds, before, after):
        """``seconds`` at reference speed, from the probes around it."""
        return seconds * self.reference_s / (0.5 * (before + after))

    def slowdown(self):
        """Median probe time of the run over the reference time."""
        return float(np.median(self.samples)) / self.reference_s if self.samples else 0.0
