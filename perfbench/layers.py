"""Per-layer tracing for the benchmark, installed from the benchmark's files.

The traced run wraps the layer functions *at the names the calling module
looks them up by* (``repro.core.kshape:ncc_c_max_multi`` rather than the
defining module), times every call, and derives counts from the call's
arguments and results. Nothing in ``src/`` is edited or imported for
tracing purposes, so a later change to the library cannot be hidden by the
benchmark and cannot break it either: a wrapper whose target no longer
exists reports its span as ``missing`` with the names it looked for.

Spans nest per thread: each span records its busy time (wall time of the
call) and its self time (busy time minus the busy time of spans that ran
inside it on the same thread).
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span timers and counters fed by wrappers around library functions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.missing = {}
        self._patches = []

    # -- recording ----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, name, start):
        elapsed = time.perf_counter() - start
        stack = self._stack()
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.busy[name] += elapsed
            self.self_time[name] += elapsed - children
            self.calls[name] += 1
        return elapsed

    @contextmanager
    def span(self, name):
        """Time a block of the benchmark's own code as span ``name``."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += int(n)

    def sample(self, name, value):
        with self._lock:
            self.samples[name].append(float(value))

    def reset(self):
        with self._lock:
            for table in (self.busy, self.self_time, self.calls,
                          self.counts, self.samples):
                table.clear()

    # -- installation -------------------------------------------------------
    def install(self, span, targets, hook=None):
        """Wrap every resolvable ``"module:Qual.name"`` in ``targets``.

        ``hook(tracer, args, kwargs, result, elapsed)`` runs after each call
        to derive counts. If no target resolves, ``span`` is reported as
        missing with the names looked for.
        """
        found = False
        for target in targets:
            module_name, _, qualname = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            if not inspect.isfunction(original):
                continue
            setattr(owner, attr, self._wrap(span, original, hook))
            self._patches.append((owner, attr, original))
            found = True
        if not found:
            self.missing[span] = " | ".join(targets)

    def _wrap(self, span, original, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            start = tracer._enter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(span, start)
                raise
            elapsed = tracer._exit(span, start)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result, elapsed)
                except (IndexError, KeyError, TypeError, ValueError, AttributeError) as exc:
                    # The target's signature changed: keep timing, flag counts.
                    tracer.missing.setdefault(f"{span} counts", repr(exc))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- count hooks -------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _ncc_multi_pairs(tracer, args, kwargs, result, elapsed):
    refs = _arg(args, kwargs, 2, "fft_refs")
    rows = _arg(args, kwargs, 0, "fft_X")
    tracer.count("ncc_pairs", np.shape(refs)[0] * np.shape(rows)[0])


def _ncc_batch_pairs(tracer, args, kwargs, result, elapsed):
    tracer.count("ncc_pairs", np.shape(_arg(args, kwargs, 0, "fft_X"))[0])


def _extract_rows(tracer, args, kwargs, result, elapsed):
    tracer.count("extract_rows", np.shape(args[0])[0] if args else 0)


def _band_cells(mx, my, w):
    """Cells of an ``mx x my`` DTW grid inside a Sakoe-Chiba half-width."""
    if w is None:
        return mx * my
    i = np.arange(mx)
    hi = np.minimum(my - 1, i + w)
    lo = np.maximum(0, i - w)
    return int(np.sum(np.maximum(hi - lo + 1, 0)))


def _dtw_cells(tracer, args, kwargs, result, elapsed):
    X = _arg(args, kwargs, 0, "X")
    Y = _arg(args, kwargs, 1, "Y")
    w = _arg(args, kwargs, 2, "w")
    B, mx = np.shape(X)
    tracer.count("dtw_calls")
    tracer.count("dtw_pairs", B)
    tracer.count("dtw_cells", B * _band_cells(mx, np.shape(Y)[1], w))


PRUNE_FIELDS = ("candidates", "lb_kim", "lb_yi", "lb_keogh", "abandoned", "full")


def _prune_stats(tracer, args, kwargs, result, elapsed):
    # query_batch merges every query's tier counters into the engine's
    # stats; one_nn_classify builds one engine per call.
    stats = getattr(args[0], "stats", None)
    for name in PRUNE_FIELDS:
        value = getattr(stats, name, None)
        if value is None:
            tracer.missing.setdefault(
                f"distances.prune.{name}", f"NeighborEngine.stats.{name}"
            )
            continue
        tracer.count(f"prune.{name}", value)


def _route_sample(tracer, args, kwargs, result, elapsed):
    tracer.sample("route_us", elapsed * 1e6)
    tracer.count(f"route.{result}")


def _submit_sample(tracer, args, kwargs, result, elapsed):
    tracer.sample("submit_us", elapsed * 1e6)


def _predict_sample(tracer, args, kwargs, result, elapsed):
    tracer.sample("kernel_ms", elapsed * 1e3)
    tracer.count("predictor_rows", np.shape(_arg(args, kwargs, 1, "X"))[0])


def _registry_sample(key):
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.sample(key, elapsed * 1e3)
    return hook


def _queue_wait(tracer, args, kwargs, result, elapsed):
    # Requests are stamped with time.monotonic on submit; the batch started
    # ``elapsed`` seconds before now on that clock.
    started = time.monotonic() - elapsed
    batch = _arg(args, kwargs, 1, "batch")
    waits = [1e3 * (started - request.submitted) for request in batch]
    with tracer._lock:
        tracer.samples["wait_ms"].extend(waits)
        tracer.samples["batch_size"].append(len(batch))


def _install_parallel_map(tracer):
    """Time ``parallel_map`` and observe which backend actually ran."""
    targets = ("repro.parallel.executors", "repro.core.kshape")
    resolved = False
    for module_name in targets:
        try:
            module = importlib.import_module(module_name)
            original = inspect.getattr_static(module, "parallel_map")
        except (ImportError, AttributeError):
            continue
        if not inspect.isfunction(original):
            continue
        resolved = True

        def wrapper(fn, items, *args, _original=original, **kwargs):
            backend = kwargs.get("backend", args[1] if len(args) > 1 else None)
            if backend == "processes":
                # A wrapped callable would not pickle; trust the request.
                tracer.count("backend.processes")
                with tracer.span("parallel.map"):
                    return _original(fn, items, *args, **kwargs)
            caller = threading.get_ident()
            seen = set()

            def observed(item):
                seen.add(threading.get_ident())
                return fn(item)

            with tracer.span("parallel.map"):
                result = _original(observed, items, *args, **kwargs)
            other = seen - {caller}
            tracer.count("backend.threads" if other else "backend.serial")
            return result

        setattr(module, "parallel_map", wrapper)
        tracer._patches.append((module, "parallel_map", original))
    if not resolved:
        tracer.missing["parallel.map"] = " | ".join(
            f"{m}:parallel_map" for m in targets
        )


def install_all(tracer):
    """Install every layer wrapper the per-layer metrics are computed from."""
    tracer.install("core.fft_batch.ncc", [
        "repro.core.kshape:ncc_c_max_multi",
        "repro.serving.predictor:ncc_c_max_multi",
    ], _ncc_multi_pairs)
    tracer.install("core.fft_batch.ncc_single", [
        "repro.core.kshape:ncc_c_max_batch",
        "repro.core.shape_extraction:ncc_c_max_batch",
    ], _ncc_batch_pairs)
    tracer.install("core.fft_batch.rfft", [
        "repro.core.kshape:rfft_batch",
        "repro.serving.predictor:rfft_batch",
    ])
    tracer.install("core.shape_extraction.extract", [
        "repro.core.kshape:_extract_aligned_task",
    ], _extract_rows)
    tracer.install("preprocessing.align", [
        "repro.core.kshape:shift_series_batch",
    ])
    tracer.install("distances.prune.lb", [
        "repro.distances.prune:NeighborEngine._kim",
        "repro.distances.prune:NeighborEngine._yi",
        "repro.distances.prune:NeighborEngine._keogh",
    ])
    tracer.install("distances.prune.query_batch", [
        "repro.distances.prune:NeighborEngine.query_batch",
    ], _prune_stats)
    tracer.install("distances.batch.dtw", [
        "repro.distances.prune:_dtw_cost_batch",
    ], _dtw_cells)
    _install_parallel_map(tracer)
    tracer.install("serving.router.route", [
        "repro.serving.router:ShardRouter.route",
    ], _route_sample)
    tracer.install("serving.queue.submit", [
        "repro.serving.queue:MicroBatchQueue.submit",
    ], _submit_sample)
    tracer.install("serving.queue.process", [
        "repro.serving.queue:MicroBatchQueue._process",
    ], _queue_wait)
    tracer.install("serving.predictor.predict_full", [
        "repro.serving.predictor:ShapePredictor.predict_full",
    ], _predict_sample)
    tracer.install("serving.registry.load", [
        "repro.serving.registry:ModelRegistry.load",
    ], _registry_sample("load_ms"))
    tracer.install("serving.registry.publish", [
        "repro.serving.registry:ModelRegistry.publish",
    ], _registry_sample("publish_ms"))


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def median(values):
    return percentile(values, 50.0)


def cpu_seconds():
    """User plus system CPU time of the whole process, every thread."""
    return time.process_time()
