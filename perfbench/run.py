#!/usr/bin/env python3
"""Run one benchmark workload against the library in ``src/``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` installs the per-layer wrappers (see ``layers.py``) and
reports the per-layer metrics instead. The last line of standard output is
the result object; the line before it records what the numbers depend on
(CPU count, library versions, git commit, seed) and the workload's detail.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
    "throughput_per_s": "series/s",
    "quality": "ratio",
}

PER_LAYER = {
    "core.fft_batch.ncc_s": "s",
    "core.fft_batch.rfft_s": "s",
    "core.fft_batch.ncc_pairs": "count",
    "core.shape_extraction.extract_s": "s",
    "core.shape_extraction.extract_calls": "count",
    "core.shape_extraction.rows": "count",
    "core.kshape.iterations": "count",
    "core.kshape.clean_ratio": "ratio",
    "core.kshape.self_s": "s",
    "preprocessing.align_s": "s",
    "distances.prune.lb_s": "s",
    "distances.prune.candidates": "count",
    "distances.prune.lb_kim": "count",
    "distances.prune.lb_yi": "count",
    "distances.prune.lb_keogh": "count",
    "distances.prune.abandoned": "count",
    "distances.prune.full": "count",
    "distances.prune.prune_rate": "ratio",
    "distances.batch.dtw_s": "s",
    "distances.batch.dtw_calls": "count",
    "distances.batch.dtw_cells": "count",
    "parallel.map_s": "s",
    "parallel.map_calls": "count",
    "parallel.backend.serial": "count",
    "parallel.backend.threads": "count",
    "parallel.backend.processes": "count",
    "serving.router.route_us_p50": "us",
    "serving.router.imbalance": "ratio",
    "serving.queue.wait_ms_p50": "ms",
    "serving.queue.wait_ms_p99": "ms",
    "serving.queue.submit_us_p50": "us",
    "serving.queue.batch_size_mean": "count",
    "serving.queue.batches": "count",
    "serving.queue.max_depth": "count",
    "serving.predictor.kernel_ms_p50": "ms",
    "serving.predictor.kernel_ms_p99": "ms",
    "serving.predictor.rows": "count",
    "serving.fleet.swap_ms_p50": "ms",
    "serving.fleet.swap_ms_max": "ms",
    "serving.fleet.pause_ms_p50": "ms",
    "serving.fleet.pause_ms_max": "ms",
    "serving.fleet.swaps": "count",
    "serving.fleet.rollbacks": "count",
    "serving.registry.load_ms": "ms",
    "serving.registry.publish_ms": "ms",
    "serve.generator_late_ms_max": "ms",
    "process.cpu_util": "ratio",
    "trace.overhead": "ratio",
}


def pin_environment():
    """Fix what the numbers depend on before numpy is imported.

    The hardware profile is disabled so a stale calibration file cannot
    change queue or backend policy, and BLAS/OpenMP pools are pinned to one
    thread whatever the caller's environment says. On a shared 2-vCPU
    machine a two-thread pool made a fit on 128-point series 3x slower and
    its repeat-to-repeat spread 2.5x wider than one thread did: its small
    matrix products measure the scheduler, not the library.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    os.environ["REPRO_HARDWARE_PROFILE"] = "off"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment(nproc, seed):
    import numpy as np
    import scipy

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):  # layout differs across numpy versions
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hardware_profile": os.environ.get("REPRO_HARDWARE_PROFILE"),
        "git_sha": git_sha(),
        "seed": seed,
    }


def finite(value):
    value = float(value)
    return value if math.isfinite(value) else 1e9


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {src.name}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads
    from layers import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    wall = time.perf_counter() - started

    error_rate = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        metrics = {name: {"value": finite(outcome.layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": outcome.setup_s,
            "peak_rss_mb": workloads.peak_rss_mb(),
            "latency_ms": outcome.latency_ms,
            "throughput_per_s": outcome.throughput_per_s,
            "quality": outcome.quality,
        }
        metrics = {name: {"value": finite(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        outcome.name("setup_s", values["setup_s"], "s")
        outcome.name("peak_rss_mb", values["peak_rss_mb"], "MB")
    outcome.name("error_rate", error_rate, "ratio")
    correct = outcome.failed == 0
    context = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(nproc, args.seed),
        "wall_s": wall,
        "named": {k: {"value": finite(v["value"]), "unit": v["unit"]}
                  for k, v in outcome.named.items()},
        "errors": outcome.errors,
        "missing": tracer.missing if tracer is not None else {},
        "detail": outcome.detail,
    }
    print(json.dumps(context, default=float))
    for message in outcome.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
