"""Metric names, units and clocks, and the summary statistics.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark reports,
in the order ``BENCHMARK.json`` lists them.  Clocks: ``sim`` is simulated
device seconds, ``host`` is wall-clock on the machine running the
benchmark, ``count`` is neither.
"""

from __future__ import annotations

import statistics

import numpy as np

from kernels import FAMILIES

#: name -> (unit, clock, better)
END_TO_END = {
    "setup_s": ("s", "host", "lower"),
    "host_ops_per_s": ("1/s", "host", "higher"),
    "host_op_p50_ms": ("ms", "host", "lower"),
    "host_op_p90_ms": ("ms", "host", "lower"),
    "sim_ops_per_s": ("1/s", "sim", "higher"),
    "sim_p50_ms": ("ms", "sim", "lower"),
    "sim_p99_ms": ("ms", "sim", "lower"),
    "device_peak_mb": ("MiB", "sim", "lower"),
    "host_peak_mb": ("MiB", "host", "lower"),
}

_KERNEL = {"launches": ("count", "count", "lower"),
           "body_s": ("s", "host", "lower"),
           "gflop": ("GFLOP", "count", "lower"),
           "host_gflops": ("GFLOP/s", "host", "higher"),
           "sim_s": ("s", "sim", "lower"),
           "roofline_frac": ("frac", "sim", "higher")}

#: name -> (unit, clock, better); times and counts are per op unless the
#: benchmark's README says otherwise.
PER_LAYER = {
    "fem.assemble_s": ("s", "host", "lower"),
    "sparse.analyze_s": ("s", "host", "lower"),
    "sparse.factor_s": ("s", "host", "lower"),
    "sparse.factor_self_s": ("s", "host", "lower"),
    "sparse.solve_s": ("s", "host", "lower"),
    "sparse.solve_cold_s": ("s", "host", "lower"),
    "sparse.refine_sweeps": ("count", "count", "lower"),
    "batched.getrf_s": ("s", "host", "lower"),
    "batched.getrs_s": ("s", "host", "lower"),
    "batched.trsm_s": ("s", "host", "lower"),
    "batched.gemm_s": ("s", "host", "lower"),
    "batched.program_s": ("s", "host", "lower"),
    "batched.self_s": ("s", "host", "lower"),
    **{f"kernel.{f}.{k}": v for f in FAMILIES for k, v in _KERNEL.items()},
    "device.launches": ("count", "count", "lower"),
    "device.launch_overhead_s": ("s", "host", "lower"),
    "device.h2d_mb": ("MiB", "count", "lower"),
    "device.d2h_mb": ("MiB", "count", "lower"),
    "device.transfer_sim_s": ("s", "sim", "lower"),
    "device.sync_wait_sim_s": ("s", "sim", "lower"),
    "device.profiler_records": ("count", "count", "lower"),
    "serve.self_s": ("s", "host", "lower"),
    "serve.dispatches": ("count", "count", "lower"),
    "serve.coalescing_ratio": ("ratio", "count", "higher"),
    "serve.mean_occupancy": ("frac", "count", "higher"),
    "serve.wait_sim_p99_ms": ("ms", "sim", "lower"),
    "serve.plan_cache_hit_frac": ("frac", "count", "higher"),
    "serve.compiled_dispatch_frac": ("frac", "count", "higher"),
    "serve.retries": ("count", "count", "lower"),
    "trace.overhead_frac": ("frac", "host", "lower"),
    "trace.attributed_frac": ("frac", "host", "higher"),
}

#: Least share of traced op time that layer self times must account
#: for; the rest is the harness's own time inside an op.
ATTRIBUTED_MIN = 0.9


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_supported(n: int, q: float) -> bool:
    """Whether percentile ``q`` of ``n`` samples has at least ten
    samples beyond it."""
    return n * (100 - q) / 100 >= 10


def spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")
