"""Run one workload of the repository benchmark and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload maxwell-sweep --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), times its ops with tracing off and prints every end-to-end
metric.  ``--trace 1`` sets up once with tracing on, times every other op
traced and the rest untraced, and prints every per-layer metric plus the
layer table.  Every op's answer is checked; the process exits non-zero
when any check fails.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with the environment it ran in, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Thread-count variables pinned before numpy loads: every workload runs
#: on one thread with nothing contending.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def parse_args(argv, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": threads}


def host_peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def end_to_end(m, setup_times: list) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    from metrics import percentile
    done = m.attempted - m.failed
    values = {
        "setup_s": statistics.median(setup_times),
        "host_ops_per_s": done / m.host_busy_s,
        "host_op_p50_ms": 1e3 * percentile(m.host_s, 50),
        "host_op_p90_ms": 1e3 * percentile(m.host_s, 90),
        "sim_ops_per_s": done / m.sim_busy_s,
        "sim_p50_ms": 1e3 * percentile(m.sim_s, 50),
        "sim_p99_ms": 1e3 * percentile(m.sim_s, 99),
        "device_peak_mb": statistics.median(m.device_peaks) / 2 ** 20,
        "host_peak_mb": host_peak_mib(),
    }
    counts = {"setup_s": len(setup_times), "host_ops_per_s": done,
              "host_op_p50_ms": len(m.host_s),
              "host_op_p90_ms": len(m.host_s), "sim_ops_per_s": done,
              "sim_p50_ms": len(m.sim_s), "sim_p99_ms": len(m.sim_s),
              "device_peak_mb": len(m.device_peaks), "host_peak_mb": 1}
    return values, counts


def run_plain(wl, args) -> tuple:
    from workloads import Measure
    n = wl.n_ops(args.seconds)
    setup_times, st = [], None
    for _ in range(SETUP_REPS):
        if st is not None:
            wl.close(st)
            st = None
            gc.collect()
        t0 = time.perf_counter()
        st = wl.setup(args.seed, n)
        setup_times.append(time.perf_counter() - t0)
    m = Measure()
    wl.run(st, range(n), m)
    wl.close(st)
    values, counts = end_to_end(m, setup_times)
    return m, values, counts, {"setup_times": setup_times}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def per_layer(tr, m_tr, m_plain) -> tuple[dict, dict]:
    """Per-layer metrics of the traced ops, and the layer table."""
    from kernels import FAMILIES, family_figures, sim_seconds_by_family
    from metrics import percentile
    from repro.device import A100
    s = tr.summary()
    c, lay = tr.counters, m_tr.layer
    n = max(m_tr.attempted, 1)

    def ratio(a, b):
        return a / b if b else 0.0
    out = {
        "fem.assemble_s": tr.setup_time("fem.assemble"),
        "sparse.analyze_s": tr.setup_time("sparse.analyze"),
        "sparse.factor_s": s["incl_s"]["sparse.factor"] / n,
        "sparse.factor_self_s": s["self_s"]["sparse.factor"] / n,
        "sparse.solve_s": s["incl_s"]["sparse.solve"] / n,
        "sparse.solve_cold_s": s["incl_s"]["sparse.solve_cold"] / n,
        "sparse.refine_sweeps": ratio(c["refine_sweeps"],
                                      c["sparse_solves"]),
    }
    for fn in ("getrf", "getrs", "trsm", "gemm", "program"):
        out[f"batched.{fn}_s"] = s["top_incl_s"][f"batched.{fn}"] / n
    out["batched.self_s"] = s["layer_self_s"]["batched"] / n
    spec = A100()
    sim_fam = sim_seconds_by_family(m_tr.records)
    families = {}
    for f in FAMILIES:
        fig = families[f] = family_figures(
            launches=c[f"launches.{f}"], flops=c[f"flops.{f}"],
            nbytes=c[f"bytes.{f}"], sim_s=sim_fam.get(f, 0.0),
            body_s=s["self_s"][f"kernel.{f}"],
            peak_flops=spec.peak_flops_fp64, mem_bandwidth=spec.mem_bandwidth)
        for k in ("launches", "body_s", "gflop", "sim_s"):
            out[f"kernel.{f}.{k}"] = fig[k] / n
        out[f"kernel.{f}.host_gflops"] = fig["host_gflops"]
        out[f"kernel.{f}.roofline_frac"] = fig["roofline_frac"]
    launches = sum(v for k, v in c.items() if k.startswith("launches."))
    out.update({
        "device.launches": launches / n,
        "device.launch_overhead_s": s["self_s"]["device.launch"] / n,
        "device.h2d_mb": c["h2d_bytes"] / 2 ** 20 / n,
        "device.d2h_mb": c["d2h_bytes"] / 2 ** 20 / n,
        "device.transfer_sim_s": lay["transfer_sim_s"] / n,
        "device.sync_wait_sim_s": lay["sync_wait_sim_s"] / n,
        "device.profiler_records": m_tr.profiler_records,
        "serve.self_s": s["layer_self_s"]["serve"] / n,
        "serve.dispatches": lay["dispatches"] / n,
        "serve.coalescing_ratio": ratio(lay["coalesced_requests"],
                                        lay["dispatches"]),
        "serve.mean_occupancy": ratio(lay["occupancy_total"],
                                      lay["dispatches"]),
        "serve.wait_sim_p99_ms": (1e3 * percentile(m_tr.waits, 99)
                                  if m_tr.waits else 0.0),
        "serve.plan_cache_hit_frac": ratio(
            lay["plan_hits"], lay["plan_hits"] + lay["plan_misses"]),
        "serve.compiled_dispatch_frac": ratio(lay["compiled_dispatches"],
                                              lay["getrf_dispatches"]),
        "serve.retries": lay["retries"],
        "trace.overhead_frac": 1.0 - ratio(
            m_tr.attempted / m_tr.host_busy_s,
            m_plain.attempted / m_plain.host_busy_s),
        "trace.attributed_frac": 1.0 - ratio(s["layer_self_s"]["bench"],
                                             s["op_s"]),
    })
    table = {"op_s": s["op_s"] / n,
             "self_s": {k: v / n for k, v in s["layer_self_s"].items()},
             "families": families, "ops": n}
    return out, table


def run_traced(wl, args) -> tuple:
    from spans import Tracer
    from workloads import Measure
    n = max(2, wl.n_ops(args.seconds))
    tr = Tracer()
    tr.install()
    try:
        st = wl.setup(args.seed, n)
    finally:
        tr.uninstall()
    tr.counters.clear()             # keep only the traced ops' counts
    # alternate untraced and traced ops, so drift in machine speed
    # biases neither side of trace.overhead_frac
    m_plain, m_tr = Measure(), Measure()
    for k in range(n):
        if k % 2 == 0:
            wl.run(st, range(k, k + 1), m_plain)
            continue
        tr.install()
        try:
            wl.run(st, range(k, k + 1), m_tr, tr)
        finally:
            tr.uninstall()
    wl.close(st)
    values, table = per_layer(tr, m_tr, m_plain)
    m_all = Measure(attempted=m_plain.attempted + m_tr.attempted,
                    failed=m_plain.failed + m_tr.failed,
                    errors=m_plain.errors + m_tr.errors,
                    slo_missed=m_plain.slo_missed + m_tr.slo_missed)
    return m_all, values, table, tr


# ----------------------------------------------------------------------
def print_table(title: str, rows: list) -> None:
    print(title)
    for name, value, unit, clock, note in rows:
        print(f"  {name:34s} {value:16.6f} {unit:8s} {clock:5s} {note}")


def main(argv=None) -> int:
    threads = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro        # the program under test, from this checkout
    except ImportError as exc:
        print(f"perfbench: the program is not importable from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(
            ROOT / "src"):
        print(f"perfbench: repro was imported from {repro.__file__}, not "
              f"from this checkout's src/", file=sys.stderr)
        return 2
    from metrics import END_TO_END, PER_LAYER, ATTRIBUTED_MIN, \
        tail_supported
    from workloads import WORKLOADS
    args = parse_args(argv, sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]()
    env = environment(threads)
    t_start = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"sha={env['git_sha'][:12]} cpu={env['cpu']!r} "
          f"nproc={env['nproc']} threads=1")
    if args.trace:
        m, values, table, tr = run_traced(wl, args)
        defs = PER_LAYER
        rows = [(k, values[k], *defs[k][:2], "") for k in defs]
        print_table("per-layer metrics (per op unless noted in README):",
                    rows)
        print(f"layer self time per op (traced op time "
              f"{table['op_s'] * 1e3:.3f} ms):")
        for layer, v in sorted(table["self_s"].items(),
                               key=lambda kv: -kv[1]):
            share = v / table["op_s"] if table["op_s"] else 0.0
            print(f"  {layer:10s} {v * 1e3:12.3f} ms  {share:7.1%}")
        print("kernel families (totals over traced ops; bytes as computed "
              "by the cost model):")
        print(f"  {'family':12s} {'launches':>9s} {'GFLOP':>10s} "
              f"{'MiB':>10s} {'flop/B':>7s} {'sim s':>10s} "
              f"{'roof(sim)':>9s} {'body s':>9s} {'GF/s(host)':>10s}")
        for f, g in table["families"].items():
            print(f"  {f:12s} {g['launches']:9d} {g['gflop']:10.4f} "
                  f"{g['computed_mb']:10.2f} {g['intensity']:7.2f} "
                  f"{g['sim_s']:10.6f} {g['roofline_frac']:9.4f} "
                  f"{g['body_s']:9.4f} {g['host_gflops']:10.3f}")
        ok = values["trace.attributed_frac"] >= ATTRIBUTED_MIN
        print(f"  layers account for {values['trace.attributed_frac']:.1%}"
              f" of traced op time (stated minimum {ATTRIBUTED_MIN:.0%}): "
              f"{'ok' if ok else 'BELOW'}")
        result["layer_table"] = table
    else:
        m, values, counts, extra = run_plain(wl, args)
        defs = {k: v[:2] for k, v in END_TO_END.items()}
        rows = []
        for k in defs:
            note = f"n={counts[k]}"
            if k.endswith(("p90_ms", "p99_ms")):
                q = 90 if k.endswith("p90_ms") else 99
                if not tail_supported(counts[k], q):
                    note += f" (p{q} has fewer than 10 samples beyond it)"
            rows.append((k, values[k], *defs[k], note))
        print_table("end-to-end metrics:", rows)
        result.update(extra)
        result["samples"] = {"host_op_s": m.host_s, "sim_op_s":
                             m.sim_s if len(m.sim_s) <= 5000 else None}
    slo = m.slo_missed / m.attempted if m.attempted else 0.0
    print(f"checks: attempted={m.attempted} failed={m.failed} "
          f"failed_frac={m.failed / max(m.attempted, 1):.6f} "
          f"slo_miss_frac={slo:.6f} tolerance=1e-12 "
          f"wall={time.perf_counter() - t_start:.1f}s")
    for err in m.errors:
        print(f"  FAILED {err}")
    correct = m.failed == 0 and m.attempted > 0
    result.update(correct=correct, attempted=m.attempted, failed=m.failed,
                  errors=m.errors, slo_missed=m.slo_missed, metrics=values)
    OUT.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-{args.seconds:g}s-"
            f"trace{args.trace}")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        tr.dump(OUT / f"{stem}-spans.json")
    line = {"correct": correct, "attempted": m.attempted, "failed": m.failed,
            "metrics": {k: {"value": float(values[k]), "unit": defs[k][0]}
                        for k in defs}}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
