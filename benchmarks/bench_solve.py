"""Solve-phase benchmark: solves/sec with the factor cache vs the seed path.

A production solver factors once and solves *many* times (§V-B amortizes
the factorization over repeated right-hand sides, Fig 12).  The seed
solve path re-did all per-solve setup every call: it re-uploaded every
factor level, applied pivots row-by-row in Python, and scatter-updated
front-by-front.  This harness measures what the ``SolvePlan`` +
``DeviceFactorCache`` layer buys on the Maxwell system's assembly tree,
in *host wall-clock* per solve:

* **naive**  — the pre-PR streaming path (``engine="naive"``), timed
  fresh each round: every solve re-uploads and re-derives everything.
* **cold**   — first plan-driven solve, including building the plan and
  uploading the cache (the one-time cost a request server pays once).
* **warm**   — repeated solves against the warm plan + cache (the
  steady-state cost; reported as solves/sec).

Swept over 1, 8 and 64 right-hand sides.  Every round verifies the
parity contract: bitwise-identical solutions and identical simulated
launch records between the naive and plan-driven paths.

Usage::

    PYTHONPATH=src python benchmarks/bench_solve.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_solve.py --smoke    # CI smoke

Writes ``BENCH_solve.json`` (repo root) and ``results/bench_solve.txt``;
``--smoke`` writes their git-ignored ``.smoke`` variants instead.  Exits non-zero if parity fails, if the warm path fails the minimum
speedup over naive on any case, or (full mode) if the headline —
warm-cache repeated single-RHS solves — misses the 3x target.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _artifacts import write_artifacts  # noqa: E402
from repro.device import A100, Device  # noqa: E402
from repro.sparse.numeric.cpu_factor import multifrontal_factor_cpu  # noqa: E402
from repro.sparse.numeric.gpu_solve import multifrontal_solve_gpu  # noqa: E402
from repro.sparse.numeric.solve_plan import DeviceFactorCache, \
    SolvePlan  # noqa: E402
from repro.workloads.fronts import build_maxwell_workload  # noqa: E402

HEADLINE_NRHS = 1       # the acceptance case: repeated single-RHS solves
TARGET_SPEEDUP = 3.0    # full-mode warm-vs-naive target on the headline
MIN_SPEEDUP = 1.2       # every case, both modes: warm must beat naive


def _records(dev: Device):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.compute_ramp, r.cost.kernel_class)
            for r in dev.profiler.records]


def bench_case(factors, b: np.ndarray, reps: int,
               warm_per_rep: int = 3) -> dict:
    """Interleaved min-of-reps timing + full parity verification."""
    t_naive, t_cold, t_warm = [], [], []
    bitwise = costs = True
    uploads_warm = 0
    for _ in range(reps):
        dev_n = Device(A100())
        t0 = time.perf_counter()
        rn = multifrontal_solve_gpu(dev_n, factors, b, engine="naive")
        dev_n.synchronize()
        t_naive.append(time.perf_counter() - t0)

        dev_p = Device(A100())
        t0 = time.perf_counter()
        plan = SolvePlan(factors)
        cache = DeviceFactorCache(dev_p, factors, plan)
        rc = multifrontal_solve_gpu(dev_p, factors, b,
                                    plan=plan, cache=cache)
        dev_p.synchronize()
        t_cold.append(time.perf_counter() - t0)
        uploads_cold = cache.uploads

        rw = rc
        for _ in range(warm_per_rep):
            n0 = len(dev_p.profiler.records)
            t0 = time.perf_counter()
            rw = multifrontal_solve_gpu(dev_p, factors, b,
                                        plan=plan, cache=cache)
            dev_p.synchronize()
            t_warm.append(time.perf_counter() - t0)
        uploads_warm = cache.uploads - uploads_cold   # 0 when fully warm
        cache.free()

        bitwise = bitwise and np.array_equal(rn.x, rw.x) and \
            np.array_equal(rn.x, rc.x)
        costs = costs and _records(dev_n) == _records(dev_p)[n0:]
    tn, tc, tw = min(t_naive), min(t_cold), min(t_warm)
    return {
        "naive_s": round(tn, 5),
        "cold_s": round(tc, 5),
        "warm_s": round(tw, 5),
        "warm_solves_per_s": round(1.0 / tw, 1) if tw > 0 else float("inf"),
        "speedup_warm": round(tn / tw, 2) if tw > 0 else float("inf"),
        "amortization": round(tc / tw, 2) if tw > 0 else float("inf"),
        "warm_reuploads": int(uploads_warm),
        "bitwise_identical": bool(bitwise),
        "costs_identical": bool(costs),
    }


def run_sweep(mesh_n: int, nrhs_list: list[int], reps: int) -> list[dict]:
    wl = build_maxwell_workload(mesh_n)
    factors = multifrontal_factor_cpu(wl.a_perm, wl.symb)
    n = wl.symb.n
    rng = np.random.default_rng(42)
    out = []
    for nrhs in nrhs_list:
        b = rng.standard_normal((n, nrhs)) if nrhs > 1 else \
            rng.standard_normal(n)
        row = bench_case(factors, b, reps)
        row.update(mesh_n=mesh_n, n=n, nrhs=nrhs)
        print(f"  maxwell n={n:5d} nrhs={nrhs:3d}  "
              f"naive {row['naive_s'] * 1e3:8.2f}ms  "
              f"cold {row['cold_s'] * 1e3:8.2f}ms  "
              f"warm {row['warm_s'] * 1e3:8.2f}ms  "
              f"{row['speedup_warm']:5.2f}x  "
              f"({row['warm_solves_per_s']:.0f} solves/s)  "
              f"bitwise={row['bitwise_identical']} "
              f"costs={row['costs_identical']} "
              f"reuploads={row['warm_reuploads']}")
        out.append(row)
    return out


def report(rows: list[dict]) -> str:
    lines = ["solve phase: host time per solve, streamed naive path vs "
             "SolvePlan + DeviceFactorCache",
             "(Maxwell assembly tree; min over interleaved reps; parity = "
             "bitwise solutions + identical",
             "simulated launch records; warm = repeated solves against the "
             "resident factor cache)", ""]
    for r in rows:
        parity = "ok" if r["bitwise_identical"] and r["costs_identical"] \
            else "FAIL"
        lines.append(
            f"maxwell n={r['n']:5d} nrhs={r['nrhs']:3d}   "
            f"naive {r['naive_s'] * 1e3:8.2f}ms  "
            f"cold {r['cold_s'] * 1e3:8.2f}ms  "
            f"warm {r['warm_s'] * 1e3:8.2f}ms  "
            f"speedup {r['speedup_warm']:5.2f}x  "
            f"solves/s {r['warm_solves_per_s']:8.1f}  "
            f"parity={parity}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small CI workload: mesh_n=6, nrhs 1 and 8")
    ap.add_argument("--reps", type=int, default=None,
                    help="timing rounds per case (default 3; smoke 1)")
    ap.add_argument("--out", default=None,
                    help="JSON path (default BENCH_solve.json, or "
                         "BENCH_solve.smoke.json with --smoke)")
    args = ap.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        ap.error("--reps must be >= 1")
    reps = args.reps if args.reps is not None else (1 if args.smoke else 3)

    if args.smoke:
        rows = run_sweep(mesh_n=6, nrhs_list=[1, 8], reps=reps)
    else:
        rows = run_sweep(mesh_n=12, nrhs_list=[1, 8, 64], reps=reps)

    ok = all(r["bitwise_identical"] and r["costs_identical"] for r in rows)
    no_reuploads = all(r["warm_reuploads"] == 0 for r in rows)
    slow = [r for r in rows if r["speedup_warm"] < MIN_SPEEDUP]
    headline = next((r for r in rows if r["nrhs"] == HEADLINE_NRHS), None)

    payload = {"workloads": rows, "parity_ok": ok,
               "warm_zero_reuploads": no_reuploads,
               "headline": headline, "target_speedup": TARGET_SPEEDUP,
               "min_speedup": MIN_SPEEDUP}
    text = report(rows)
    print()
    print(text)
    write_artifacts("solve", args.smoke, text, payload, out=args.out)

    if not ok:
        print("FAIL: paths disagree (bitwise solutions or cost records)")
        return 1
    if not no_reuploads:
        print("FAIL: warm solves re-uploaded factor levels")
        return 1
    if slow:
        print(f"FAIL: warm cache below {MIN_SPEEDUP}x over naive on "
              f"{len(slow)} case(s)")
        return 1
    if not args.smoke and headline is not None and \
            headline["speedup_warm"] < TARGET_SPEEDUP:
        print(f"FAIL: headline warm speedup {headline['speedup_warm']}x "
              f"< {TARGET_SPEEDUP}x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
