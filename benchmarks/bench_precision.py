"""Mixed-precision benchmark: FP32 factors + FP64 refinement vs native FP64.

``precision="fp32"`` halves every factor byte and doubles the modeled
arithmetic peak, and the half-sized factors double the effective
residency of a budgeted :class:`DeviceFactorCache`.  The solve phase
pays for the discount with FP64 iterative refinement against the
original matrix — so the interesting question is end-to-end: does the
refined mixed path beat native FP64 *after* the refinement sweeps are
paid for, at FP64 accuracy?  This harness measures both serving layers
in *simulated device seconds*:

* **warm sparse solves** — one factored system, repeated solves under a
  device budget of 0.6x the FP64 factor bytes: the FP64 cache evicts
  and re-streams levels every solve, the FP32 cache (0.5x the bytes)
  stays fully resident.  Gate: **>= 1.8x** solves/sec.
* **served dense traffic** — recurring large-front ``factor_solve``
  rounds through :class:`SolverService` with the hot signature
  compiled (arena-packed transfers), ``precision="fp32"`` per request
  vs the FP64 default.  Steady-state rounds are transfer-dominated, so
  halving the payload bytes shows up directly as throughput; the FP64
  refinement finisher runs against the program's still-resident
  reduced factors.  Gate: **>= 1.5x** requests/sec.

Every solution from every mode is checked against the FP64 backward
error target (``REFINE_TARGET``) — the speedups only count because the
answers are full-precision.  A final pathological case (a squared 1-D
Laplacian, condition number ~1e9) verifies the safety net: the mixed
solve must take the logged FP64 fallback and return exactly the native
FP64 answer.

Usage::

    PYTHONPATH=src python benchmarks/bench_precision.py            # full run
    PYTHONPATH=src python benchmarks/bench_precision.py --smoke    # CI smoke

Writes ``BENCH_precision.json`` (repo root) and
``results/bench_precision.txt``; ``--smoke`` writes their git-ignored
``.smoke`` variants instead.  Exits non-zero if any accuracy check,
the fallback check or a speedup gate fails.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np
import scipy.sparse as sp

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _artifacts import write_artifacts  # noqa: E402
from repro.device import A100, Device  # noqa: E402
from repro.serve import CoalescingPolicy, SolverService  # noqa: E402
from repro.sparse import SparseLU  # noqa: E402
from repro.sparse.numeric.solve_plan import SolvePlan  # noqa: E402
from repro.sparse.solver import REFINE_TARGET  # noqa: E402

WARM_TARGET = 1.8     # warm budgeted solves/sec, fp32 over fp64
SERVE_TARGET = 1.5    # served requests/sec, fp32 over fp64
BUDGET_FRACTION = 0.6  # of the FP64 resident factor bytes


def grid2d(nx, ny, seed=0, diag=4.0):
    """Unsymmetric-valued 5-point grid operator (tests/sparse idiom)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            k = i * ny + j
            rows.append(k)
            cols.append(k)
            vals.append(diag + rng.random())
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(k)
                    cols.append(ii * ny + jj)
                    vals.append(-1.0 - 0.3 * rng.random())
    n = nx * ny
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def backward_error(a, x, b):
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


# ----------------------------------------------------------------------
# warm budgeted sparse solves
# ----------------------------------------------------------------------
def bench_warm(nx: int, reps: int) -> dict:
    a = grid2d(nx, nx)
    n = a.shape[0]
    b = np.random.default_rng(7).standard_normal(n)

    # The budget lever: 0.6x the FP64 resident bytes.  FP64 must evict
    # and re-stream every solve; FP32 (0.5x) stays fully resident.
    probe = SparseLU(a).factor()
    budget = int(BUDGET_FRACTION * SolvePlan(probe.factors).total_nbytes())

    out = {"n": n, "budget_bytes": budget, "reps": reps}
    for prec in ("fp64", "fp32"):
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev, precision=prec)
        s.solve(b, device=dev, memory_budget=budget)   # cold: build cache
        sim0 = dev.synchronize()
        errs = []
        for _ in range(reps):
            x, info = s.solve(b, device=dev, memory_budget=budget)
            errs.append(backward_error(a, x, b))
        sim = dev.synchronize() - sim0
        cache = s.solve_cache
        out[prec] = {
            "sim_s_per_solve": sim / reps,
            "solves_per_sim_s": reps / sim,
            "max_backward_error": max(errs),
            "resident_bytes": cache.resident_nbytes if cache else 0,
        }
    out["speedup"] = out["fp32"]["solves_per_sim_s"] / \
        out["fp64"]["solves_per_sim_s"]
    out["accuracy_ok"] = all(out[p]["max_backward_error"] <= REFINE_TARGET
                             for p in ("fp64", "fp32"))
    return out


# ----------------------------------------------------------------------
# served dense traffic
# ----------------------------------------------------------------------
def bench_serve(order: int, batch: int, rounds: int,
                warmup: int = 3) -> dict:
    """Recurring large-front ``factor_solve`` rounds through the hot
    compiled path — the transfer-dominated regime where the service
    spends its time moving payload bytes, which ``precision="fp32"``
    halves.  Steady-state rounds (program compiled, arena resident) are
    timed; the warm-up rounds cover the bucketed cold starts and the
    compile itself."""
    sizes = [order] * batch
    out = {"order": order, "batch": batch, "rounds": rounds,
           "warmup": warmup}
    for prec in ("fp64", "fp32"):
        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(
            max_batch=max(64, batch), max_queue=max(256, batch),
            compile_hot=True, hot_threshold=2), start=False)
        kw = {} if prec == "fp64" else {"precision": "fp32"}
        sims, errs = [], []
        for rnd in range(rounds):
            rng = np.random.default_rng(rnd % 3)
            mats = [rng.standard_normal((n, n)) + n * np.eye(n)
                    for n in sizes]
            rhss = [rng.standard_normal(n) for n in sizes]
            futs = [svc.submit_factor_solve(a, b, **kw)
                    for a, b in zip(mats, rhss)]
            sim0 = dev.synchronize()
            svc.run_once()
            sims.append(dev.synchronize() - sim0)
            for a, b, f in zip(mats, rhss, futs):
                x, _ = f.result(0)
                errs.append(backward_error(a, x, b))
        snap = svc.stats.snapshot()
        svc.close()
        steady = float(np.mean(sims[warmup:]))
        out[prec] = {
            "sim_s_per_round": steady,
            "requests_per_sim_s": batch / steady,
            "max_backward_error": max(errs),
            "refine_passes": snap["refine_passes"],
            "precision_fallbacks": snap["precision_fallbacks"],
            "programs_compiled": snap["programs_compiled"],
        }
    out["speedup"] = out["fp32"]["requests_per_sim_s"] / \
        out["fp64"]["requests_per_sim_s"]
    out["accuracy_ok"] = all(out[p]["max_backward_error"] <= REFINE_TARGET
                             for p in ("fp64", "fp32"))
    return out


# ----------------------------------------------------------------------
# pathological fallback
# ----------------------------------------------------------------------
def bench_fallback(n: int = 120) -> dict:
    L = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n),
                 format="csr")
    a = sp.csr_matrix(L @ L)              # kappa ~ 1e9: defeats FP32
    b = np.random.default_rng(3).standard_normal(n)
    s = SparseLU(a).factor(precision="fp32")
    x, info = s.solve(b)
    ref, ref_info = SparseLU(a).factor().solve(b)
    logged = info.recovery is not None and any(
        e.action == "precision-fallback" for e in info.recovery.events)
    return {
        "n": n,
        "fallback_taken": bool(info.fallback),
        "fallback_logged": bool(logged),
        "gmres_cycles": int(info.gmres_cycles),
        "matches_fp64_bitwise": bool(np.array_equal(x, ref)),
        "final_residual": info.final_residual,
        "fp64_residual": ref_info.final_residual,
        "ok": bool(info.fallback and logged and np.array_equal(x, ref)),
    }


# ----------------------------------------------------------------------
def report(warm: dict, serve: dict, fb: dict) -> str:
    lines = [
        "mixed precision: FP32 factors + FP64 iterative refinement vs "
        "native FP64",
        "(simulated device seconds; every solution checked against the "
        f"FP64 backward-error target {REFINE_TARGET:g})", "",
        f"warm budgeted solves  n={warm['n']}  budget="
        f"{warm['budget_bytes']} B ({BUDGET_FRACTION:.0%} of FP64 factors)",
    ]
    for p in ("fp64", "fp32"):
        r = warm[p]
        lines.append(
            f"  {p}:  {r['sim_s_per_solve'] * 1e3:8.3f} sim-ms/solve  "
            f"{r['solves_per_sim_s']:8.1f} solves/s  "
            f"resident {r['resident_bytes']:>9d} B  "
            f"max err {r['max_backward_error']:.2e}")
    lines.append(f"  speedup {warm['speedup']:.2f}x  "
                 f"(gate >= {WARM_TARGET}x)")
    lines.append("")
    lines.append(f"served dense traffic  {serve['batch']} x order "
                 f"{serve['order']} factor_solve per round, "
                 f"{serve['rounds']} rounds, hot compiled path "
                 f"(steady state after {serve['warmup']} warm-up rounds)")
    for p in ("fp64", "fp32"):
        r = serve[p]
        lines.append(
            f"  {p}:  {r['sim_s_per_round'] * 1e3:8.2f} sim-ms/round  "
            f"{r['requests_per_sim_s']:8.1f} req/s  "
            f"refine passes {r['refine_passes']:4d}  "
            f"fallbacks {r['precision_fallbacks']}  "
            f"max err {r['max_backward_error']:.2e}")
    lines.append(f"  speedup {serve['speedup']:.2f}x  "
                 f"(gate >= {SERVE_TARGET}x)")
    lines.append("")
    lines.append(
        f"pathological fallback  L^2 n={fb['n']}:  "
        f"gmres cycles {fb['gmres_cycles']}, fallback="
        f"{fb['fallback_taken']}, logged={fb['fallback_logged']}, "
        f"bitwise FP64 match={fb['matches_fp64_bitwise']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small CI workload")
    ap.add_argument("--out", default=None,
                    help="JSON path (default BENCH_precision.json, or "
                         "BENCH_precision.smoke.json with --smoke)")
    args = ap.parse_args(argv)

    if args.smoke:
        warm = bench_warm(nx=20, reps=3)
        serve = bench_serve(order=768, batch=6, rounds=5)
    else:
        warm = bench_warm(nx=24, reps=10)
        serve = bench_serve(order=1024, batch=8, rounds=6)
    fb = bench_fallback()

    payload = {"warm": warm, "serve": serve, "fallback": fb,
               "warm_target": WARM_TARGET, "serve_target": SERVE_TARGET,
               "refine_target": REFINE_TARGET}
    text = report(warm, serve, fb)
    print(text)
    write_artifacts("precision", args.smoke, text, payload, out=args.out)

    rc = 0
    if not (warm["accuracy_ok"] and serve["accuracy_ok"]):
        print("FAIL: a solution missed the FP64 backward-error target")
        rc = 1
    if not fb["ok"]:
        print("FAIL: pathological case did not take the logged FP64 "
              "fallback / match native FP64")
        rc = 1
    if warm["speedup"] < WARM_TARGET:
        print(f"FAIL: warm-solve speedup {warm['speedup']:.2f}x < "
              f"{WARM_TARGET}x")
        rc = 1
    if serve["speedup"] < SERVE_TARGET:
        print(f"FAIL: serve speedup {serve['speedup']:.2f}x < "
              f"{SERVE_TARGET}x")
        rc = 1
    if rc == 0:
        print("\nPASS")
    return rc


if __name__ == "__main__":
    sys.exit(main())
