"""Host wall-clock benchmark: bucketed engine vs. naive per-matrix loops.

The simulated-device numbers (Figs 6/7/10) are engine-invariant by
construction — the bucketed engine replays the exact same ``KernelCost``
sequence.  What the engine changes is *host* time: how long the launch
bodies take to run on the machine driving the simulator.  This harness
measures that, on the two workloads the engine was built for:

* **Fig 10** — batches of 500 square matrices with sizes ~ U[1, max],
  swept over ``max``; the paper's synthetic irregular-LU workload.
* **Fig 13** — the per-level front batches of the Maxwell problem's
  assembly tree; deep levels are huge batches of small, shape-clustered
  fronts (the multifrontal case the bucketing exploits).

Timing protocol: engines are timed *interleaved* (naive, bucketed,
naive, bucketed, …) and the per-engine minimum over ``--reps`` rounds is
reported, which suppresses the machine's clock-frequency drift.  Every
round also verifies bitwise-identical factors/pivots/info and identical
simulated launch records between the engines.

``--repeat N`` switches to a *steady-state amortized* protocol on the
Fig 10 sweep: after an untimed warmup, each engine factors ``N``
consecutive fresh-valued batches of the same shapes and the amortized
per-iteration time (upload + factor + synchronize) is reported — plus a
**compiled** column, where a :class:`WorkloadProgram` is compiled once
and replayed ``N`` times.  This is the regime a time-stepping or
serving caller lives in; one-shot timings (the default mode) charge the
bucketed engine its planning cost on every call and the compiled path
its full compilation.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_wallclock.py --repeat 10

Writes ``BENCH_wallclock.json`` (repo root) and
``results/bench_wallclock.txt``; ``--smoke`` writes their git-ignored
``.smoke`` variants instead.  Exits non-zero if the bucketed engine
is slower than the naive loop on any Fig 10 round, or (full mode) if the
headline 500-matrix mixed-size batch misses the 3x target.  The
``--repeat`` mode gates only on parity.
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
from repro.batched import BatchEngine, IrrBatch, irr_getrf  # noqa: E402
from repro.batched.program import compile_workload  # noqa: E402
from repro.device import A100, Device  # noqa: E402
from repro.workloads.fronts import build_maxwell_workload, \
    level_front_dims, synthetic_front_batch  # noqa: E402
from repro.workloads.random_batch import random_square_batch  # noqa: E402

HEADLINE = ("fig10", 500, 128)  # the acceptance workload


def _records(dev: Device):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.compute_ramp, r.cost.kernel_class)
            for r in dev.profiler.records]


def _run_once(mats: list[np.ndarray], engine: str):
    work = [m.copy() for m in mats]
    dev = Device(A100())
    batch = IrrBatch.from_host(dev, work)
    t0 = time.perf_counter()
    piv = irr_getrf(dev, batch, engine=engine)
    dev.synchronize()
    dt = time.perf_counter() - t0
    return dt, work, piv, _records(dev)


def bench_case(mats: list[np.ndarray], reps: int) -> dict:
    """Interleaved min-of-reps timing + full parity verification."""
    t_naive, t_bucketed = [], []
    bitwise = costs = True
    ref = None
    for _ in range(reps):
        dn, fn, pn, rn = _run_once(mats, "naive")
        db, fb, pb, rb = _run_once(mats, "bucketed")
        t_naive.append(dn)
        t_bucketed.append(db)
        bitwise = bitwise and \
            all(np.array_equal(a, b) for a, b in zip(fn, fb)) and \
            all(np.array_equal(a, b) for a, b in zip(pn.ipiv, pb.ipiv)) and \
            np.array_equal(pn.info, pb.info)
        costs = costs and rn == rb
        if ref is None:
            ref = rn
    tn, tb = min(t_naive), min(t_bucketed)
    return {
        "naive_s": round(tn, 4),
        "bucketed_s": round(tb, 4),
        "speedup": round(tn / tb, 2) if tb > 0 else float("inf"),
        "bitwise_identical": bool(bitwise),
        "costs_identical": bool(costs),
        "launches": len(ref or ()),
    }


def bench_case_repeat(mats: list[np.ndarray], repeat: int) -> dict:
    """Steady-state amortized timing: warmup, then ``repeat`` fresh-
    valued iterations per engine (upload + factor + synchronize), plus
    a compile-once/replay-N compiled column."""
    shapes = [m.shape for m in mats]
    rng = np.random.default_rng(5)
    payloads = [[rng.standard_normal(s) for s in shapes]
                for _ in range(repeat)]

    def amortized(engine):
        dev = Device(A100())

        def one(mats_it):
            batch = IrrBatch.from_host(dev, [m.copy() for m in mats_it])
            irr_getrf(dev, batch, engine=engine)
            dev.synchronize()
            batch.free()

        one(mats)                               # untimed warmup
        t0 = time.perf_counter()
        for p in payloads:
            one(p)
        return (time.perf_counter() - t0) / repeat

    naive_s = amortized("naive")
    bucketed_eng = BatchEngine("bucketed")      # plan cache kept warm
    bucketed_s = amortized(bucketed_eng)

    dev_c = Device(A100())
    t0 = time.perf_counter()
    prog = compile_workload(dev_c, "getrf", shapes)
    compile_s = time.perf_counter() - t0
    prog.run(a=mats, download=False)            # warmup
    t0 = time.perf_counter()
    for p in payloads:
        prog.run(a=p, download=False)
    compiled_s = (time.perf_counter() - t0) / repeat

    # parity: replay the last payload on both sides, compare bitwise
    res = prog.run(a=payloads[-1])
    dev_b = Device(A100())
    batch = IrrBatch.from_host(dev_b, [m.copy() for m in payloads[-1]])
    piv = irr_getrf(dev_b, batch, engine=bucketed_eng)
    ref = batch.to_host()
    bitwise = \
        all(np.array_equal(a, b) for a, b in zip(ref, res.factors)) and \
        all(np.array_equal(a, b) for a, b in zip(piv.ipiv, res.ipiv)) and \
        np.array_equal(piv.info, res.info)
    batch.free()
    prog.free()
    return {
        "repeat": repeat,
        "naive_s_per_iter": round(naive_s, 4),
        "bucketed_s_per_iter": round(bucketed_s, 4),
        "compiled_s_per_iter": round(compiled_s, 4),
        "compile_s": round(compile_s, 4),
        "bucketed_speedup": round(naive_s / bucketed_s, 2),
        "compiled_speedup": round(naive_s / compiled_s, 2),
        "bitwise_identical": bool(bitwise),
    }


def run_fig10_repeat(batch_size: int, max_sizes: list[int],
                     repeat: int) -> list[dict]:
    out = []
    for mx in max_sizes:
        mats = random_square_batch(batch_size, mx, seed=17)
        row = bench_case_repeat(mats, repeat)
        row.update(workload="fig10", batch_size=batch_size, max_size=mx)
        print(f"  fig10  batch={batch_size:4d} max={mx:4d}  x{repeat}  "
              f"naive {row['naive_s_per_iter']:7.3f}s  "
              f"bucketed {row['bucketed_s_per_iter']:7.3f}s "
              f"({row['bucketed_speedup']:.2f}x)  "
              f"compiled {row['compiled_s_per_iter']:7.3f}s "
              f"({row['compiled_speedup']:.2f}x)  "
              f"bitwise={row['bitwise_identical']}")
        out.append(row)
    return out


def run_fig10(batch_size: int, max_sizes: list[int], reps: int) -> list[dict]:
    out = []
    for mx in max_sizes:
        mats = random_square_batch(batch_size, mx, seed=17)
        row = bench_case(mats, reps)
        row.update(workload="fig10", batch_size=batch_size, max_size=mx)
        print(f"  fig10  batch={batch_size:4d} max={mx:4d}  "
              f"naive {row['naive_s']:7.3f}s  bucketed {row['bucketed_s']:7.3f}s  "
              f"{row['speedup']:5.2f}x  bitwise={row['bitwise_identical']} "
              f"costs={row['costs_identical']}")
        out.append(row)
    return out


def run_fig13(mesh_n: int, reps: int, min_batch: int = 8) -> list[dict]:
    wl = build_maxwell_workload(mesh_n)
    out = []
    for lvl, dims in enumerate(level_front_dims(wl.symb)):
        if len(dims) < min_batch:
            continue  # shallow levels: a handful of large fronts
        mats = synthetic_front_batch(dims, seed=23 + lvl)
        row = bench_case(mats, reps)
        sizes = [s + u for s, u in dims]
        row.update(workload="fig13", level=lvl, batch_size=len(dims),
                   mean_front=round(float(np.mean(sizes)), 1),
                   max_front=int(max(sizes)))
        print(f"  fig13  level={lvl} batch={len(dims):4d} "
              f"mean_front={row['mean_front']:6.1f}  "
              f"naive {row['naive_s']:7.3f}s  bucketed {row['bucketed_s']:7.3f}s  "
              f"{row['speedup']:5.2f}x  bitwise={row['bitwise_identical']} "
              f"costs={row['costs_identical']}")
        out.append(row)
    return out


def report(rows: list[dict]) -> str:
    if rows and "repeat" in rows[0]:
        lines = ["wall-clock: irr_getrf steady-state amortized host time "
                 f"per iteration (x{rows[0]['repeat']} after warmup)",
                 "(upload + factor + synchronize; compiled = one program "
                 "compiled, then replayed)", ""]
        for r in rows:
            tag = f"fig10 batch={r['batch_size']} max={r['max_size']}"
            lines.append(
                f"{tag:44s} naive {r['naive_s_per_iter']:8.3f}s  "
                f"bucketed {r['bucketed_s_per_iter']:8.3f}s "
                f"({r['bucketed_speedup']:5.2f}x)  "
                f"compiled {r['compiled_s_per_iter']:8.3f}s "
                f"({r['compiled_speedup']:5.2f}x, "
                f"compile {r['compile_s']:.3f}s)  "
                f"parity={'ok' if r['bitwise_identical'] else 'FAIL'}")
        return "\n".join(lines)
    lines = ["wall-clock: irr_getrf host time, naive loop vs bucketed engine",
             "(min over interleaved reps; parity = bitwise factors/pivots/info"
             " + identical simulated launch records)", ""]
    for r in rows:
        tag = (f"fig10 batch={r['batch_size']} max={r['max_size']}"
               if r["workload"] == "fig10" else
               f"fig13 level={r['level']} batch={r['batch_size']} "
               f"mean_front={r['mean_front']}")
        lines.append(f"{tag:44s} naive {r['naive_s']:8.3f}s  "
                     f"bucketed {r['bucketed_s']:8.3f}s  "
                     f"speedup {r['speedup']:5.2f}x  "
                     f"parity={'ok' if r['bitwise_identical'] and r['costs_identical'] else 'FAIL'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small CI workload: one Fig 10 case, one mesh level")
    ap.add_argument("--reps", type=int, default=None,
                    help="timing rounds per case (default 3; smoke 1)")
    ap.add_argument("--repeat", type=int, default=None, metavar="N",
                    help="steady-state mode: warm up, then amortize over "
                         "N consecutive fresh-valued iterations per "
                         "engine (adds a compiled replay column; Fig 10 "
                         "sweep only)")
    ap.add_argument("--out", default=None,
                    help="JSON path (default BENCH_wallclock.json, or "
                         "BENCH_wallclock.smoke.json with --smoke)")
    args = ap.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        ap.error("--reps must be >= 1")
    if args.repeat is not None and args.repeat < 1:
        ap.error("--repeat must be >= 1")
    reps = args.reps if args.reps is not None else (1 if args.smoke else 3)

    if args.repeat is not None:
        if args.smoke:
            rows = run_fig10_repeat(batch_size=150, max_sizes=[48],
                                    repeat=args.repeat)
        else:
            rows = run_fig10_repeat(batch_size=500,
                                    max_sizes=[32, 64, 128, 256, 512],
                                    repeat=args.repeat)
        ok = all(r["bitwise_identical"] for r in rows)
        payload = {"workloads": rows, "parity_ok": ok,
                   "mode": "steady_state", "repeat": args.repeat}
        text = report(rows)
        print()
        print(text)
        write_artifacts("wallclock", args.smoke, text, payload,
                        out=args.out)
        if not ok:
            print("FAIL: compiled replay lost bitwise parity")
            return 1
        return 0

    rows: list[dict] = []
    if args.smoke:
        rows += run_fig10(batch_size=150, max_sizes=[48], reps=reps)
        rows += run_fig13(mesh_n=6, reps=reps)
    else:
        rows += run_fig10(batch_size=500,
                          max_sizes=[32, 64, 128, 256, 512], reps=reps)
        rows += run_fig13(mesh_n=12, reps=reps)

    ok = all(r["bitwise_identical"] and r["costs_identical"] for r in rows)
    fig10 = [r for r in rows if r["workload"] == "fig10"]
    regressed = [r for r in fig10 if r["speedup"] < 1.0]
    headline = next((r for r in fig10
                     if (r["workload"], r["batch_size"], r["max_size"])
                     == HEADLINE), None)

    payload = {"workloads": rows, "parity_ok": ok,
               "headline": headline, "target_speedup": 3.0}
    text = report(rows)
    print()
    print(text)
    write_artifacts("wallclock", args.smoke, text, payload, out=args.out)

    if not ok:
        print("FAIL: engines disagree (bitwise or cost records)")
        return 1
    if regressed:
        print(f"FAIL: bucketed slower than naive on {len(regressed)} "
              "fig10 case(s)")
        return 1
    if headline is not None and headline["speedup"] < 3.0:
        print(f"FAIL: headline speedup {headline['speedup']}x < 3x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
