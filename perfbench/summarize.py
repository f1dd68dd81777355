"""Run the benchmark over several seeds and summarize its steadiness.

Usage, from the root of a checkout::

    python3 perfbench/summarize.py --seeds 1-10
    python3 perfbench/summarize.py --workloads serve-mixed --seeds 1-5 \\
        --seconds 5
    python3 perfbench/summarize.py --seeds 1-10 --record

Each run is ``perfbench/run.py`` in a child process, one at a time.  For
every end-to-end metric the summary prints the median, the quartiles and
the spread (interquartile distance over the median) next to the
metric's bound from ``BENCHMARK.json``.  ``--record`` writes the medians
to ``perfbench/baseline.json``; it is refused unless every workload ran
at least ten seeds at the full ``run_seconds`` and every run was
correct, so a short or smoke run can never replace the baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END, spread
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="all",
                    help="comma-separated names, or 'all'")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float,
                    default=float(bench["run_seconds"]))
    ap.add_argument("--record", action="store_true",
                    help=f"write medians to {BASELINE.name}")
    args = ap.parse_args(argv)
    workloads = names if args.workloads == "all" \
        else args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    if args.record and (args.seconds != bench["run_seconds"]
                        or len(seeds) < 10 or workloads != names):
        ap.error("--record needs every workload, at least ten seeds and "
                 "the full run_seconds")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"run_seconds": args.seconds, "seeds": seeds, "env": None,
                "workloads": {}}
    worst = 0.0
    for wl in workloads:
        runs = [run_once(wl, s, args.seconds) for s in seeds]
        if not all(r["correct"] for r in runs):
            print(f"{wl}: a run failed its correctness checks")
            return 1
        print(f"{wl} ({len(runs)} seeds, {args.seconds:g} s):")
        if baseline["env"] is None:       # the first run's full result
            stem = f"{wl}-seed{seeds[0]}-{args.seconds:g}s-trace0"
            out = json.loads((HERE / "out" / f"{stem}.json").read_text())
            baseline["env"] = out["env"]
        baseline["workloads"][wl] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            sp = spread(vals)
            if name != "setup_s":
                worst = max(worst, sp / bound)
            flag = "ok" if sp <= bound / 3 else (
                "WIDE" if sp <= bound else "OVER")
            unit, clock, _ = END_TO_END[name]
            print(f"  {name:16s} {unit:4s} {clock:4s} median {med:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  n={len(vals)}  spread "
                  f"{sp:7.2%} / bound {bound:4.0%}  {flag}")
            baseline["workloads"][wl][name] = {"median": med, "q1": q1,
                                               "q3": q3}
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.record:
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"recorded {BASELINE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
