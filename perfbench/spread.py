"""Run the benchmark on several seeds and report each metric's median,
quartiles and spread (distance between the quartiles over the median).

    python3 perfbench/spread.py --workloads pages_cc geojoin_tiled \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 10 [--trace 0]

Run from the root of a checkout.  Every run's JSON result is kept in
``.bench_tmp/results.jsonl`` by run.py itself; this script only
summarises the runs it made.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t0 = time.time()
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n"
                         f"{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    for w in a.workloads:
        runs = []
        for s in a.seeds:
            r = run_once(w, s, a.seconds, a.trace)
            runs.append(r)
            print(f"{w} seed {s}: {r['wall_s']:.1f} s correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in r["metrics"].items()), flush=True)
        print(f"== {w}: {len(runs)} runs, mean run wall "
              f"{statistics.mean(r['wall_s'] for r in runs):.1f} s, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for k in runs[0]["metrics"]:
            s = summarise([r["metrics"][k]["value"] for r in runs])
            print(f"   {k:32s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
