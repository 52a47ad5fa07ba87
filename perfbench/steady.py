#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of untraced runs per workload.

    python3 perfbench/steady.py [--runs 10]

For every workload of BENCHMARK.json the runs alternate between set A and
set B (A1 B1 A2 B2 ...); every run gets its own seed.  For each end-to-end
metric the report gives both sets' median and quartiles, the spread
(quartile distance over the median) of each set and of all runs together,
and whether the sets agree: each spread within the metric's bound and the
two medians apart by no more than the bound, in either direction.  Bounds
and run length come from BENCHMARK.json.  The raw results are written to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["summary"] = out.stderr.strip().splitlines()
    return res


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def judge(metric: dict, a: list[float], b: list[float]):
    """(report line fields, agrees) for one metric of one workload."""
    bound = metric["bound"]
    qa = statistics.quantiles(a, n=4)
    qb = statistics.quantiles(b, n=4)
    spread_a, spread_b = spread(a), spread(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a
    if metric["better"] == "higher":
        worse = -worse
    agrees = max(spread_a, spread_b) <= bound and abs(worse) <= bound
    fields = (f"{metric['name']:22s} A {med_a:12.4f} [{qa[0]:.4f}, "
              f"{qa[2]:.4f}] spread {spread_a:6.2%} | B {med_b:12.4f} "
              f"[{qb[0]:.4f}, {qb[2]:.4f}] spread {spread_b:6.2%} | "
              f"all {spread(a + b):6.2%} | "
              f"B worse by {worse:+6.2%}, bound {bound:.0%}, "
              f"{'agree' if agrees else 'DISAGREE'}")
    return fields, agrees


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per set and workload (default 10)")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    raw = {}
    all_agree = True
    for w in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, label in enumerate("AB"):
                seed = 1 + 2 * i + k
                res = one_run(w, seed, seconds)
                res["seed"] = seed
                sets[label].append(res)
                print(f"{w} {label} seed {seed}: attempted "
                      f"{res['attempted']} failed {res['failed']} correct "
                      f"{res['correct']}", file=sys.stderr)
        raw[w] = sets
        print(f"== {w}: {args.runs} runs per set, {seconds} s each")
        for label, runs in sets.items():
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"set {label}: failed shares {shares}, all correct "
                  f"{all(r['correct'] for r in runs)}")
        for metric in spec["end_to_end"]:
            n = metric["name"]
            line, agrees = judge(metric,
                                 [r["metrics"][n]["value"] for r in sets["A"]],
                                 [r["metrics"][n]["value"] for r in sets["B"]])
            all_agree &= agrees
            print(line)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / "steady.json"
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"raw results in {out.relative_to(ROOT)}; "
          f"{'all metrics agree' if all_agree else 'some metrics DISAGREE'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
