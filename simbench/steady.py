#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

    python3 simbench/steady.py [--runs 10] [--workload NAME ...] [--json OUT]

Run from the repository root. For every workload it makes two sets of
`--runs` runs (each run a fresh process via run.py, each with another
seed, the two sets on disjoint seeds) and prints, per end-to-end metric,
each set's median and quartiles, the spread (interquartile distance over
the median), and whether the sets agree within the metric's bound from
BENCHMARK.json:

  * every spread is within the bound (and, for a margin, within a third
    of it);
  * the second set's median is not worse than the first's by more than
    the bound;
  * the share of failed operations is the same in both sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--json", help="also write every run and the comparison here")
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    report = {"host_cores": os.cpu_count(), "runs": a.runs, "seconds": a.seconds, "workloads": {}}
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            seeds = [1000 * (s + 1) + i for i in range(a.runs)]
            t = time.time()
            results = [run_once(w, seed, a.seconds) for seed in seeds]
            print(f"{w}: set {s + 1} ({a.runs} runs) took {time.time() - t:.0f} s", file=sys.stderr)
            sets.append({"seeds": seeds, "results": results})
        rows = {}
        print(f"\n{w}")
        print(f"  {'metric':<14} {'set1 median':>13} {'q1..q3':>23} {'spread':>7} "
              f"{'set2 median':>13} {'spread':>7} {'worse':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in st["results"]]) for st in sets]
            worse = worse_by(stats[0]["median"], stats[1]["median"], m["better"])
            spread_ok = all(st["spread"] <= bound for st in stats)
            margin = all(st["spread"] <= bound / 3 for st in stats)
            agree = spread_ok and worse <= bound
            verdict = ("agree" if agree else "DISAGREE") + ("" if margin else " (spread > bound/3)")
            ok = ok and agree
            rows[name] = {"set1": stats[0], "set2": stats[1], "worse": worse, "bound": bound, "agree": agree}
            print(f"  {name:<14} {stats[0]['median']:>13.6g} "
                  f"{stats[0]['q1']:>11.5g}..{stats[0]['q3']:<11.5g} {stats[0]['spread']:>7.3f} "
                  f"{stats[1]['median']:>13.6g} {stats[1]['spread']:>7.3f} {worse:>7.3f} {bound:>6}  {verdict}")
        shares = [sum(r["failed"] for r in st["results"]) / sum(r["attempted"] for r in st["results"])
                  for st in sets]
        correct = all(r["correct"] for st in sets for r in st["results"])
        same_share = shares[0] == shares[1]
        ok = ok and same_share and correct
        print(f"  failed share {shares[0]} vs {shares[1]}: {'same' if same_share else 'DIFFERENT'}; "
              f"all runs correct: {correct}")
        report["workloads"][w] = {"metrics": rows, "failed_share": shares, "correct": correct, "sets": sets}
    if a.json:
        with open(a.json, "w") as f:
            json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
