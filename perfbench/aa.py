#!/usr/bin/env python3
"""A/A check: two sets of runs of one build, compared metric by metric.

Usage (from the repository root):

    python3 perfbench/aa.py [--workloads flat_paper,fanin_64] [--runs 10]
                            [--seconds S]

Set A and set B each run every workload `--runs` times, run i with seed i
(seeds 1..runs). The two sets alternate which one goes first on each pair,
so slow drift of the host lands on both. For every workload and end-to-end
metric it prints each set's median and quartiles, the spread (third minus
first quartile, as a share of the median) and how far set B's median is
worse than set A's, both next to the metric's bound from BENCHMARK.json. A
metric passes when every spread except setup_s stays within its bound and B
is not worse than A by more than the bound; the failed-operation share must
be identical in both sets.

This is the tool that set the bounds in BENCHMARK.json, and the one to
re-check them with on a new host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"aa: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(a, b, better):
    """Share by which median b is worse than median a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    metrics = spec["end_to_end"]

    all_ok = True
    for workload in args.workloads.split(","):
        sets = [[], []]
        for seed in range(1, args.runs + 1):
            for s in ((0, 1) if seed % 2 else (1, 0)):
                sets[s].append(run_once(spec, workload, seed, args.seconds))
        print(f"\n== {workload}: {args.runs} runs per set, {args.seconds}s each")
        shares = []
        for s, results in enumerate(sets):
            att = sum(r["attempted"] for r in results)
            fail = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            shares.append((fail, att))
            print(f"   set {'AB'[s]}: {att} operations attempted, {fail} failed, "
                  f"correct={correct}")
            all_ok &= correct
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("   FAIL: failed-operation share differs between the sets")
            all_ok = False
        header = f"   {'metric':<24}{'set':>4}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}"
        print(header + f"{'bound':>8}{'B worse':>9}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in results])
                     for results in sets]
            verdict = []
            for s, (median, q1, q3, spread) in enumerate(stats):
                if name != "setup_s" and spread > bound:
                    verdict.append(f"spread {'AB'[s]} > bound")
                elif name != "setup_s" and spread > bound / 3:
                    verdict.append(f"spread {'AB'[s]} > bound/3")
            worse = worse_by(stats[0][0], stats[1][0], m["better"])
            if worse > bound:
                verdict.append("B worse than bound")
            all_ok &= not any(v.endswith("> bound") or v.startswith("B worse") for v in verdict)
            for s, (median, q1, q3, spread) in enumerate(stats):
                tail = (f"{bound:>8.3f}{worse:>+9.3f}  {'; '.join(verdict) or 'ok'}"
                        if s == 1 else "")
                label = name if s == 0 else ""
                print(f"   {label:<24}{'AB'[s]:>4}{median:>16.6g}{q1:>16.6g}{q3:>16.6g}"
                      f"{spread:>9.4f}{tail}")
    print("\nA/A verdict:", "PASS" if all_ok else "FAIL")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
