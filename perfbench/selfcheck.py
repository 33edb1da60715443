#!/usr/bin/env python3
"""Steadiness self-check for the LPPA benchmark.

Usage, from the repository root:

    python3 perfbench/selfcheck.py [--runs N] [--workloads fleet,churn,wire129]
                                   [--seconds S] [--seed BASE]

For each workload, runs two interleaved sets of N runs of the same code
with the same N seeds (set A and set B alternate which goes first), then
prints for every end-to-end metric in BENCHMARK.json:

* each set's median and quartiles, and its spread (interquartile range
  as a share of the median, from ``statistics.quantiles(values, n=4)``);
* how much worse set B's median is than set A's, as a share of A's,
  against the metric's bound;

and each set's total attempted and failed operations, which must agree:
a run's work depends only on its seed and ``--seconds``.

A metric passes when both sets' spreads are within its bound (``setup_s``
excepted) and set B is not worse than set A by more than the bound; a
spread above a third of the bound is flagged. Exits 1 if any metric
fails or the sets' counts differ, 2 if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness gate failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, (result["attempted"], result["failed"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        sets = {"A": [], "B": []}
        counts = {"A": [0, 0], "B": [0, 0]}
        try:
            for i in range(args.runs):
                order = ("A", "B") if i % 2 == 0 else ("B", "A")
                for name in order:
                    values, (attempted, fails) = run_once(workload, args.seed + i, seconds)
                    sets[name].append(values)
                    counts[name][0] += attempted
                    counts[name][1] += fails
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        agree = counts["A"] == counts["B"]
        failed |= not agree
        print(f"== {workload}: {args.runs} runs per set, {seconds:g} s each, seeds "
              f"{args.seed}..{args.seed + args.runs - 1}; failed/attempted A "
              f"{counts['A'][1]}/{counts['A'][0]}, B {counts['B'][1]}/{counts['B'][0]}"
              f"{'' if agree else ' DISAGREE'}")
        print(f"{'metric':18s} {'A q1/med/q3':>34s} {'B q1/med/q3':>34s} "
              f"{'sprA':>7s} {'sprB':>7s} {'B-A':>7s} {'bound':>6s}  verdict")
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            sa, sb = spread(a), spread(b)
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if better == "higher":
                worse = -worse
            timed = name != "setup_s"
            ok = worse <= bound and (not timed or max(sa, sb) <= bound)
            failed |= not ok
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{name:18s} {fmt(qa):>34s} {fmt(qb):>34s} {sa:7.4f} {sb:7.4f} {worse:+7.4f} "
                  f"{bound:6.3f}  {'ok' if ok else 'OVER'}"
                  f"{' (spread above bound/3)' if timed and max(sa, sb) > bound / 3 else ''}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
