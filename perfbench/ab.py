#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees with the same benchmark.

    python3 perfbench/ab.py OLD_TREE NEW_TREE --workload NAME [--pairs 10]
                            [--seed N] [--trace 0|1]

Both trees are built and measured by this directory's run.py (identical
benchmark code and settings), each run lasting BENCHMARK.json's
run_seconds, the length the bounds were measured at.  Each pair runs
both sides on the same seed, alternating which side goes first; pair i
uses seed N + i.  For every metric the report gives each side's median
and quartiles, the pairs NEW won (ties count for neither), and a verdict
in the sense of README.md "Claiming a change":

  gain         NEW wins at least nine tenths of the pairs and the medians
               differ by more than OLD's own quartile spread
  regression   NEW's median is worse than OLD's by more than the bound
  unresolved   OLD's quartile spread is wider than the bound and not every
               NEW run beats every OLD run
  no change    otherwise

Bounds, directions and run length come from BENCHMARK.json; per-layer
metrics have no bound, so they get no regression or unresolved verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def load_spec():
    """({metric: (better, bound or None)}, run_seconds) of BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m.get("bound"))
           for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out, spec["run_seconds"]


def run_side(tree, args, seed, seconds):
    cmd = [sys.executable, RUN, "--root", tree, "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("ab: run failed on %s" % tree)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        raise SystemExit("ab: %s failed %d of %d operations"
                         % (tree, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(old, new, better, bound):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for o, n in zip(old, new) if sign * (n - o) > 0)
    o_q1, o_med, o_q3 = quartiles(old)
    n_med = statistics.median(new)
    spread = (o_q3 - o_q1) / o_med if o_med else 0.0
    worse = sign * (o_med - n_med) / o_med if o_med else 0.0
    all_better = min(sign * n for n in new) > max(sign * o for o in old)
    if wins >= 0.9 * len(old) and abs(n_med - o_med) > o_q3 - o_q1:
        text = "gain"
    elif bound is not None and spread > bound and not all_better:
        text = "unresolved"
    elif bound is not None and worse > bound:
        text = "regression"
    else:
        text = "no change"
    return wins, text


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("at least 10 pairs are needed to claim anything")

    spec, seconds = load_spec()
    sides = {"old": [], "new": []}
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            tree = args.old if side == "old" else args.new
            sides[side].append(run_side(tree, args, args.seed + i,
                                             seconds))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              file=sys.stderr, flush=True)

    print("%-24s %-32s %-32s %6s  %s" % (
        "metric", "old median [q1, q3]", "new median [q1, q3]", "won",
        "verdict"))
    for name in sides["old"][0]:
        better, bound = spec.get(name, ("lower", None))
        old = [r[name] for r in sides["old"]]
        new = [r[name] for r in sides["new"]]
        oq, nq = quartiles(old), quartiles(new)
        wins, text = verdict(old, new, better, bound)
        print("%-24s %-32s %-32s %3d/%-2d  %s" % (
            name, "%.6g [%.6g, %.6g]" % (oq[1], oq[0], oq[2]),
            "%.6g [%.6g, %.6g]" % (nq[1], nq[0], nq[2]), wins, args.pairs,
            text))


if __name__ == "__main__":
    main()
