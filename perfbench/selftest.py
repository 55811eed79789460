#!/usr/bin/env python3
"""Self-test of the perfbench harness.

    python3 perfbench/selftest.py

Checks, with short runs of run.py:
  1. every run prints exactly the metric names and units of BENCHMARK.json
     (end-to-end without tracing, per-layer with it), on every workload;
  2. one deliberately flipped answer byte is counted as one failed query
     and makes the run incorrect, in both serve framings;
  3. a saved surface that differs from its reference only in its header
     line still counts as a failure;
  4. the deterministic figures repeat exactly across two runs: the
     simulated counts and ratios of a traced sweep, the decision-cache
     figures of a traced serve replay, and paper_err_pct (recomputed,
     not read back from its cache).
Exits 0 when all checks pass; prints one line per check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

DETERMINISTIC = ["mem.accesses", "noc.packets", "remote.words",
                 "bus.transactions", "l1_hit_ratio", "dram.row_hit_ratio",
                 "dram.bank_conflicts", "wbq.full_stalls",
                 "streams.coverage", "serve.cache_hit_ratio",
                 "serve.cache_evictions"]

failures = []


def check(ok, what):
    print("%s: %s" % ("ok" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seconds=2, seed=1, extra=()):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)] + list(extra),
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("selftest: run.py failed on %s" % workload)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    results = {}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            r = run(w, trace)
            results[(w, trace)] = r
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want[trace] and r["correct"] and r["failed"] == 0,
                  "%s --trace %d prints every metric with its unit, "
                  "%d operations, none failed" % (w, trace, r["attempted"]))

    for w in ("serve.binary.uniform", "serve.json.hot"):
        r = run(w, 0, extra=["--corrupt-answer", "1"])
        check(r["failed"] == 1 and not r["correct"],
              "%s counts one flipped answer byte as %d failed query"
              % (w, r["failed"]))

    ref = os.path.join(bench.REFERENCE, "sweep.loads", "t3d.loads.surface")
    edited = os.path.join(bench.WORK, "tmp", "selftest.surface")
    with open(ref) as f:
        lines = f.read().split("\n")
    lines[1] += " (edited)"
    os.makedirs(os.path.dirname(edited), exist_ok=True)
    with open(edited, "w") as f:
        f.write("\n".join(lines))
    n = bench.surface_failures(edited, ref, 1000)
    check(n == 1, "a surface differing only in its header counts as %d "
          "failed point" % n)

    for w, trace in (("sweep.copy", 1), ("serve.binary.uniform", 1),
                     ("sweep.loads", 0), ("serve.json.hot", 0)):
        if not trace:
            shutil.rmtree(os.path.join(bench.WORK, "paper"),
                          ignore_errors=True)
        a = results[(w, trace)]["metrics"]
        b = run(w, trace)["metrics"]
        keys = DETERMINISTIC if trace else ["paper_err_pct"]
        same = all(a[k]["value"] == b[k]["value"] for k in keys)
        check(same, "%s --trace %d repeats %s exactly" % (
            w, trace, "the simulated and cache counts" if trace
            else "paper_err_pct"))

    print("selftest: %s" % ("FAILED: " + "; ".join(failures)
                            if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
