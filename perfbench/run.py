#!/usr/bin/env python3
"""perfbench: the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the tools from source into .bench_build/, runs one workload, checks
every output, and prints one JSON result object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

    python3 perfbench/run.py --regen-reference

rewrites the reference surfaces the sweep workloads are checked against;
run it only after an intentional change to the simulated model.
"""

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
TARGETS = ["characterize", "pack", "serve", "perfprobe"]

MACHINES = ["dec8400", "t3d", "t3e"]

# Sweep workloads: (machine, benchmark, --max-ws, --cap or None) per surface.
# Grids are pinned; README.md gives the reasons for each size and cap.
SWEEPS = {
    "sweep.loads": [
        ("dec8400", "loads", "8M", None),
        ("t3d", "loads", "16M", "256K"),
        ("t3e", "loads", "16M", "256K"),
    ],
    "sweep.copy": [
        ("dec8400", "copy-sstore", "1M", None),
        ("t3d", "copy-sstore", "16M", "128K"),
        ("t3e", "copy-sstore", "16M", "128K"),
        ("dec8400", "pull", "2M", None),
        ("t3d", "fetch-sload", "8M", "32K"),
        ("t3e", "deposit-sstore", "8M", "64K"),
    ],
}

# Serve packs: every machine's native remote options on one grid per
# machine, so a machine's options share their axes.
PACKS = {
    "dec8400": (["pull"], "2M", None),
    "t3d": (["deposit-sload", "deposit-sstore", "fetch-sload",
             "fetch-sstore"], "8M", "128K"),
    "t3e": (["deposit-sload", "deposit-sstore", "fetch-sload",
             "fetch-sstore"], "8M", "128K"),
}

# Serve workloads: (framing, traffic mix).
SERVES = {
    "serve.binary.uniform": ("binary", "uniform"),
    "serve.json.hot": ("json", "hot"),
}

BATCH = 1024         # serve --batch; the client sends exactly this many
POOL_BATCHES = 256   # distinct batches per seed, replayed in a cycle
HOT_KEYS = 64
HOT_SHARE = 0.95
HOSTREF_NOMINAL_S = 0.010  # one reference unit on a quiet host
# How a sample's host time moves with the reference's: the log-log
# slope fitted over twenty runs of each workload (README.md,
# "Host-speed correction").  The 8400's long DRAM-bound loads sweep,
# most of sweep.loads, follows the host more closely than the rest.
HOSTREF_EXPONENT = 0.5
SWEEP_EXPONENT = {"sweep.loads": 0.8, "sweep.copy": 0.5}
SETUP_REPS = 11      # serve start-ups per run for setup_s
BUILD_REPS = 21      # machine constructions per machine for setup_s
QUERY_MAGIC = 0x59525147

END_TO_END = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "paper_err_pct": "%",
}
PER_LAYER = {
    "machine.build_ms": "ms", "core.sweep_s": "s",
    "kernels.point_self_s": "s", "mem.read_batch_self_s": "s",
    "mem.write_batch_self_s": "s", "mem.batch_self_s": "s",
    "mem.prime_self_s": "s", "mem.read_self_s": "s",
    "mem.accesses": "count", "mem.ns_per_access": "ns",
    "noc.send_self_s": "s", "noc.packets": "count",
    "noc.ns_per_packet": "ns", "remote.words": "count",
    "bus.transactions": "count", "l1_hit_ratio": "ratio",
    "dram.row_hit_ratio": "ratio", "dram.bank_conflicts": "count",
    "wbq.full_stalls": "count", "streams.coverage": "ratio",
    "serve.index_build_ms": "ms", "frontend.decode_ns": "ns",
    "serve.plan_ns": "ns", "serve.compute_ns": "ns",
    "frontend.encode_ns": "ns", "frontend.residual_ns": "ns",
    "serve.cache_hit_ratio": "ratio", "serve.cache_evictions": "count",
    "batch_p99_ms": "ms", "trace_overhead_pct": "%", "host.scale": "ratio",
}


def set_root(root):
    """Measure the source tree at @root, building into root/.bench_build."""
    global ROOT, BUILD, WORK
    ROOT = os.path.abspath(root)
    BUILD = os.path.join(ROOT, ".bench_build")
    WORK = os.path.join(BUILD, "perfbench")


set_root(os.path.dirname(HERE))


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result."""


# ---------------------------------------------------------------- build

def source_mtime():
    files = [os.path.join(HERE, f)
             for f in ("probe.cc", "probe.cmake", "hostref.cc")]
    for top in ("src", "tools"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(dirpath, n) for n in names]
    files.append(os.path.join(ROOT, "CMakeLists.txt"))
    return max(map(os.path.getmtime, files))


def ensure_build():
    """Build the tools and the probe unless the stamp is newer than every
    source.  Returns {target: path}."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: the benchmark needs the "
                         "repository's sources" % ROOT)
    paths = {t: os.path.join(BUILD, "tools", t) for t in TARGETS}
    paths["perfprobe"] = os.path.join(BUILD, "perfprobe")
    paths["hostref"] = os.path.join(BUILD, "perfbench-hostref")
    stamp = os.path.join(BUILD, "perfbench.stamp")
    if (os.path.exists(stamp) and all(map(os.path.exists, paths.values()))
            and os.path.getmtime(stamp) >= source_mtime()):
        return paths
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logfile, "w") as lf:
        for cmd in (["cmake", "-S", ROOT, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_INCLUDE=" +
                     os.path.join(HERE, "probe.cmake")],
                    ["cmake", "--build", BUILD, "-j", jobs, "--target"]
                    + TARGETS,
                    # Fixed flags, outside the repository's build, so no
                    # change to the repository can change the reference.
                    ["c++", "-O2", "-std=c++17", "-o", paths["hostref"],
                     os.path.join(HERE, "hostref.cc")]):
            log("build:", " ".join(cmd[:3]))
            if subprocess.call(cmd, stdout=lf, stderr=subprocess.STDOUT):
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed; log in " + logfile)
    with open(stamp, "w") as f:
        f.write("ok\n")
    return paths


# ------------------------------------------------------------ processes

def spawn_wait(tools, cmd, **kw):
    """Run @cmd to completion under `perfprobe spawn`, so its peak RSS is
    its own and not this interpreter's; return (exit code, wall s, cpu s,
    rss MB)."""
    usage = os.path.join(WORK, "spawn.usage")
    if os.path.exists(usage):
        os.remove(usage)
    t0 = time.perf_counter()
    p = subprocess.Popen([tools["perfprobe"], "spawn", usage] + cmd, **kw)
    try:
        p.wait()
    except BaseException:
        p.kill()
        p.wait()
        raise
    wall = time.perf_counter() - t0
    with open(usage) as f:
        code, rss_kb, user, system = f.read().split()
    return int(code), wall, float(user) + float(system), int(rss_kb) / 1024.0


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class HostRef:
    """The host-speed reference (hostref.cc): one process per run, timed
    between the benchmark's own samples.  Each sample's host time is
    scaled by HOSTREF_NOMINAL_S over the mean of the reference times
    measured just before and just after it, to a power (HOSTREF_EXPONENT
    unless the sample says otherwise)."""

    UNITS = 5

    def __init__(self, tools):
        self.proc = subprocess.Popen([tools["hostref"]], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     bufsize=1)
        self.last = None
        self.scales = []

    def measure(self):
        """Median time of a reference unit now, in seconds."""
        times = []
        for _ in range(self.UNITS):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            times.append(int(self.proc.stdout.readline().split()[0]) / 1e9)
        return statistics.median(times)

    def bracket(self, exponent=HOSTREF_EXPONENT):
        """Call before a sample (returns None) and after it (returns the
        sample's scale factor); the after-reading opens the next one."""
        now = self.measure()
        before, self.last = self.last, now
        if before is None:
            return None
        self.scales.append(HOSTREF_NOMINAL_S / ((before + now) / 2))
        return self.scales[-1] ** exponent

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def log_uncorrected(raw, ref):
    log("uncorrected:", json.dumps(raw))
    log("host speed (nominal / reference): median %.4f, range %.4f..%.4f"
        % (statistics.median(ref.scales), min(ref.scales),
           max(ref.scales)))


# ------------------------------------------------------------- surfaces

def parse_size(text):
    mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
    return int(text.rstrip("KM")) * mult


def read_surface(path):
    """(working sets, strides, {(ws, stride): MB/s}) of a saved surface."""
    with open(path) as f:
        lines = f.read().split("\n")
    ws = [int(x) for x in lines[2].split()[2:]]
    strides = [int(x) for x in lines[3].split()[2:]]
    data = {}
    for i, w in enumerate(ws):
        row = lines[5 + i].split()
        for j, s in enumerate(strides):
            data[(w, s)] = float(row[j])
    return ws, strides, data


def surface_failures(path, ref_path, points):
    """Failed grid points of @path against the reference surface: 0 if
    the files are byte-identical, else the points whose values differ,
    and at least 1 (a difference in the name or header lines counts)."""
    try:
        with open(path, "rb") as f, open(ref_path, "rb") as g:
            if f.read() == g.read():
                return 0
        _, _, got = read_surface(path)
        _, _, want = read_surface(ref_path)
        return max(1, sum(1 for k, v in want.items() if got.get(k) != v))
    except (OSError, IndexError, ValueError):
        return points


def paper_points():
    with open(os.path.join(HERE, "paper_points.json")) as f:
        return json.load(f)["points"]


def paper_error_pct(tools, keys):
    """Mean |model/paper - 1| in % over the paper reference points of the
    (machine, benchmark) surfaces in @keys.  Each point is simulated at
    the paper's own coordinates with characterize's default cap (perfprobe
    paper), not read off the workload's grid: the shorter caps the timed
    sweeps use to bound their cost would distort the large working sets.
    The values are deterministic, so they are cached per probe binary."""
    points = [p for p in paper_points()
              if (p["machine"], p["benchmark"]) in keys]
    if not points:
        raise BenchError("no paper reference point on the workload's "
                         "surfaces")
    with open(tools["perfprobe"], "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(WORK, "paper", digest + ".json")
    try:
        with open(path) as f:
            cache = json.load(f)
    except (OSError, ValueError):
        cache = {}

    def key(p):
        return "%s %s %s %d" % (p["machine"], p["benchmark"], p["ws"],
                                p["stride"])

    rows = {}
    for p in points:
        if key(p) not in cache:
            rows.setdefault((p["machine"], p["benchmark"], p["ws"]),
                            []).append(p)
    for (m, b, ws), row in sorted(rows.items()):
        values = json.loads(subprocess.run(
            [tools["perfprobe"], "paper", m, b, str(parse_size(ws))]
            + [str(p["stride"]) for p in row],
            check=True, capture_output=True, text=True).stdout)
        cache.update({key(p): v for p, v in zip(row, values)})
    if rows:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(cache, f, sort_keys=True)
        os.replace(path + ".tmp", path)
    return 100.0 * statistics.mean(abs(cache[key(p)] / p["paper"] - 1)
                                   for p in points)


def characterize_cmd(tools, inv, out, extra=()):
    machine, bench, max_ws, cap = inv
    cmd = [tools["characterize"], machine, bench, "--jobs", "1",
           "--max-ws", max_ws, "--out", out]
    if cap:
        cmd += ["--cap", cap]
    return cmd + list(extra)


def points_of(inv):
    max_ws = parse_size(inv[2])
    rows = 1
    ws = 512
    while ws < max_ws:
        ws *= 2
        rows += 1
    return rows * 21


def inv_name(inv):
    return "%s.%s" % (inv[0], inv[1])


# ---------------------------------------------------------------- sweeps

def machine_build_s(tools, machines):
    """Median construction time of each machine, in seconds."""
    out = subprocess.run([tools["perfprobe"], "machines", str(BUILD_REPS)]
                         + machines, check=True, capture_output=True,
                         text=True).stdout
    return {m: statistics.median(v) for m, v in json.loads(out).items()}


class SweepRun:
    """Runs a sweep workload's surfaces and checks each output."""

    def __init__(self, tools, workload):
        self.tools = tools
        self.workload = workload
        self.invs = SWEEPS[workload]
        self.tmp = os.path.join(WORK, "tmp", workload)
        os.makedirs(self.tmp, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.spans = []

    def run_one(self, inv, extra=(), tag=""):
        out = os.path.join(self.tmp, inv_name(inv) + tag + ".surface")
        if os.path.exists(out):
            os.remove(out)
        t0 = time.perf_counter()
        rc, wall, cpu, rss = spawn_wait(
            self.tools, characterize_cmd(self.tools, inv, out, extra),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.spans.append(("characterize " + inv_name(inv) + tag, t0, wall))
        points = points_of(inv)
        ref = os.path.join(REFERENCE, self.workload,
                           inv_name(inv) + ".surface")
        self.attempted += points
        self.failed += points if rc != 0 else surface_failures(
            out, ref, points)
        return wall, cpu, rss


def sweep_e2e(tools, ref, workload, seconds):
    run = SweepRun(tools, workload)
    err = paper_error_pct(tools, {inv[:2] for inv in run.invs})
    machines = sorted({inv[0] for inv in run.invs})
    ref.bracket()
    setup_raw = sum(machine_build_s(tools, machines).values())
    setup_scale = ref.bracket()

    # Per surface: (wall s, cpu s, host scale) of each characterize run.
    samples = {i: [] for i in range(len(run.invs))}
    rss = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(run.invs)
        if (k >= len(run.invs) and time.perf_counter() - start
                + samples[i][-1][0] > seconds):
            break
        wall, cpu, peak = run.run_one(run.invs[i])
        samples[i].append((wall, cpu,
                           ref.bracket(SWEEP_EXPONENT[workload])))
        rss = max(rss, peak)
        k += 1

    points = sum(points_of(inv) for inv in run.invs)

    def figures(corrected):
        def per_round(field):
            return sum(statistics.median(
                x[field] * (x[2] if corrected else 1.0) for x in v)
                for v in samples.values())
        round_s = per_round(0)
        return {
            "ops_per_s": points / round_s,
            "latency_p50_ms": round_s * 1e3,
            "cpu_s": per_round(1),
            "peak_rss_mb": rss,
            "setup_s": setup_raw * (setup_scale if corrected else 1.0),
            "paper_err_pct": err,
        }

    log_uncorrected(figures(False), ref)
    return run.attempted, run.failed, figures(True)


STAT_SUMS = {
    "mem.accesses": r"^node\d+\.(reads|writes)$",
    "l1.hits": r"^node\d+\.l1\.hits$",
    "l1.misses": r"^node\d+\.l1\.misses$",
    "dram.rowHits": r"\.(dram|sharedDram)\.rowHits$",
    "dram.rowMisses": r"\.(dram|sharedDram)\.rowMisses$",
    "dram.bank_conflicts": r"\.(dram|sharedDram)\.bankConflicts$",
    "wbq.full_stalls": r"\.wbq\.fullStalls$",
    "streams.covered": r"\.streams\.covered$",
    "streams.fills": r"\.streams\.fills$",
    "noc.packets": r"\.torus\.packets$",
    "remote.words": r"(\.engine|^smpPull)\.wordsMoved$",
    "bus.transactions": r"\.bus\.transactions$",
}

ZONE_SELF = {
    "point": "kernels.point_self_s",
    "mem.readBatch": "mem.read_batch_self_s",
    "mem.writeBatch": "mem.write_batch_self_s",
    "mem.batch": "mem.batch_self_s",
    "mem.prime": "mem.prime_self_s",
    "mem.read": "mem.read_self_s",
    "noc.send": "noc.send_self_s",
}


def add_stats(group, sums):
    for st in group.get("stats", []):
        if st.get("type") != "scalar":
            continue
        for key, pattern in STAT_SUMS.items():
            if re.search(pattern, st["name"]):
                sums[key] = sums.get(key, 0) + st["value"]
    for child in group.get("groups", []):
        add_stats(child, sums)


def ratio(num, den):
    return num / den if den else 0.0


def sweep_traced(tools, ref, workload, seconds):
    """One untraced and one traced pass over the workload's surfaces; the
    traced pass adds characterize's --profile-json and --stats-json."""
    run = SweepRun(tools, workload)
    machines = sorted({inv[0] for inv in run.invs})
    t0 = time.perf_counter()
    builds = machine_build_s(tools, machines)
    run.spans.append(("machine builds", t0, time.perf_counter() - t0))

    untraced = traced = 0.0
    zones, sums, sweep_s = {}, {}, 0.0
    ref.bracket()
    for inv in run.invs:
        untraced += (run.run_one(inv)[0]
                     * ref.bracket(SWEEP_EXPONENT[workload]))
        prof = os.path.join(run.tmp, inv_name(inv) + ".profile.json")
        stats = os.path.join(run.tmp, inv_name(inv) + ".stats.json")
        traced += run.run_one(inv, ["--profile-json", prof,
                                    "--stats-json", stats],
                              ".traced")[0] * ref.bracket(
                                  SWEEP_EXPONENT[workload])
        with open(prof) as f:
            for z in json.load(f)["zones"]:
                zones[z["name"]] = zones.get(z["name"], 0) + z["selfNs"]
                if z["depth"] == 0:
                    sweep_s += z["totalNs"] / 1e9
        with open(stats) as f:
            add_stats(json.load(f), sums)

    m = {name: 0.0 for name in PER_LAYER}
    m["machine.build_ms"] = sum(builds.values()) * 1e3
    m["core.sweep_s"] = sweep_s
    for zone, name in ZONE_SELF.items():
        m[name] = zones.get(zone, 0) / 1e9
    mem_s = sum(v for z, v in zones.items() if z.startswith("mem.")) / 1e9
    for key in ("mem.accesses", "noc.packets", "remote.words",
                "bus.transactions", "dram.bank_conflicts",
                "wbq.full_stalls"):
        m[key] = sums.get(key, 0)
    m["mem.ns_per_access"] = ratio(mem_s * 1e9, m["mem.accesses"])
    m["noc.ns_per_packet"] = ratio(m["noc.send_self_s"] * 1e9,
                                   m["noc.packets"])
    m["l1_hit_ratio"] = ratio(sums.get("l1.hits", 0),
                              sums.get("l1.hits", 0)
                              + sums.get("l1.misses", 0))
    m["dram.row_hit_ratio"] = ratio(sums.get("dram.rowHits", 0),
                                    sums.get("dram.rowHits", 0)
                                    + sums.get("dram.rowMisses", 0))
    m["streams.coverage"] = ratio(sums.get("streams.covered", 0),
                                  sums.get("streams.fills", 0))
    m["trace_overhead_pct"] = 100.0 * (traced / untraced - 1)
    m["host.scale"] = statistics.median(ref.scales)
    write_spans(workload, run.spans, t0)
    return run.attempted, run.failed, m


def write_spans(workload, spans, origin):
    """Harness spans as Chrome-trace JSON under .bench_build/perfbench."""
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    events = [{"name": n, "ph": "X", "pid": 1, "tid": 1,
               "ts": (t - origin) * 1e6, "dur": d * 1e6}
              for n, t, d in spans]
    with open(os.path.join(WORK, "traces", workload + ".spans.json"),
              "w") as f:
        json.dump({"traceEvents": events}, f)


# ----------------------------------------------------------------- serve

def ensure_packs(tools):
    """Build (or reuse) the serve packs; return their paths in MACHINES
    order.  Packs are keyed by the tool binaries and the pinned grid."""
    h = hashlib.sha256(json.dumps(PACKS, sort_keys=True).encode())
    for t in ("characterize", "pack"):
        with open(tools[t], "rb") as f:
            h.update(f.read())
    pdir = os.path.join(WORK, "packs", h.hexdigest()[:16])
    packs = [os.path.join(pdir, m + ".pack") for m in MACHINES]
    if os.path.exists(os.path.join(pdir, "done")):
        return packs
    log("building serve packs in", pdir)
    for m in MACHINES:
        options, max_ws, cap = PACKS[m]
        sdir = os.path.join(pdir, m)
        os.makedirs(sdir, exist_ok=True)
        for opt in options:
            out = os.path.join(sdir, opt + ".surface")
            if subprocess.call(
                    characterize_cmd(tools, (m, opt, max_ws, cap), out),
                    stdout=subprocess.DEVNULL):
                raise BenchError("characterize %s %s failed" % (m, opt))
        subprocess.run([tools["pack"], "--machine", m, "--surfaces", sdir,
                        "--out", os.path.join(pdir, m + ".pack")],
                       check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(pdir, "done"), "w") as f:
        f.write("ok\n")
    return packs


def make_queries(workload, mix, seed):
    """The seeded query pool: a list of (machine, bytes, ws, stride)."""
    rng = random.Random("%s:%d" % (workload, seed))

    def uniform():
        ws = (1024 << rng.randrange(15)) + 8 * rng.randrange(4096)
        return (rng.randrange(len(MACHINES)), ws, ws,
                1 << rng.randrange(8))

    n = POOL_BATCHES * BATCH
    if mix == "uniform":
        return [uniform() for _ in range(n)]
    hot = [uniform() for _ in range(HOT_KEYS)]
    return [rng.choice(hot) if rng.random() < HOT_SHARE else uniform()
            for _ in range(n)]


class ServeClient:
    """A closed-loop client: one outstanding batch of exactly BATCH
    queries, every answer checked against in-process PlannerIndex::plan."""

    def __init__(self, tools, workload, seed, corrupt_batch=-1):
        self.tools = tools
        self.framing, mix = SERVES[workload]
        self.tmp = os.path.join(WORK, "tmp", workload)
        os.makedirs(self.tmp, exist_ok=True)
        self.packs = ensure_packs(tools)
        queries = make_queries(workload, mix, seed)
        self.machine_of = [q[0] for q in queries]
        qpath = os.path.join(self.tmp, "queries.bin")
        apath = os.path.join(self.tmp, "answers.bin")
        records = b"".join(struct.pack("<IIQQQ", QUERY_MAGIC, *q)
                           for q in queries)
        with open(qpath, "wb") as f:
            f.write(records)
        self.replay_path = qpath
        info = json.loads(subprocess.run(
            [tools["perfprobe"], "expect", qpath, apath] + self.packs,
            check=True, capture_output=True, text=True).stdout)
        with open(apath, "rb") as f:
            answers = f.read()
        rec = 32 * BATCH
        self.expected = [answers[b * rec:(b + 1) * rec]
                         for b in range(POOL_BATCHES)]
        if self.framing == "binary":
            self.payloads = [records[b * rec:(b + 1) * rec]
                             for b in range(POOL_BATCHES)]
        else:
            lines = ['{"machine": "%s", "bytes": %d, "ws": %d, '
                     '"stride": %d}\n' % (MACHINES[m], by, ws, st)
                     for m, by, ws, st in queries]
            jpath = os.path.join(self.tmp, "queries.jsonl")
            with open(jpath, "w") as f:
                f.writelines(lines)
            self.replay_path = jpath
            # {"cmd": "metrics"} makes serve flush its answers; the
            # metrics line it adds is dropped.
            self.payloads = [("".join(lines[b * BATCH:(b + 1) * BATCH])
                              + '{"cmd": "metrics"}\n').encode()
                             for b in range(POOL_BATCHES)]
            self.labels = [[o["label"] for o in mm["options"]]
                           for mm in info["machines"]]
            self.methods = [[o["method"] for o in mm["options"]]
                            for mm in info["machines"]]
        self.stderr = os.path.join(self.tmp, "serve.stderr")
        if os.path.exists(self.stderr):
            os.remove(self.stderr)
        self.known = [None] * POOL_BATCHES
        self.known_fail = [0] * POOL_BATCHES
        self.corrupt_batch = corrupt_batch
        self.sent = 0
        self.attempted = 0
        self.failed = 0
        self.proc = None

    # -- process

    def start(self):
        cmd = [self.tools["serve"], "--threads", "1", "--batch", str(BATCH)]
        for p in self.packs:
            cmd += ["--pack", p]
        if self.framing == "binary":
            cmd.append("--binary")
        err = open(self.stderr, "ab")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=err,
                                     bufsize=0)
        err.close()
        self.wfd = self.proc.stdin.fileno()
        self.rfd = self.proc.stdout.fileno()

    def stop(self):
        """Close the server's input and reap it; returns its peak RSS in
        MB, read while it idles.  (wait4()'s figure would be at least
        this interpreter's size: the kernel carries it over exec.)"""
        p, self.proc = self.proc, None
        with open("/proc/%d/status" % p.pid) as f:
            hwm = next(int(line.split()[1]) for line in f
                       if line.startswith("VmHWM:"))
        p.stdin.close()
        rest = p.stdout.read()
        p.stdout.close()
        p.wait()
        if rest or p.returncode != 0:
            raise BenchError("serve exited with %d and %d stray bytes"
                             % (p.returncode, len(rest)))
        return hwm / 1024.0

    def kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    # -- one batch

    def roundtrip(self, b):
        """Send pool batch @b and return serve's answers to it."""
        payload = memoryview(self.payloads[b])
        while payload:
            payload = payload[os.write(self.wfd, payload):]
        if self.framing == "binary":
            want = 32 * BATCH
            chunks, got = [], 0
            while got < want:
                chunk = os.read(self.rfd, want - got)
                if not chunk:
                    raise BenchError("serve closed its output")
                chunks.append(chunk)
                got += len(chunk)
            data = b"".join(chunks)
        else:
            chunks, lines = [], 0
            while lines < BATCH + 1:
                chunk = os.read(self.rfd, 1 << 20)
                if not chunk:
                    raise BenchError("serve closed its output")
                chunks.append(chunk)
                lines += chunk.count(b"\n")
            data = b"".join(chunks)
            data = data[:data.rindex(b"\n", 0, len(data) - 1) + 1]
        self.sent += 1
        if self.sent == self.corrupt_batch:
            data = data[:1] + bytes([data[1] ^ 0x01]) + data[2:]
        return data

    def check(self, b, data):
        self.attempted += BATCH
        if self.framing == "binary":
            want = self.expected[b]
            if data != want:
                self.failed += sum(
                    1 for i in range(BATCH)
                    if data[32 * i:32 * i + 32] != want[32 * i:32 * i + 32])
            return
        if data == self.known[b]:
            self.failed += self.known_fail[b]
            return
        fails = self.check_json(b, data)
        self.failed += fails
        if self.known[b] is None:
            self.known[b], self.known_fail[b] = data, fails

    def check_json(self, b, data):
        """Answers of batch @b that do not print in-process plan()."""
        lines = data.decode(errors="replace").split("\n")[:-1]
        fails = max(0, BATCH - len(lines))
        want = self.expected[b]
        for i, line in enumerate(lines[:BATCH]):
            _, opt, mbs, secs, _, on_src = struct.unpack_from(
                "<IIddBB", want, 32 * i)
            m = self.machine_of[b * BATCH + i]
            try:
                a = json.loads(line)
                ok = (a["machine"] == MACHINES[m]
                      and a["option"] == self.labels[m][opt]
                      and a["method"] == self.methods[m][opt]
                      and a["strideOnSource"] is bool(on_src)
                      and a["mbs"] == mbs and a["seconds"] == secs)
            except (ValueError, KeyError, TypeError):
                ok = False
            fails += not ok
        return fails

    # -- measurements

    def setup_times(self, ref):
        """Seconds from spawning serve until its first batch is answered,
        each with its host scale."""
        times = []
        ref.bracket()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.start()
            data = self.roundtrip(0)
            t = time.perf_counter() - t0
            self.check(0, data)
            self.stop()
            times.append((t, ref.bracket()))
        return times

    def measure(self, seconds, ref):
        """Closed loop for @seconds after one warm-up pass over the pool,
        in slices of about a second with reference units between them.
        Returns the slices as (batch round trips, seconds, serve CPU
        seconds, host scale) and serve's peak RSS in MB."""
        self.start()
        for b in range(POOL_BATCHES):
            self.check(b, self.roundtrip(b))
        slices = []
        deadline = time.perf_counter() + seconds
        b = 0
        ref.bracket()
        while time.perf_counter() < deadline:
            rtts = []
            cpu0 = proc_cpu_s(self.proc.pid)
            start = now = time.perf_counter()
            while now - start < 1.0 and now < deadline:
                t0 = time.perf_counter()
                data = self.roundtrip(b)
                now = time.perf_counter()
                rtts.append(now - t0)
                self.check(b, data)
                b = (b + 1) % POOL_BATCHES
            cpu = proc_cpu_s(self.proc.pid) - cpu0
            slices.append((rtts, now - start, cpu, ref.bracket()))
        return slices, self.stop()


def serve_e2e(tools, ref, workload, seed, seconds, corrupt_batch):
    client = ServeClient(tools, workload, seed, corrupt_batch)
    err = paper_error_pct(tools, {(m, o) for m, (opts, _, _) in PACKS.items()
                                  for o in opts})
    try:
        setup = client.setup_times(ref)
        slices, rss = client.measure(seconds, ref)
    finally:
        client.kill()
    queries = sum(len(r) for r, _, _, _ in slices) * BATCH

    def figures(corrected):
        def k(scale):
            return scale if corrected else 1.0
        return {
            "ops_per_s": statistics.median(
                len(r) * BATCH / (d * k(sc)) for r, d, _, sc in slices),
            "latency_p50_ms": 1e3 * statistics.median(
                t * k(sc) for r, _, _, sc in slices for t in r),
            "cpu_s": 1e6 * sum(c * k(sc) for _, _, c, sc in slices) / queries,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(t * k(sc) for t, sc in setup),
            "paper_err_pct": err,
        }

    log_uncorrected(figures(False), ref)
    return client.attempted, client.failed, figures(True)


def serve_traced(tools, ref, workload, seed, seconds, corrupt_batch):
    """Half the time end to end (for the residual and the tail), half
    replaying the same batches in-process with a span per layer call."""
    client = ServeClient(tools, workload, seed, corrupt_batch)
    try:
        slices, _ = client.measure(seconds / 2, ref)
    finally:
        client.kill()
    rtts = [t for r, _, _, _ in slices for t in r]
    e2e_ns = 1e9 * statistics.median(d / (len(r) * BATCH)
                                      for r, d, _, _ in slices)

    # One replay pass costs about what the pool costs end to end.
    pass_s = POOL_BATCHES * statistics.median(rtts)
    passes = max(1, int(seconds / 2 / (2 * pass_s)))
    spans = os.path.join(WORK, "traces")
    os.makedirs(spans, exist_ok=True)
    r = json.loads(subprocess.run(
        [tools["perfprobe"], "replay", client.framing, client.replay_path,
         str(BATCH), str(passes),
         os.path.join(spans, workload + ".spans.json")] + client.packs,
        check=True, capture_output=True, text=True).stdout)
    ref.bracket()

    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "serve.index_build_ms": r["index_build_ms"],
        "frontend.decode_ns": r["decode_ns"],
        "serve.plan_ns": r["plan_ns"],
        "serve.compute_ns": r["compute_ns"],
        "frontend.encode_ns": r["encode_ns"],
        "frontend.residual_ns": e2e_ns - r["decode_ns"] - r["plan_ns"],
        "serve.cache_hit_ratio": ratio(r["cache_hits"], r["cache_lookups"]),
        "serve.cache_evictions": r["cache_evictions_per_pass"],
        "batch_p99_ms": statistics.quantiles(rtts, n=100)[98] * 1e3,
        "trace_overhead_pct": 100.0 * (r["traced_ns"] / r["untraced_ns"] - 1),
        "host.scale": statistics.median(ref.scales),
    })
    return client.attempted, client.failed, m


# ------------------------------------------------------------------ main

def regen_reference(tools):
    for workload, invs in SWEEPS.items():
        rdir = os.path.join(REFERENCE, workload)
        os.makedirs(rdir, exist_ok=True)
        for inv in invs:
            out = os.path.join(rdir, inv_name(inv) + ".surface")
            log("reference:", workload, inv_name(inv))
            if subprocess.call(characterize_cmd(tools, inv, out),
                               stdout=subprocess.DEVNULL):
                raise BenchError("characterize failed for " + inv_name(inv))


def on_alarm(*_):
    # A hung server or sweep must not hang the benchmark.
    raise BenchError("run exceeded its time limit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(SWEEPS) + sorted(SERVES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="length of the timed window (default: "
                    "BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="source tree to build and measure (default: the "
                    "tree holding this script)")
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite the sweep reference surfaces")
    ap.add_argument("--corrupt-answer", type=int, default=-1,
                    metavar="N", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.regen_reference and not args.workload:
        ap.error("--workload is required")
    set_root(args.root)
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    signal.signal(signal.SIGALRM, on_alarm)
    try:
        tools = ensure_build()
        if args.regen_reference:
            regen_reference(tools)
            return 0
        signal.alarm(int(args.seconds) + 120)
        ref = HostRef(tools)
        try:
            w = args.workload
            if w in SWEEPS:
                fn = sweep_traced if args.trace else sweep_e2e
                attempted, failed, metrics = fn(tools, ref, w, args.seconds)
            else:
                fn = serve_traced if args.trace else serve_e2e
                attempted, failed, metrics = fn(tools, ref, w, args.seed,
                                                args.seconds,
                                                args.corrupt_answer)
            ref.close()
        finally:
            ref.kill()
        signal.alarm(0)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error:", e)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
