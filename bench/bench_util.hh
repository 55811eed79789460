/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * Every bench binary regenerates one figure of the paper: it prints
 * the same series the figure plots (bandwidth or MFlop/s tables) and
 * the paper-vs-model comparison block of the figure's rows of
 * paper_claims.hh (bench::compare).  Absolute numbers come from
 * calibrated machine models; the claim being checked is the *shape*
 * (plateaus, ratios, crossovers) — see EXPERIMENTS.md.
 *
 * Pass "full" as the first argument for the paper's full working-set
 * axis (up to 128 MB); the default grids are trimmed to keep each
 * bench around a minute.
 */

#ifndef GASNUB_BENCH_BENCH_UTIL_HH
#define GASNUB_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/characterizer.hh"
#include "core/sweep_runner.hh"
#include "gas/fft2d.hh"
#include "gas/runtime.hh"
#include "machine/machine.hh"
#include "paper_claims.hh"
#include "serve/planner_index.hh"
#include "sim/pool.hh"
#include "sim/profiler.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

namespace gasnub::bench {

/** True if the bench was invoked with the "full" argument. */
inline bool
fullRun(int argc, char **argv)
{
    return argc > 1 && std::strcmp(argv[1], "full") == 0;
}

/**
 * Observability options shared by the figure benches:
 *
 *   --trace-out=FILE         write an event trace (Chrome trace JSON,
 *                            or CSV when FILE ends in .csv)
 *   --trace-categories=LIST  comma-separated subset of
 *                            mem,noc,remote,kernel,sim (default all)
 *   --stats-json=FILE        dump the machine's stats tree as JSON
 *   --jobs=N                 worker threads for the sweeps (default:
 *                            GASNUB_JOBS, then hardware concurrency;
 *                            1 = serial; output is byte-identical
 *                            either way)
 *   --profile                profile the simulator itself: ranked
 *                            host wall-clock zone report on stderr
 *                            at finish() (GASNUB_PROFILE=1 works too)
 *
 * Construct at the top of main (enables tracing before the machine is
 * built) and call finish() with the machine's stats group at the end.
 */
struct Observability
{
    std::string traceOut;
    std::string statsJson;
    int jobs = 1;

    Observability(int argc, char **argv)
    {
        std::uint32_t mask = trace::allCategories;
        int jobs_arg = 0;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.rfind("--trace-out=", 0) == 0)
                traceOut = a.substr(12);
            else if (a.rfind("--trace-categories=", 0) == 0)
                mask = trace::parseCategories(a.substr(19));
            else if (a.rfind("--stats-json=", 0) == 0)
                statsJson = a.substr(13);
            else if (a.rfind("--jobs=", 0) == 0)
                jobs_arg = std::atoi(a.c_str() + 7);
            else if (a == "--profile")
                prof::Profiler::enable(true);
        }
        prof::Profiler::enableFromEnv();
        jobs = sim::defaultJobs(jobs_arg);
        if (!traceOut.empty())
            trace::Tracer::instance().setMask(mask);
    }

    /** Write the requested outputs; call at the end of main. */
    void
    finish(stats::Group &root) const
    {
        trace::Tracer &tracer = trace::Tracer::instance();
        if (!traceOut.empty()) {
            std::ofstream os(traceOut);
            const bool csv =
                traceOut.size() > 4 &&
                traceOut.compare(traceOut.size() - 4, 4, ".csv") == 0;
            if (csv)
                tracer.exportCsv(os);
            else
                tracer.exportChromeJson(os);
            std::fprintf(stderr, "trace: %zu events to %s",
                         tracer.size(), traceOut.c_str());
            if (tracer.dropped())
                std::fprintf(stderr, " (%llu dropped)",
                             static_cast<unsigned long long>(
                                 tracer.dropped()));
            std::fprintf(stderr, "\n");
        }
        if (!statsJson.empty()) {
            std::ofstream os(statsJson);
            root.dumpJson(os);
            os << "\n";
            std::fprintf(stderr, "stats: %s\n", statsJson.c_str());
        }
        if (prof::enabled())
            prof::Profiler::instance().report(std::cerr);
    }
};

/**
 * Run one characterization sweep on @p m, distributing grid points
 * over @p jobs workers when > 1.  Per-worker machine replicas are
 * built from m.systemConfig(); the surface, trace events, and stats
 * merge back deterministically, so every output is byte-identical to
 * a serial run (see docs/parallel_sweeps.md).
 */
inline core::Surface
sweep(machine::Machine &m, const core::SweepSpec &spec,
      const core::CharacterizeConfig &cfg, int jobs)
{
    if (jobs <= 1) {
        core::Characterizer c(m);
        return c.run(spec, cfg);
    }
    core::SweepRunner runner(m.systemConfig(), jobs);
    core::Surface s = runner.run(spec, cfg);
    runner.mergeStatsInto(m.statsGroup());
    return s;
}

/** sweep() of the tools/characterize benchmark @p name. */
inline core::Surface
sweep(machine::Machine &m, const char *name,
      const core::CharacterizeConfig &cfg, int jobs)
{
    return sweep(m, *core::SweepSpec::fromName(m.kind(), name), cfg, jobs);
}

/** Header line for a figure bench. */
inline void
banner(const std::string &figure, const std::string &caption)
{
    std::printf("==================================================="
                "=========\n");
    std::printf("%s — %s\n", figure.c_str(), caption.c_str());
    std::printf("==================================================="
                "=========\n");
}

/** Grid for the local load/store surfaces (Figures 1, 3, 6). */
inline core::CharacterizeConfig
surfaceGrid(bool full, std::uint64_t max_full,
            std::uint64_t cap_bytes)
{
    core::CharacterizeConfig cfg;
    cfg.maxWorkingSet = full ? max_full : 16_MiB;
    cfg.capBytes = cap_bytes;
    return cfg;
}

/**
 * Grid for the remote transfer surfaces (Figures 2, 4, 5, 7, 8):
 * remote sweeps cost a produce + transfer per point, so the default
 * working-set axis is 4x-spaced; "full" uses the paper's 2x axis.
 */
inline core::CharacterizeConfig
remoteGrid(bool full, std::uint64_t max_full, std::uint64_t cap_bytes)
{
    core::CharacterizeConfig cfg;
    cfg.capBytes = cap_bytes;
    if (full) {
        cfg.maxWorkingSet = max_full;
        return cfg;
    }
    for (std::uint64_t ws = 512; ws <= max_full / 2; ws *= 4)
        cfg.workingSets.push_back(ws);
    if (cfg.workingSets.back() != max_full / 2)
        cfg.workingSets.push_back(max_full / 2);
    return cfg;
}

/** One-row grid for the 65 MB copy-transfer slices (Figures 9-14). */
inline core::CharacterizeConfig
copySliceGrid(std::uint64_t cap_bytes)
{
    core::CharacterizeConfig cfg;
    cfg.workingSets = {65 * 1_MiB};
    cfg.capBytes = cap_bytes;
    return cfg;
}

/**
 * One pinned scenario of the benchmark protocol (tools/bench).
 *
 * Each scenario fixes a machine, a workload, and a grid; tools/bench
 * times it and records simulation throughput (points/sec) in
 * BENCH_<pr>.json, tracked across PRs (see docs/perf_tracking.md).
 * Grids are pinned literals — never "full"/host-derived defaults — so
 * the work per run is identical on every host and every PR.
 */
struct PerfScenario
{
    std::string name; ///< stable key, e.g. "t3d.local.loads"
    machine::SystemKind kind = machine::SystemKind::CrayT3D;
    int procs = 4;
    core::SweepSpec spec; ///< ignored when fft
    core::CharacterizeConfig cfg;
    bool fft = false;      ///< run the gas 2D-FFT app, not a sweep
    std::uint64_t fftN = 64;
    bool serve = false; ///< run plan queries against a PlannerIndex
    std::uint64_t serveQueries = 0;
    bool serveHotMix = false; ///< hot 64-key mix vs uniform keys
    /** Measure per-query p99 latency instead of bulk throughput; the
     *  recorded rate becomes 1e9 / p99_ns (inverse tail latency), so
     *  the existing --compare gate flags p99 growth as a regression. */
    bool serveSlo = false;
};

/** Work counters from one scenario execution. */
struct PerfRunCounts
{
    std::uint64_t points = 0;   ///< grid points (1 for the FFT)
    std::uint64_t accesses = 0; ///< simulated word accesses
    std::uint64_t sloP99Ns = 0; ///< p99 query latency (serveSlo only)
};

/** The fixed scenario registry of the benchmark protocol. */
inline std::vector<PerfScenario>
perfScenarios()
{
    using machine::SystemKind;
    std::vector<PerfScenario> out;

    // Local-load sweeps on all three machines: the dominant cost of
    // figure regeneration, and the purest measure of the per-access
    // simulation path (hierarchy read + cache model).
    core::CharacterizeConfig local;
    local.workingSets = {512, 2_KiB, 8_KiB, 32_KiB, 128_KiB};
    local.strides = {1, 2, 4, 8, 16, 32, 64, 128};
    local.capBytes = 128_KiB;
    for (SystemKind kind : {SystemKind::Dec8400, SystemKind::CrayT3D,
                            SystemKind::CrayT3E}) {
        PerfScenario s;
        s.name = std::string(kind == SystemKind::Dec8400 ? "dec8400"
                             : kind == SystemKind::CrayT3D ? "t3d"
                                                           : "t3e") +
                 ".local.loads";
        s.kind = kind;
        s.spec = core::SweepSpec::localLoads(0);
        s.cfg = local;
        out.push_back(std::move(s));
    }

    // One remote sweep per machine, using its native method: remote
    // points exercise the NoC, engines, and coherence paths.
    core::CharacterizeConfig remote;
    remote.workingSets = {512, 2_KiB, 8_KiB, 32_KiB};
    remote.strides = {1, 4, 16, 64};
    remote.capBytes = 128_KiB;
    {
        PerfScenario s;
        s.name = "dec8400.remote.pull";
        s.kind = SystemKind::Dec8400;
        s.spec = core::SweepSpec::remote(
            remote::TransferMethod::CoherentPull, true, 1, 0);
        s.cfg = remote;
        out.push_back(std::move(s));
    }
    {
        PerfScenario s;
        s.name = "t3d.remote.fetch";
        s.kind = SystemKind::CrayT3D;
        s.spec = core::SweepSpec::remote(remote::TransferMethod::Fetch,
                                         true, 0, 2);
        s.cfg = remote;
        out.push_back(std::move(s));
    }
    {
        PerfScenario s;
        s.name = "t3e.remote.deposit";
        s.kind = SystemKind::CrayT3E;
        s.spec = core::SweepSpec::remote(
            remote::TransferMethod::Deposit, false, 1, 0);
        s.cfg = remote;
        out.push_back(std::move(s));
    }

    // The gas-runtime application path: allocation, planner, barrier,
    // and transfer-op overheads that no sweep touches.
    {
        PerfScenario s;
        s.name = "t3e.gas.fft2d";
        s.kind = SystemKind::CrayT3E;
        s.fft = true;
        s.fftN = 64;
        out.push_back(std::move(s));
    }

    // The serving path (serve::PlannerIndex): plan-query throughput
    // over a synthetic three-machine index.  hot = repetitive stream
    // (95% of queries from 64 keys), uniform = diverse stream.
    {
        PerfScenario s;
        s.name = "serve.qps.hot";
        s.serve = true;
        s.serveQueries = 2'000'000;
        s.serveHotMix = true;
        out.push_back(std::move(s));
    }
    {
        PerfScenario s;
        s.name = "serve.qps.uniform";
        s.serve = true;
        s.serveQueries = 1'000'000;
        out.push_back(std::move(s));
    }
    // Tail latency, not throughput: the hot stream again, but the
    // tracked number is 1e9/p99_ns so the regression gate catches a
    // slow outlier path (an allocation sneaking into plan()) that
    // averages would hide.
    {
        PerfScenario s;
        s.name = "serve.slo.p99";
        s.serve = true;
        s.serveSlo = true;
        s.serveQueries = 2'000'000;
        s.serveHotMix = true;
        out.push_back(std::move(s));
    }
    return out;
}

/**
 * A deterministic three-machine pack set for the serve scenarios:
 * synthetic surfaces (smooth analytic bandwidth shapes over an
 * 8 x 6 grid) so the scenario needs no measured files and every host
 * runs the identical index.
 */
inline std::vector<serve::MachinePack>
servePerfPacks()
{
    std::vector<serve::MachinePack> packs;
    const std::vector<std::uint64_t> ws = {1_KiB,   4_KiB,  16_KiB,
                                           64_KiB, 256_KiB, 1_MiB,
                                           4_MiB,  16_MiB};
    const std::vector<std::uint64_t> strides = {1, 2, 4, 8, 16, 64};
    int seed = 1;
    for (const char *name : {"t3e", "t3d", "dec8400"}) {
        serve::MachinePack p;
        p.machine = name;
        for (const char *label : {"pull", "fetch-sload",
                                  "deposit-sstore"}) {
            core::Surface s(std::string(name) + " " + label, ws,
                            strides);
            double v = 40.0 * seed;
            for (std::uint64_t w : ws) {
                for (std::uint64_t st : strides) {
                    v = v * 1.0001 + 1.0 / static_cast<double>(st);
                    s.set(w, st,
                          v / (1.0 + static_cast<double>(w) / 8_MiB));
                }
            }
            const auto kind =
                label[0] == 'p'
                    ? remote::TransferMethod::CoherentPull
                    : label[0] == 'f' ? remote::TransferMethod::Fetch
                                      : remote::TransferMethod::Deposit;
            p.options.emplace_back(label, kind, label[0] != 'd',
                                   std::move(s));
            ++seed;
        }
        packs.push_back(std::move(p));
    }
    return packs;
}

/** Where runServeScenario publishes its answer fold. */
inline volatile std::uint64_t servePublished = 0;

/**
 * Issue @p s.serveQueries single-threaded plan queries against a
 * fresh index; the same seeded stream as tools/loadgen's mixes.  The
 * XOR fold keeps the answers observable so the loop cannot be
 * optimized away.
 */
inline PerfRunCounts
runServeScenario(const PerfScenario &s)
{
    const serve::PlannerIndex index(servePerfPacks());
    sim::Rng rng(42);
    const std::size_t machines = index.numMachines();

    core::TransferQuery hot[64];
    std::size_t hot_machine[64];
    for (int i = 0; i < 64; ++i) {
        hot_machine[i] = rng.below(machines);
        hot[i].wsBytes = (std::uint64_t(1024) << rng.below(15)) +
                         8 * rng.below(4096);
        hot[i].bytes = hot[i].wsBytes;
        hot[i].stride = std::uint64_t(1) << rng.below(8);
    }

    std::uint64_t sink = 0;
    stats::Histogram latency(nullptr, "latency_ns",
                             "per-query plan latency");
    for (std::uint64_t i = 0; i < s.serveQueries; ++i) {
        std::size_t machine;
        core::TransferQuery q;
        if (s.serveHotMix && rng.below(20) < 19) {
            const std::uint64_t k = rng.below(64);
            machine = hot_machine[k];
            q = hot[k];
        } else {
            machine = rng.below(machines);
            q.wsBytes = (std::uint64_t(1024) << rng.below(15)) +
                        8 * rng.below(4096);
            q.bytes = q.wsBytes;
            q.stride = std::uint64_t(1) << rng.below(8);
        }
        if (s.serveSlo) {
            const auto t0 = std::chrono::steady_clock::now();
            const serve::PlanAnswer a = index.plan(machine, q);
            const auto t1 = std::chrono::steady_clock::now();
            sink ^= a.optionIndex;
            latency.sample(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count()));
        } else {
            const serve::PlanAnswer a = index.plan(machine, q);
            sink ^= a.optionIndex;
        }
    }
    // Publish the fold so the optimizer must keep the plan calls.
    servePublished = sink;

    PerfRunCounts counts;
    counts.points = s.serveQueries;
    counts.accesses = s.serveQueries;
    if (s.serveSlo)
        counts.sloP99Ns = static_cast<std::uint64_t>(
            latency.percentile(0.99));
    return counts;
}

/** Run @p s once (serial or over @p jobs workers for sweeps). */
inline PerfRunCounts
runPerfScenario(const PerfScenario &s, int jobs = 1)
{
    if (s.serve)
        return runServeScenario(s);
    machine::SystemConfig sys;
    sys.kind = s.kind;
    sys.numNodes = s.procs;
    PerfRunCounts counts;
    if (s.fft) {
        machine::Machine m(sys);
        gas::Runtime rt(m, gas::RuntimeConfig{});
        gas::Fft2d app(rt);
        gas::Fft2dConfig cfg;
        cfg.n = s.fftN;
        app.run(cfg);
        counts.points = 1;
        counts.accesses = rt.deliveredBytes() / 8;
        return counts;
    }
    if (jobs <= 1) {
        machine::Machine m(sys);
        core::Characterizer chr(m);
        chr.run(s.spec, s.cfg);
        counts.points = chr.points();
        counts.accesses = chr.accesses();
    } else {
        core::SweepRunner runner(sys, jobs);
        runner.run(s.spec, s.cfg);
        counts.points = runner.points();
        counts.accesses = runner.accesses();
    }
    return counts;
}

} // namespace gasnub::bench

#endif // GASNUB_BENCH_BENCH_UTIL_HH
