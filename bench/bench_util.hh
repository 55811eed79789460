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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_util.hh"
#include "core/sweep_runner.hh"
#include "machine/machine.hh"
#include "paper_claims.hh"
#include "sim/pool.hh"
#include "sim/profiler.hh"
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
 * Any other argument, apart from a leading "full", exits 2 with a
 * message, as does a --jobs value outside 1..sim::maxJobs.
 *
 * Construct at the top of main (enables tracing before the machine is
 * built) and call finish() with the machine's stats group at the end.
 * Benches that keep no machine to report on (the FFT figures build
 * theirs on worker threads) pass Outputs::ProfileOnly: the trace and
 * stats options then exit 2 naming the option, and finish() without
 * a stats group prints only the profile.
 */
struct Observability
{
    /** Which options the bench can honour. */
    enum class Outputs { All, ProfileOnly };

    std::string traceOut;
    std::string statsJson;
    int jobs = 1;

    Observability(int argc, char **argv, Outputs outputs = Outputs::All)
    {
        std::uint32_t mask = trace::allCategories;
        int jobs_arg = 0;
        for (int i = fullRun(argc, argv) ? 2 : 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (outputs == Outputs::ProfileOnly &&
                (a.rfind("--trace-out=", 0) == 0 ||
                 a.rfind("--trace-categories=", 0) == 0 ||
                 a.rfind("--stats-json=", 0) == 0)) {
                std::fprintf(stderr,
                             "%s: %s is not supported: this bench "
                             "builds its machines on worker threads "
                             "and keeps no trace or stats (expected "
                             "[full] [--jobs=N] [--profile])\n",
                             argv[0], a.substr(0, a.find('=') + 1).c_str());
                std::exit(2);
            }
            if (a.rfind("--trace-out=", 0) == 0)
                traceOut = a.substr(12);
            else if (a.rfind("--trace-categories=", 0) == 0)
                mask = trace::parseCategories(a.substr(19));
            else if (a.rfind("--stats-json=", 0) == 0)
                statsJson = a.substr(13);
            else if (a.rfind("--jobs=", 0) == 0)
                jobs_arg = static_cast<int>(toolcli::parseIntOpt(
                    argv[0], "--jobs", a.substr(7), 1, sim::maxJobs));
            else if (a == "--profile")
                prof::Profiler::enable(true);
            else {
                std::fprintf(stderr,
                             "%s: unknown argument '%s' (expected "
                             "[full] [--trace-out=FILE] "
                             "[--trace-categories=LIST] "
                             "[--stats-json=FILE] [--jobs=N] "
                             "[--profile])\n",
                             argv[0], a.c_str());
                std::exit(2);
            }
        }
        prof::Profiler::enableFromEnv();
        jobs = sim::defaultJobs(jobs_arg);
        if (!traceOut.empty())
            trace::Tracer::instance().setMask(mask);
    }

    /** Print the profile, if requested; call at the end of main. */
    void
    finish() const
    {
        if (prof::enabled())
            prof::Profiler::instance().report(std::cerr);
    }

    /** Write the requested outputs; call at the end of main. */
    void
    finish(const stats::Group &root) const
    {
        if (!traceOut.empty())
            toolcli::writeTrace(traceOut);
        if (!statsJson.empty())
            toolcli::writeStatsJson(root, statsJson);
        finish();
    }
};

/**
 * core::sweep() of the tools/characterize benchmark @p name: a serial
 * or --jobs-parallel sweep whose outputs are byte-identical either way.
 */
inline core::Surface
sweep(machine::Machine &m, const char *name,
      const core::CharacterizeConfig &cfg, int jobs)
{
    return core::sweep(m, *core::SweepSpec::fromName(m.kind(), name),
                       cfg, jobs);
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

} // namespace gasnub::bench

#endif // GASNUB_BENCH_BENCH_UTIL_HH
