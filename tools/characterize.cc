/**
 * @file
 * Command-line characterizer: run any of the paper's micro-benchmark
 * sweeps on any machine and print (or save) the resulting surface.
 *
 *   characterize <machine> <benchmark> [options]
 *
 *   machine    dec8400 | t3d | t3e
 *   benchmark  loads | stores | copy-sload | copy-sstore |
 *              pull | fetch-sload | fetch-sstore |
 *              deposit-sload | deposit-sstore
 *   options    --max-ws <size>   largest working set (default 8M)
 *              --cap <size>      simulation cap (default 4M)
 *              --out <file>      save the surface (gasnub format)
 *              --procs <n>       machine size (default 4)
 *              --trace-out <file>        event trace (Chrome trace
 *                                        JSON; CSV if <file> ends in
 *                                        .csv)
 *              --trace-categories <list> comma-separated subset of
 *                                        mem,noc,remote,kernel,sim
 *              --stats-json <file>       stats tree as JSON
 *              --jobs <n>        worker threads for the sweep
 *                                (default: GASNUB_JOBS, then hardware
 *                                concurrency; 1 = serial)
 *
 * Options accept both "--opt value" and "--opt=value"; unknown or
 * malformed options are rejected with a usage error.
 *
 * Parallel sweeps produce byte-identical surface, trace, and stats
 * output to --jobs 1 (see docs/parallel_sweeps.md).
 *
 * Saved surfaces can be reloaded with core::loadSurfaceFile and fed
 * to the TransferPlanner — the measure-once / decide-often split of
 * the paper's compiler workflow.  Remote benchmark names double as
 * the core::loadPlannerDir naming convention: export each remote
 * surface as <benchmark>.surface into one directory and a planner
 * (or a gas::Runtime with Method::Auto) rebuilds the machine's cost
 * model from it.  `characterize --help` walks through the pipeline.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli_util.hh"
#include "core/characterizer.hh"
#include "core/surface_io.hh"
#include "core/sweep_runner.hh"
#include "machine/machine.hh"
#include "sim/logging.hh"
#include "sim/pool.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

using namespace gasnub;

namespace {

void
printUsage(std::ostream &os)
{
    os << "usage: characterize <dec8400|t3d|t3e> <benchmark> "
          "[--max-ws N] [--cap N]\n"
          "                    [--out FILE] [--procs N] [--jobs N]\n"
          "                    [--trace-out FILE] "
          "[--trace-categories LIST]\n"
          "                    [--stats-json FILE] [--attribution]\n"
          "                    [--profile] [--profile-json FILE] "
          "[--profile-folded FILE]\n"
          "       characterize --help\n"
          "benchmarks: loads stores copy-sload copy-sstore pull\n"
          "            fetch-sload fetch-sstore deposit-sload "
          "deposit-sstore\n";
}

void
usage()
{
    printUsage(std::cerr);
    std::exit(2);
}

/** --help: the full option reference plus the planner pipeline. */
void
help()
{
    printUsage(std::cout);
    std::cout
        << "\n"
           "options:\n"
           "  --max-ws N          largest working set (default 8M; "
           "sizes take K/M suffixes)\n"
           "  --cap N             simulation cap per grid point "
           "(default 4M)\n"
           "  --out FILE          save the surface (gasnub format, "
           "loadable with\n"
           "                      core::loadSurfaceFile)\n"
           "  --procs N           machine size in nodes (default 4)\n"
           "  --jobs N            worker threads for the sweep "
           "(default: GASNUB_JOBS,\n"
           "                      then hardware concurrency; 1 = "
           "serial; any value gives\n"
           "                      byte-identical output)\n"
           "  --trace-out FILE    event trace (Chrome trace JSON; CSV "
           "if FILE ends in .csv)\n"
           "  --trace-categories  comma-separated subset of "
           "mem,noc,remote,kernel,sim\n"
           "  --stats-json FILE   stats tree as JSON; with --jobs N "
           "the workers'\n"
           "                      stats are merged deterministically, "
           "so the file is\n"
           "                      byte-identical for any N (including "
           "the timeAccount\n"
           "                      ledger written with --attribution)\n"
           "  --attribution       account every simulated tick to the "
           "hardware\n"
           "                      resource that consumed it; surfaces "
           "saved with --out\n"
           "                      gain per-point attribution rows "
           "(format v2) and\n"
           "                      --stats-json gains the cumulative "
           "ledger; feed either\n"
           "                      to tools/report for a ranked "
           "bottleneck breakdown\n"
           "  --profile           profile the simulator itself "
           "(host wall clock):\n"
           "                      ranked zone report and per-thread "
           "busy time on\n"
           "                      stderr (GASNUB_PROFILE=1 works "
           "too); surfaces and\n"
           "                      --stats-json stay byte-identical\n"
           "  --profile-json FILE  write the zone profile as JSON "
           "(implies --profile)\n"
           "  --profile-folded FILE  write folded stacks for "
           "flamegraph.pl /\n"
           "                      speedscope (implies --profile); see "
           "docs/perf_tracking.md\n"
           "\n"
           "measure once, decide often — the planner pipeline:\n"
           "\n"
           "  The remote benchmarks (pull, fetch-sload, fetch-sstore,\n"
           "  deposit-sload, deposit-sstore) are a machine's transfer\n"
           "  implementation options.  Export each surface under its\n"
           "  benchmark name into one directory:\n"
           "\n"
           "    characterize t3e fetch-sload    --out s/fetch-sload."
           "surface\n"
           "    characterize t3e deposit-sstore --out s/deposit-sstore."
           "surface\n"
           "\n"
           "  then rebuild the cost model without re-simulating:\n"
           "  core::loadPlannerDir(\"s\") returns a TransferPlanner "
           "whose\n"
           "  best() picks the fastest option per transfer shape, and\n"
           "  gas::Runtime::setPlanner(core::loadPlannerDir(\"s\")) "
           "makes\n"
           "  every rput/rget with Method::Auto consult it — "
           "reproducing\n"
           "  the paper's Section 9 back-end choices per call.  See\n"
           "  docs/gas_runtime.md and examples/gas_halo.cpp "
           "(--surfaces).\n";
    std::exit(0);
}

/** Reject a bad command line with a message and the usage text. */
void
fail(const std::string &message)
{
    std::cerr << "characterize: " << message << "\n";
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0)
            help();
    }
    if (argc < 3)
        usage();

    machine::SystemKind kind;
    const std::string mname = argv[1];
    if (mname == "dec8400")
        kind = machine::SystemKind::Dec8400;
    else if (mname == "t3d")
        kind = machine::SystemKind::CrayT3D;
    else if (mname == "t3e")
        kind = machine::SystemKind::CrayT3E;
    else
        usage();

    const std::string benchmark = argv[2];
    std::uint64_t max_ws = 8_MiB;
    std::uint64_t cap = 4_MiB;
    std::string out;
    int procs = 4;
    int jobs_arg = 0;
    std::string trace_out;
    std::string trace_categories = "all";
    std::string stats_json;
    bool attribution = false;
    bool profile = false;
    std::string profile_json;
    std::string profile_folded;
    for (int i = 3; i < argc; ++i) {
        std::string opt = argv[i];
        std::string val;
        if (opt.rfind("--", 0) != 0)
            fail("unexpected argument '" + opt + "'");
        if (opt == "--attribution") {
            attribution = true;
            continue;
        }
        if (opt == "--profile") {
            profile = true;
            continue;
        }
        // Accept both "--opt value" and "--opt=value".
        const std::size_t eq = opt.find('=');
        if (eq != std::string::npos) {
            val = opt.substr(eq + 1);
            opt = opt.substr(0, eq);
            if (val.empty())
                fail("empty value in '" + std::string(argv[i]) + "'");
        } else {
            if (i + 1 >= argc)
                fail("option " + opt + " needs a value");
            val = argv[++i];
            if (val.rfind("--", 0) == 0)
                fail("option " + opt + " needs a value (got '" + val +
                     "')");
        }
        if (opt == "--max-ws")
            max_ws = parseSize(val);
        else if (opt == "--cap")
            cap = parseSize(val);
        else if (opt == "--out")
            out = val;
        else if (opt == "--procs")
            procs = static_cast<int>(toolcli::parseIntOpt(
                "characterize", opt, val, 1, 1'000'000));
        else if (opt == "--jobs")
            jobs_arg = static_cast<int>(toolcli::parseIntOpt(
                "characterize", opt, val, 1, sim::maxJobs));
        else if (opt == "--trace-out")
            trace_out = val;
        else if (opt == "--trace-categories")
            trace_categories = val;
        else if (opt == "--stats-json")
            stats_json = val;
        else if (opt == "--profile-json")
            profile_json = val;
        else if (opt == "--profile-folded")
            profile_folded = val;
        else
            fail("unknown option '" + opt + "'");
    }

    if (profile || !profile_json.empty() || !profile_folded.empty())
        prof::Profiler::enable(true);
    prof::Profiler::enableFromEnv();

    if (!trace_out.empty())
        trace::Tracer::instance().setMask(
            trace::parseCategories(trace_categories));

    core::CharacterizeConfig cfg;
    cfg.maxWorkingSet = max_ws;
    cfg.capBytes = cap;

    const std::optional<core::SweepSpec> spec =
        core::SweepSpec::fromName(kind, benchmark);
    if (!spec)
        fail("unknown benchmark '" + benchmark + "'");

    // The main machine is constructed either way: it registers the
    // same trace tracks a serial run would, and it is where parallel
    // workers' stats are merged, so the observability outputs are
    // byte-identical for any --jobs value.
    machine::SystemConfig sys;
    sys.kind = kind;
    sys.numNodes = procs;
    sys.attribution = attribution;
    machine::Machine m(sys);

    const core::Surface s =
        core::sweep(m, *spec, cfg, sim::defaultJobs(jobs_arg));

    s.print(std::cout);
    if (!out.empty()) {
        core::saveSurfaceFile(s, out);
        std::cout << "saved to " << out << "\n";
    }
    if (!trace_out.empty())
        toolcli::writeTrace(trace_out);
    if (!stats_json.empty())
        toolcli::writeStatsJson(m.statsGroup(), stats_json);
    if (prof::enabled()) {
        const prof::Profiler &profiler = prof::Profiler::instance();
        profiler.report(std::cerr);
        if (!profile_json.empty()) {
            std::ofstream os(profile_json);
            if (!os)
                GASNUB_FATAL("cannot open ", profile_json);
            profiler.reportJson(os);
            std::cerr << "profile: " << profile_json << "\n";
        }
        if (!profile_folded.empty()) {
            std::ofstream os(profile_folded);
            if (!os)
                GASNUB_FATAL("cannot open ", profile_folded);
            profiler.reportFolded(os);
            std::cerr << "profile: " << profile_folded << "\n";
        }
    }
    return 0;
}
