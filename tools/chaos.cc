/**
 * @file
 * Chaos harness: sweep the fault scenario library over the paper's
 * three machines and assert the robustness invariants end to end.
 *
 * Each (machine, scenario) cell runs the gas-runtime 2D-FFT with
 * verified numerics under the scenario's FaultPlan, inside a
 * wall-clock watchdog, twice.  The harness then checks:
 *
 *   - no hang: every run finishes before the watchdog fires
 *     (a wedged run hard-exits 124 instead of blocking CI);
 *   - determinism: both runs agree on every tick and byte;
 *   - recoverable scenarios lose nothing: zero failed ops, the
 *     delivered byte count of the fault-free baseline, and exact FFT
 *     numerics — retries and detours absorb the faults;
 *   - unrecoverable scenarios terminate cleanly: failures surface as
 *     counted failed ops (TransferStatus), never as aborts, and the
 *     delivered bytes stay within the baseline (nothing is forged);
 *   - zero overhead when off: the fault-free baseline built through a
 *     SystemConfig with an empty plan is tick-identical to a plain
 *     Machine, so disabled fault hooks perturb nothing.
 *
 *   chaos [--machine M] [--scenario S] [--faults SPEC] [--n N]
 *         [--watchdog SECONDS] [--stats-json FILE] [--list]
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli_util.hh"
#include "gas/fft2d.hh"
#include "gas/runtime.hh"
#include "machine/machine.hh"
#include "sim/fault.hh"

using namespace gasnub;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: chaos [--machine dec8400|t3d|t3e|all] "
        "[--scenario NAME|all]\n"
        "             [--faults SPEC] [--n N] [--watchdog SECONDS]\n"
        "             [--stats-json FILE] [--list]\n"
        "  --machine M    machine(s) to sweep (default all)\n"
        "  --scenario S   built-in scenario to run (default all; "
        "--list names them)\n"
        "  --faults SPEC  additional custom scenario from a fault "
        "spec or @file\n"
        "  --n N          FFT size, 8 to 65536 (default 64)\n"
        "  --watchdog S   wall-clock budget per run in seconds "
        "(default 120)\n"
        "  --stats-json FILE  write the stats tree (including the\n"
        "                 timeAccount attribution ledger) of the last\n"
        "                 scenario run to FILE; feed it to tools/report\n"
        "  --list         print the scenario library and exit\n");
    std::exit(2);
}

/**
 * The --watchdog budget: the whole of @p val must parse as a positive
 * finite number of seconds, else exit 2 naming the value.
 */
double
parseWatchdog(const std::string &val)
{
    double v = 0;
    const char *last = val.data() + val.size();
    const auto [end, ec] = std::from_chars(val.data(), last, v);
    if (val.empty() || ec != std::errc() || end != last ||
        !std::isfinite(v) || v <= 0) {
        std::fprintf(stderr,
                     "chaos: bad value '%s' for --watchdog (expected a "
                     "positive number of seconds)\n",
                     val.c_str());
        std::exit(2);
    }
    return v;
}

/** One run's observable fingerprint. */
struct RunResult
{
    Tick totalTicks = 0;
    double maxError = 0;
    std::uint64_t failedOps = 0;
    std::uint64_t retries = 0;
    double deliveredBytes = 0;

    bool operator==(const RunResult &o) const
    {
        return totalTicks == o.totalTicks && maxError == o.maxError &&
               failedOps == o.failedOps && retries == o.retries &&
               deliveredBytes == o.deliveredBytes;
    }
};

/**
 * The gas 2D-FFT under @p plan on a fresh machine of @p kind.  A
 * non-empty @p stats_json additionally builds the attribution ledger
 * and dumps the machine's stats tree to that file.
 */
RunResult
runOnce(machine::SystemKind kind, const sim::FaultPlan &plan,
        std::uint64_t n, const std::string &stats_json = "")
{
    machine::SystemConfig sys;
    sys.kind = kind;
    sys.numNodes = 4;
    sys.faults = plan;
    sys.attribution = !stats_json.empty();
    machine::Machine m(sys);

    gas::RuntimeConfig rcfg;
    rcfg.regionsPerNode = 2;
    // A little extra retry headroom over the library default: chaos
    // scenarios are judged on "recoverable means nothing lost", so a
    // deterministic streak of flaky failures must not exhaust the
    // budget.
    rcfg.retry.maxAttempts = 6;
    gas::Runtime rt(m, rcfg);

    gas::Fft2d app(rt);
    gas::Fft2dConfig cfg;
    cfg.n = n;
    cfg.verifyNumerics = true;
    const fft::Fft2dResult r = app.run(cfg);

    RunResult out;
    out.totalTicks = r.totalTicks;
    out.maxError = r.maxError;
    out.failedOps = rt.failedOps();
    out.retries = rt.retries();
    out.deliveredBytes = rt.deliveredBytes();
    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::fprintf(stderr, "chaos: cannot open %s\n",
                         stats_json.c_str());
            std::exit(2);
        }
        m.statsGroup().dumpJson(os);
        os << "\n";
    }
    return out;
}

int violations = 0;

void
check(bool ok, const std::string &label, const std::string &what)
{
    if (ok)
        return;
    ++violations;
    std::fprintf(stderr, "chaos: FAIL [%s] %s\n", label.c_str(),
                 what.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string machine_arg = "all";
    std::string scenario_arg = "all";
    std::string faults_arg;
    std::string stats_json;
    std::uint64_t n = 64;
    double watchdog_s = 120;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        if (opt == "--list") {
            for (const sim::ChaosScenario &s : sim::chaosScenarios())
                std::printf("%-20s %-13s %s\n", s.name.c_str(),
                            s.recoverable ? "recoverable"
                                          : "unrecoverable",
                            s.spec.empty() ? "(no faults)"
                                           : s.spec.c_str());
            return 0;
        }
        if (opt == "--help" || opt == "-h")
            usage();
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        if (opt == "--machine")
            machine_arg = val;
        else if (opt == "--scenario")
            scenario_arg = val;
        else if (opt == "--faults")
            faults_arg = val;
        else if (opt == "--n")
            n = static_cast<std::uint64_t>(toolcli::parseIntOpt(
                "chaos", opt, val, 8, std::int64_t{1} << 16));
        else if (opt == "--watchdog")
            watchdog_s = parseWatchdog(val);
        else if (opt == "--stats-json")
            stats_json = val;
        else
            usage();
    }

    std::vector<machine::SystemKind> kinds;
    if (machine_arg == "all" || machine_arg == "dec8400")
        kinds.push_back(machine::SystemKind::Dec8400);
    if (machine_arg == "all" || machine_arg == "t3d")
        kinds.push_back(machine::SystemKind::CrayT3D);
    if (machine_arg == "all" || machine_arg == "t3e")
        kinds.push_back(machine::SystemKind::CrayT3E);
    if (kinds.empty())
        usage();

    std::vector<sim::ChaosScenario> scenarios;
    for (const sim::ChaosScenario &s : sim::chaosScenarios())
        if (scenario_arg == "all" || scenario_arg == s.name)
            scenarios.push_back(s);
    if (!faults_arg.empty())
        scenarios.push_back({"custom", faults_arg, false});
    if (scenarios.empty()) {
        std::fprintf(stderr,
                     "chaos: no scenario named '%s' (--list)\n",
                     scenario_arg.c_str());
        return 2;
    }

    std::printf("%-9s %-20s %12s %8s %8s %10s %12s  %s\n", "machine",
                "scenario", "ticks", "retries", "failed", "maxError",
                "delivered", "verdict");
    for (const machine::SystemKind kind : kinds) {
        const std::string mname = machine::systemName(kind);

        // Fault-free reference, built both ways: the plain-Machine
        // run proves an empty plan adds zero overhead, and its
        // delivered-byte count is the conservation baseline below.
        RunResult base;
        {
            sim::Watchdog wd(watchdog_s, mname + "/baseline");
            base = runOnce(kind, sim::FaultPlan(), n);
            machine::Machine plain(kind, 4);
            gas::RuntimeConfig rcfg;
            rcfg.regionsPerNode = 2;
            gas::Runtime rt(plain, rcfg);
            gas::Fft2d app(rt);
            gas::Fft2dConfig cfg;
            cfg.n = n;
            cfg.verifyNumerics = true;
            const fft::Fft2dResult r = app.run(cfg);
            check(r.totalTicks == base.totalTicks &&
                      r.maxError == base.maxError,
                  mname + "/baseline",
                  "empty fault plan perturbs timing: plain machine "
                  "and empty-plan machine disagree");
        }

        for (const sim::ChaosScenario &s : scenarios) {
            const std::string label = mname + "/" + s.name;
            sim::Watchdog wd(watchdog_s, label);
            const sim::FaultPlan plan = sim::FaultPlan::resolve(s.spec);
            // Run a carries the attribution ledger when requested,
            // run b never does — so the determinism check doubles as
            // proof that accounting perturbs no timing.
            const RunResult a = runOnce(kind, plan, n, stats_json);
            const RunResult b = runOnce(kind, plan, n);
            check(a == b, label,
                  "two identical runs disagree; fault injection is "
                  "not deterministic (or attribution perturbs "
                  "timing)");
            if (s.recoverable) {
                check(a.failedOps == 0, label,
                      "recoverable scenario lost " +
                          std::to_string(a.failedOps) +
                          " op(s) for good");
                check(a.deliveredBytes == base.deliveredBytes, label,
                      "bytes not conserved: delivered " +
                          std::to_string(a.deliveredBytes) + " vs " +
                          std::to_string(base.deliveredBytes) +
                          " fault-free");
            } else {
                check(a.deliveredBytes <= base.deliveredBytes, label,
                      "delivered more bytes than the workload sent");
            }
            if (a.failedOps == 0)
                check(a.maxError <= 1e-6, label,
                      "no op failed but FFT numerics are off by " +
                          std::to_string(a.maxError));
            const bool cell_ok =
                a == b &&
                (!s.recoverable ||
                 (a.failedOps == 0 &&
                  a.deliveredBytes == base.deliveredBytes)) &&
                (a.failedOps != 0 || a.maxError <= 1e-6);
            std::printf("%-9s %-20s %12llu %8llu %8llu %10.2e %12.0f"
                        "  %s\n",
                        mname.c_str(), s.name.c_str(),
                        static_cast<unsigned long long>(a.totalTicks),
                        static_cast<unsigned long long>(a.retries),
                        static_cast<unsigned long long>(a.failedOps),
                        a.maxError, a.deliveredBytes,
                        cell_ok ? "ok" : "FAIL");
        }
    }

    if (violations) {
        std::fprintf(stderr, "chaos: %d invariant violation(s)\n",
                     violations);
        return 1;
    }
    std::printf("chaos: all invariants hold\n");
    return 0;
}
