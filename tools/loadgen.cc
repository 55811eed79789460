/**
 * @file
 * Deterministic load harness for the planner-as-a-service stack.
 *
 *   loadgen --pack FILE [--pack FILE ...] --queries N [--threads T]
 *           [--mix uniform|hot|scan] [--seed S] [--json]
 *           [--profile] [--metrics-out FILE]
 *           [--metrics-interval-ms N] [--timeline FILE]
 *
 * Drives millions of plan queries through one shared
 * serve::PlannerIndex from T threads and reports sustained
 * queries/sec plus p50/p95/p99 per-query latency (per-thread
 * stats::Histogram of nanoseconds, merged order-independently).  The
 * query stream is a pure function of (--seed, --mix): it is cut into
 * independently seeded blocks that the threads take round-robin, so
 * two runs issue the identical query multiset regardless of
 * scheduling or --threads; an order-independent XOR checksum over
 * the answers' predicted-bandwidth bits is printed so runs can be
 * diffed for answer drift, not just throughput.
 *
 * Mixes:
 *   uniform  many distinct (ws, stride) keys
 *   hot      95% of queries from 64 hot keys
 *   scan     a fixed 1024-query cycle
 *
 * Live telemetry (--metrics-out / --timeline) feeds the process-wide
 * metrics::Registry while load runs: a loadgen.queries counter
 * (exact; CI asserts it equals the completed-query count) and a
 * loadgen.latency_us rolling-window histogram.  --metrics-out
 * re-exports the registry atomically every interval; --timeline
 * appends one JSON line per second with the completed count, 1s rate,
 * and 1s-window p50/p95/p99, all read from the same registry a
 * scraper would see.  The stdout report and the answer checksum are
 * byte-identical with telemetry on or off.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hh"
#include "core/planner.hh"
#include "metrics_flush.hh"
#include "serve/planner_index.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/profiler.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace gasnub;

namespace {

void
printUsage(std::ostream &os)
{
    os << "usage: loadgen --pack FILE [--pack FILE ...] --queries N "
          "[options]\n"
          "  --pack FILE        gas-pack-1 surface pack "
          "(repeatable)\n"
          "  --queries N        total queries to issue (required)\n"
          "  --threads T        worker threads (default 1)\n"
          "  --mix NAME         uniform | hot | scan (default "
          "uniform)\n"
          "  --seed S           query-stream seed (default 1)\n"
          "  --json             machine-readable report on stdout\n"
          "  --profile          profiler zone report on stderr\n"
          "  --metrics-out FILE live metrics exposition, rewritten "
          "atomically\n"
          "                     (.json -> JSON, else Prometheus "
          "text)\n"
          "  --metrics-interval-ms N\n"
          "                     flush period for --metrics-out "
          "(default 1000)\n"
          "  --timeline FILE    one JSON line per second: completed, "
          "rate,\n"
          "                     1s-window p50/p95/p99\n"
          "Benchmarks serve::PlannerIndex under a deterministic "
          "seeded query\nmix: reports queries/sec, p50/p95/p99 "
          "latency, and an\norder-independent answer checksum "
          "(docs/planner_service.md).\n";
}

[[noreturn]] void
usage()
{
    printUsage(std::cerr);
    std::exit(2);
}

enum class Mix { Uniform, Hot, Scan };

/** One pre-materialized query (machine id + planner query). */
struct GenQuery
{
    std::size_t machine = 0;
    core::TransferQuery query;
};

/** A random but well-formed query: ws in [1 KiB, 16 MiB), word-
 *  aligned jitter for key diversity, power-of-two stride. */
GenQuery
uniformQuery(sim::Rng &rng, std::size_t machines)
{
    GenQuery q;
    q.machine = rng.below(machines);
    const std::uint64_t base = std::uint64_t(1024)
                               << rng.below(15);
    q.query.wsBytes = base + 8 * rng.below(4096);
    q.query.bytes = q.query.wsBytes;
    q.query.stride = std::uint64_t(1) << rng.below(8);
    return q;
}

/** The fixed key set a mix draws from (hot: 64, scan: 1024). */
std::vector<GenQuery>
fixedKeys(std::uint64_t seed, std::size_t machines, std::size_t n)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
    std::vector<GenQuery> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back(uniformQuery(rng, machines));
    return keys;
}

struct ThreadResult
{
    std::uint64_t issued = 0;
    std::uint64_t checksum = 0; ///< XOR of predictedMBs bit patterns
    stats::Histogram latency{nullptr, "latency_ns",
                             "per-query plan latency"};
};

/** Registry handles shared by all workers (null when telemetry is
 *  off; the off path costs one branch per query). */
struct Telemetry
{
    metrics::Counter *queries = nullptr;
    metrics::Histogram *latencyUs = nullptr;
};

/**
 * Queries per independently seeded block of the stream.  Blocks go to
 * the threads round-robin, so the query multiset — and with it the
 * order-independent checksum — does not depend on --threads.
 */
constexpr std::uint64_t kStreamBlock = 4096;

void
worker(const serve::PlannerIndex &index, Mix mix,
       const std::vector<GenQuery> &keys, std::uint64_t seed,
       std::size_t thread_id, std::size_t threads,
       std::uint64_t queries, ThreadResult &result,
       const Telemetry &telem)
{
    GASNUB_PROF_ZONE("loadgen.worker");
    const std::size_t machines = index.numMachines();
    for (std::uint64_t b = thread_id; b * kStreamBlock < queries;
         b += threads) {
        sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + b + 1);
        const std::uint64_t end =
            std::min(queries, (b + 1) * kStreamBlock);
        for (std::uint64_t i = b * kStreamBlock; i < end; ++i) {
            GenQuery q;
            switch (mix) {
            case Mix::Uniform:
                q = uniformQuery(rng, machines);
                break;
            case Mix::Hot:
                q = rng.below(20) < 19
                        ? keys[rng.below(keys.size())]
                        : uniformQuery(rng, machines);
                break;
            case Mix::Scan:
                q = keys[i % keys.size()];
                break;
            }
            const auto t0 = std::chrono::steady_clock::now();
            const serve::PlanAnswer a = index.plan(q.machine, q.query);
            const auto t1 = std::chrono::steady_clock::now();
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(a.predictedMBs));
            std::memcpy(&bits, &a.predictedMBs, sizeof(bits));
            result.checksum ^= bits;
            const std::uint64_t ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count());
            result.latency.sample(ns);
            ++result.issued;
            if (telem.queries) {
                telem.queries->add(1);
                telem.latencyUs->sample(ns / 1000,
                                        metrics::monotonicSeconds());
            }
        }
    }
}

const char *
mixName(Mix m)
{
    switch (m) {
    case Mix::Uniform:
        return "uniform";
    case Mix::Hot:
        return "hot";
    case Mix::Scan:
        return "scan";
    }
    GASNUB_PANIC("bad mix");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> packs;
    std::uint64_t queries = 0;
    std::size_t threads = 1;
    Mix mix = Mix::Uniform;
    std::uint64_t seed = 1;
    bool json = false;
    bool profile = false;
    std::string metrics_out;
    int metrics_interval_ms = 1000;
    std::string timeline;

    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "loadgen: option " << opt
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (opt == "--help" || opt == "-h") {
            printUsage(std::cout);
            return 0;
        } else if (opt == "--pack")
            packs.push_back(val());
        else if (opt == "--queries")
            queries = static_cast<std::uint64_t>(toolcli::parseIntOpt(
                "loadgen", opt, val(), 1, 1'000'000'000'000));
        else if (opt == "--threads")
            threads = static_cast<std::size_t>(
                toolcli::parseIntOpt("loadgen", opt, val(), 0, 4096));
        else if (opt == "--mix") {
            const std::string m = val();
            if (m == "uniform")
                mix = Mix::Uniform;
            else if (m == "hot")
                mix = Mix::Hot;
            else if (m == "scan")
                mix = Mix::Scan;
            else {
                std::cerr << "loadgen: unknown mix '" << m
                          << "' (want uniform, hot, or scan)\n";
                std::exit(2);
            }
        } else if (opt == "--seed")
            seed = static_cast<std::uint64_t>(toolcli::parseIntOpt(
                "loadgen", opt, val(), 0, INT64_MAX));
        else if (opt == "--json")
            json = true;
        else if (opt == "--profile")
            profile = true;
        else if (opt == "--metrics-out")
            metrics_out = val();
        else if (opt == "--metrics-interval-ms")
            metrics_interval_ms = static_cast<int>(toolcli::parseIntOpt(
                "loadgen", opt, val(), 0, 86'400'000));
        else if (opt == "--timeline")
            timeline = val();
        else
            usage();
    }
    if (packs.empty() || queries == 0)
        usage();
    if (threads == 0)
        threads = 1;
    if (metrics_interval_ms < 1)
        metrics_interval_ms = 1;

    if (profile)
        prof::Profiler::enable();
    prof::Profiler::enableFromEnv();
    logTimestampsFromEnv();

    const serve::PlannerIndex index =
        serve::PlannerIndex::fromPackFiles(packs);
    const std::vector<GenQuery> keys = fixedKeys(
        seed, index.numMachines(), mix == Mix::Scan ? 1024 : 64);

    Telemetry telem;
    metrics::Registry &reg = metrics::Registry::instance();
    if (!metrics_out.empty() || !timeline.empty()) {
        telem.queries = &reg.counter("loadgen.queries",
                                     "plan queries completed");
        telem.latencyUs = &reg.histogram(
            "loadgen.latency_us",
            "per-query plan latency (microseconds)");
    }

    // The per-second timeline reads the same registry objects a
    // scraper would, so it doubles as a live test of the rolling
    // windows under real concurrency.
    std::ofstream timeline_os;
    std::uint64_t timeline_last = 0;
    std::optional<toolmetrics::PeriodicTask> timeline_task;
    if (!timeline.empty()) {
        timeline_os.open(timeline, std::ios::trunc);
        if (!timeline_os)
            GASNUB_FATAL("loadgen: cannot write timeline file '",
                         timeline, "'");
        timeline_task.emplace(std::chrono::seconds(1), [&] {
            const std::int64_t now_sec = metrics::monotonicSeconds();
            const std::uint64_t done = telem.queries->value();
            const metrics::Histogram::Window w =
                telem.latencyUs->window(1, now_sec);
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "{\"t_s\": %lld, \"completed\": %llu, \"qps\": "
                "%llu, \"p50_us\": %.1f, \"p95_us\": %.1f, "
                "\"p99_us\": %.1f}\n",
                static_cast<long long>(now_sec),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(done - timeline_last),
                w.p50, w.p95, w.p99);
            timeline_os << buf;
            timeline_os.flush();
            timeline_last = done;
        });
    }

    std::vector<ThreadResult> results(threads);
    // Flusher lifetime brackets the timed region so its exports never
    // land inside the qps measurement window.
    std::optional<toolmetrics::PeriodicTask> flusher;
    toolmetrics::startMetricsFlusher(flusher, reg, metrics_out,
                                     metrics_interval_ms);
    const auto start = std::chrono::steady_clock::now();
    {
        GASNUB_PROF_ZONE("loadgen.run");
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(worker, std::cref(index), mix,
                              std::cref(keys), seed, t, threads,
                              queries, std::ref(results[t]),
                              std::cref(telem));
        for (std::thread &t : pool)
            t.join();
    }
    const auto end = std::chrono::steady_clock::now();
    // Final exposition after every worker retired its last query.
    flusher.reset();
    timeline_task.reset();
    const double seconds =
        std::chrono::duration<double>(end - start).count();

    ThreadResult total;
    for (const ThreadResult &r : results) {
        total.issued += r.issued;
        total.checksum ^= r.checksum;
        total.latency.mergeFrom(r.latency);
    }
    GASNUB_ASSERT(total.issued == queries, "lost queries");

    const double qps =
        seconds > 0 ? static_cast<double>(total.issued) / seconds
                    : 0.0;
    const double p50 = total.latency.percentile(0.50);
    const double p95 = total.latency.percentile(0.95);
    const double p99 = total.latency.percentile(0.99);

    if (json) {
        std::printf(
            "{\"queries\": %llu, \"threads\": %zu, \"mix\": "
            "\"%s\", \"seed\": %llu, \"seconds\": %.6f, \"qps\": "
            "%.1f, \"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": "
            "%.1f, \"checksum\": \"%016llx\"}\n",
            static_cast<unsigned long long>(total.issued), threads,
            mixName(mix), static_cast<unsigned long long>(seed),
            seconds, qps, p50, p95, p99,
            static_cast<unsigned long long>(total.checksum));
    } else {
        std::printf("loadgen: %llu queries, %zu thread(s), mix=%s, "
                    "seed=%llu\n",
                    static_cast<unsigned long long>(total.issued),
                    threads, mixName(mix),
                    static_cast<unsigned long long>(seed));
        std::printf("  elapsed   %.3f s\n", seconds);
        std::printf("  qps       %.0f\n", qps);
        std::printf("  latency   p50 %.0f ns, p95 %.0f ns, p99 "
                    "%.0f ns\n",
                    p50, p95, p99);
        std::printf("  checksum  %016llx\n",
                    static_cast<unsigned long long>(
                        total.checksum));
    }

    if (prof::enabled())
        prof::Profiler::instance().report(std::cerr);
    return 0;
}
