/**
 * @file
 * Transfer-planning query front end over surface packs.
 *
 *   serve --pack FILE [--pack FILE ...] [--binary] [--threads N]
 *         [--batch N] [--metrics-out FILE]
 *         [--metrics-interval-ms N] [--slow-query-us N]
 *         [--trace-out FILE]
 *
 * Serving side of the paper's measure-once / decide-often workflow
 * (Section 4.1): the packs carry each machine's characterization
 * surfaces, and every query — machine x access pattern x working
 * set — is answered with the best implementation method and its
 * predicted bandwidth, exactly what the Fx/HPF back end consults per
 * communication step.  Queries stream on stdin, answers on stdout in
 * input order, so any number of clients can multiplex through pipes
 * or a socket relay; batches of --batch queries are planned across
 * --threads workers against one shared immutable PlannerIndex.
 *
 * JSON framing (default) — one object per line:
 *   in:  {"machine": "t3e", "bytes": 1048576, "ws": 1048576,
 *         "stride": 8}
 *   out: {"machine": "t3e", "option": "fetch-sload",
 *         "method": "fetch", "strideOnSource": true,
 *         "mbs": 154.19999999999999, "seconds": 0.0067999999999999996}
 *
 * Control commands ride the same stream: {"cmd": "metrics"} answers
 * everything queued so far, then emits one compact JSON metrics
 * exposition line on stdout — an on-demand scrape without a second
 * channel.
 *
 * Binary framing (--binary) — fixed 32-byte records both ways, host
 * little-endian; see docs/planner_service.md for the exact layout.
 * Malformed queries are fatal with a record/line diagnostic (exit 1
 * via GASNUB_FATAL, exit 2 for JSON syntax), never silent garbage.
 *
 * The JSON codec (serve_json.hh) builds no tree, and allocates
 * nothing for a line whose strings hold no escapes.  Keys may come
 * in any order, with any whitespace and any unknown keys; a
 * duplicate key keeps its first value.  A number is an RFC 8259
 * number token as a whole
 * (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), and a query
 * field must be an integer below 2^53.  Lines may end in LF or
 * CRLF.  Lines are read from stdin in blocks (servejson::LineReader),
 * and the reader never waits for more than the current line, so a
 * client may wait for its answers before sending more.  Answers
 * print each double as "%.17g" would (servejson::writeG17), encoded
 * into one buffer that goes to stdout a block at a time.
 *
 * Live telemetry (--metrics-out / --slow-query-us / --trace-out)
 * feeds the process-wide metrics::Registry: request/batch counters,
 * per-query service-time and batch-size histograms with rolling
 * 1s/10s/60s windows, per-worker query counters, a structured
 * slow-query log, and per-query Chrome-trace spans.  Answers are
 * byte-identical with telemetry on or off (the CLI test diffs them).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hh"
#include "core/planner.hh"
#include "metrics_flush.hh"
#include "serve/planner_index.hh"
#include "serve_json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

using namespace gasnub;

namespace {

void
printUsage(std::ostream &os)
{
    os << "usage: serve --pack FILE [--pack FILE ...] [options]\n"
          "  --pack FILE        gas-pack-1 surface pack (one per "
          "machine; repeatable)\n"
          "  --binary           32-byte binary records instead of "
          "JSON lines\n"
          "  --threads N        workers per batch (default 1)\n"
          "  --batch N          queries planned per dispatch "
          "(default 1024)\n"
          "  --metrics-out FILE live metrics exposition, rewritten "
          "atomically\n"
          "                     (.json -> JSON, else Prometheus "
          "text)\n"
          "  --metrics-interval-ms N\n"
          "                     flush period for --metrics-out "
          "(default 1000)\n"
          "  --slow-query-us N  log queries taking >= N us to "
          "stderr\n"
          "  --trace-out FILE   Chrome-trace spans, one per query\n"
          "Answers plan queries (machine x pattern x working set -> "
          "method +\npredicted bandwidth) from packed "
          "characterization surfaces; see\ndocs/planner_service.md "
          "for framing and examples.\n";
}

[[noreturn]] void
usage()
{
    printUsage(std::cerr);
    std::exit(2);
}

/** One parsed query: machine id + the planner query. */
struct Request
{
    std::size_t machine = 0;
    core::TransferQuery query;
};

/** Fixed 32-byte binary frames (see docs/planner_service.md). */
struct BinaryRequest
{
    std::uint32_t magic;   ///< 'GQRY' = 0x59525147 little-endian
    std::uint32_t machine; ///< index into the pack list
    std::uint64_t bytes;
    std::uint64_t wsBytes;
    std::uint64_t stride;
};
static_assert(sizeof(BinaryRequest) == 32);

struct BinaryResponse
{
    std::uint32_t magic; ///< 'GANS' = 0x534e4147 little-endian
    std::uint32_t optionIndex;
    double predictedMBs;
    double predictedSeconds;
    std::uint8_t method; ///< 0 pull, 1 fetch, 2 deposit
    std::uint8_t strideOnSource;
    std::uint16_t reserved;
    std::uint32_t pad;
};
static_assert(sizeof(BinaryResponse) == 32);

constexpr std::uint32_t kQueryMagic = 0x59525147u;
constexpr std::uint32_t kAnswerMagic = 0x534e4147u;

std::uint8_t
methodCode(remote::TransferMethod m)
{
    switch (m) {
    case remote::TransferMethod::CoherentPull:
        return 0;
    case remote::TransferMethod::Fetch:
        return 1;
    case remote::TransferMethod::Deposit:
        return 2;
    }
    GASNUB_PANIC("bad transfer method");
}

/**
 * Hot-path telemetry handles, resolved once at startup.  When on,
 * workers only stamp per-query span bounds (monotonic micros) —
 * histograms, the slow-query log, and trace spans are fed from the
 * main thread after the join, because the Tracer is single-threaded
 * and the slow-query log wants the answer's option label.
 */
struct Telemetry
{
    bool on = false;
    std::uint64_t slowUs = 0; ///< 0 = no slow-query log
    metrics::Counter *requests = nullptr;
    metrics::Counter *batches = nullptr;
    metrics::Counter *slow = nullptr;
    metrics::Histogram *latencyUs = nullptr;
    metrics::Histogram *batchSize = nullptr;
    metrics::Gauge *queueDepth = nullptr;
    std::vector<metrics::Counter *> workers;
    trace::Tracer *tracer = nullptr;
    trace::TrackId track = 0;
    std::vector<std::uint64_t> t0, t1; ///< per-query span bounds
};

/** Plan requests [0, n) into @p answers across @p threads; queries
 *  get ids first_id, first_id + 1, ... for spans and the slow log. */
void
planBatch(const serve::PlannerIndex &index,
          const std::vector<Request> &requests, std::size_t n,
          int threads, std::vector<serve::PlanAnswer> &answers,
          Telemetry &telem, std::uint64_t first_id)
{
    answers.resize(n);
    const bool on = telem.on;
    if (on) {
        telem.queueDepth->set(static_cast<std::int64_t>(n));
        telem.t0.resize(n);
        telem.t1.resize(n);
    }
    const std::size_t workers =
        (threads <= 1 || n < 2)
            ? 1
            : std::min<std::size_t>(static_cast<std::size_t>(threads),
                                    n);
    auto run = [&](std::size_t w) {
        std::uint64_t done = 0;
        for (std::size_t i = w; i < n; i += workers) {
            if (on)
                telem.t0[i] = metrics::monotonicMicros();
            answers[i] = index.plan(requests[i].machine,
                                    requests[i].query);
            if (on)
                telem.t1[i] = metrics::monotonicMicros();
            ++done;
        }
        if (on)
            telem.workers[w]->add(done);
    };
    if (workers == 1) {
        run(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&run, w] { run(w); });
        for (std::thread &t : pool)
            t.join();
    }
    if (!on)
        return;

    const std::int64_t now_sec = metrics::monotonicSeconds();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t us = telem.t1[i] - telem.t0[i];
        telem.latencyUs->sample(us, now_sec);
        if (telem.tracer) {
            // Ticks are picoseconds; span bounds are monotonic
            // microseconds of wall time.
            constexpr std::uint64_t kPsPerUs = 1000000;
            telem.tracer->record(trace::Category::Sim, telem.track,
                                 "plan", telem.t0[i] * kPsPerUs,
                                 telem.t1[i] * kPsPerUs, "id",
                                 first_id + i, "us", us);
        }
        if (telem.slowUs && us >= telem.slowUs) {
            telem.slow->add(1);
            const serve::PlanAnswer &a = answers[i];
            const core::TransferQuery &q = requests[i].query;
            GASNUB_LOG("slow_query id=", first_id + i,
                       " machine=", index.machineName(a.machine),
                       " bytes=", q.bytes, " ws=", q.wsBytes,
                       " stride=", q.stride, " us=", us,
                       " option=", a.label);
        }
    }
    telem.requests->add(n);
    telem.batches->add(1);
    telem.batchSize->sample(n, now_sec);
    telem.queueDepth->set(0);
}

int
runJson(const serve::PlannerIndex &index, int threads,
        std::size_t batch, Telemetry &telem)
{
    std::vector<Request> requests(batch);
    std::vector<serve::PlanAnswer> answers;
    const servejson::WireNames names(index);
    // Answers are encoded straight into a 16 KiB buffer, handed to
    // stdout in one fwrite when it cannot take another answer and at
    // the end of each batch: one stdio call (and lock) per buffer, not
    // per answer, and every planned answer is in stdout before the
    // next line is read, so a fatal line still prints the batches
    // before it.  stdout's own buffer is sized so a batch takes a few
    // writes.
    std::setvbuf(stdout, nullptr, _IOFBF, 1 << 16);
    std::vector<char> out(std::max<std::size_t>(
        std::size_t{1} << 14, 2 * names.maxAnswerBytes()));
    char *put = out.data();
    char *const put_limit =
        out.data() + out.size() - names.maxAnswerBytes();
    auto emit = [&] {
        std::fwrite(out.data(), 1,
                    static_cast<std::size_t>(put - out.data()), stdout);
        put = out.data();
    };
    servejson::LineReader reader(STDIN_FILENO);
    std::string_view line;
    std::uint64_t line_no = 0;
    std::size_t n = 0;
    std::uint64_t served = 0;

    auto flush = [&] {
        if (n == 0)
            return;
        planBatch(index, requests, n, threads, answers, telem,
                  served);
        for (std::size_t i = 0; i < n; ++i) {
            if (put > put_limit)
                emit();
            const serve::PlanAnswer &a = answers[i];
            put = servejson::encodeAnswer(
                put, names.machine(a.machine),
                names.label(a.machine, a.optionIndex), a);
        }
        emit();
        served += n;
        n = 0;
    };

    while (reader.next(line)) {
        ++line_no;
        // A CRLF stream's blank line is a lone '\r'.
        if (line.empty() || line == "\r")
            continue;
        const servejson::QueryLine q =
            servejson::decodeQuery(line, line_no, index);
        if (q.metrics) {
            // Answer everything queued first so the dump reflects
            // every query that precedes it on the stream.
            flush();
            std::ostringstream ms;
            metrics::Registry::instance().exportJson(
                ms, metrics::monotonicSeconds(), true);
            ms << "\n";
            std::fputs(ms.str().c_str(), stdout);
            std::fflush(stdout);
            continue;
        }
        requests[n].machine = q.machine;
        requests[n].query = q.query;
        if (++n == batch)
            flush();
    }
    flush();
    std::fflush(stdout);
    std::fprintf(stderr, "serve: answered %llu queries\n",
                 static_cast<unsigned long long>(served));
    return 0;
}

int
runBinary(const serve::PlannerIndex &index, int threads,
          std::size_t batch, Telemetry &telem)
{
    std::vector<BinaryRequest> raw(batch);
    std::vector<Request> requests(batch);
    std::vector<serve::PlanAnswer> answers;
    std::vector<BinaryResponse> responses(batch);
    std::uint64_t record_no = 0;
    std::uint64_t served = 0;

    for (;;) {
        const std::size_t want = batch * sizeof(BinaryRequest);
        const std::size_t got_bytes = std::fread(
            reinterpret_cast<char *>(raw.data()), 1, want, stdin);
        if (got_bytes % sizeof(BinaryRequest) != 0)
            GASNUB_FATAL("serve: truncated binary request after "
                         "record ", record_no,
                         ": trailing ",
                         got_bytes % sizeof(BinaryRequest),
                         " byte(s) is not a whole 32-byte GQRY "
                         "record");
        const std::size_t got = got_bytes / sizeof(BinaryRequest);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            ++record_no;
            const BinaryRequest &q = raw[i];
            if (q.magic != kQueryMagic)
                GASNUB_FATAL("serve: binary record ", record_no,
                             ": bad magic ", q.magic,
                             "; expected GQRY framing (see "
                             "docs/planner_service.md)");
            if (q.machine >= index.numMachines())
                GASNUB_FATAL("serve: binary record ", record_no,
                             ": machine id ", q.machine,
                             " out of range (", index.numMachines(),
                             " loaded)");
            requests[i].machine = q.machine;
            requests[i].query.bytes = q.bytes;
            requests[i].query.wsBytes = q.wsBytes;
            requests[i].query.stride = q.stride;
        }
        planBatch(index, requests, got, threads, answers, telem,
                  served);
        for (std::size_t i = 0; i < got; ++i) {
            const serve::PlanAnswer &a = answers[i];
            BinaryResponse &r = responses[i];
            r.magic = kAnswerMagic;
            r.optionIndex = a.optionIndex;
            r.predictedMBs = a.predictedMBs;
            r.predictedSeconds = a.predictedSeconds;
            r.method = methodCode(a.method);
            r.strideOnSource = a.strideOnSource ? 1 : 0;
            r.reserved = 0;
            r.pad = 0;
        }
        if (std::fwrite(responses.data(), sizeof(BinaryResponse),
                        got, stdout) != got)
            GASNUB_FATAL("serve: short write on stdout");
        served += got;
    }
    std::fflush(stdout);
    std::fprintf(stderr, "serve: answered %llu queries\n",
                 static_cast<unsigned long long>(served));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    logTimestampsFromEnv();

    std::vector<std::string> packs;
    bool binary = false;
    int threads = 1;
    std::size_t batch = 1024;
    std::string metrics_out;
    int metrics_interval_ms = 1000;
    std::uint64_t slow_query_us = 0;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "serve: option " << opt
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
        else if (opt == "--binary")
            binary = true;
        else if (opt == "--threads")
            threads = static_cast<int>(
                toolcli::parseIntOpt("serve", opt, val(), 0, 4096));
        else if (opt == "--batch")
            batch = static_cast<std::size_t>(
                toolcli::parseIntOpt("serve", opt, val(), 1, 1 << 24));
        else if (opt == "--metrics-out")
            metrics_out = val();
        else if (opt == "--metrics-interval-ms")
            metrics_interval_ms = static_cast<int>(toolcli::parseIntOpt(
                "serve", opt, val(), 0, 86'400'000));
        else if (opt == "--slow-query-us")
            slow_query_us = static_cast<std::uint64_t>(
                toolcli::parseIntOpt("serve", opt, val(), 0,
                                     86'400'000'000));
        else if (opt == "--trace-out")
            trace_out = val();
        else
            usage();
    }
    if (packs.empty() || batch == 0)
        usage();
    if (threads < 1)
        threads = 1;
    if (metrics_interval_ms < 1)
        metrics_interval_ms = 1;

    const serve::PlannerIndex index =
        serve::PlannerIndex::fromPackFiles(packs);
    std::fprintf(stderr, "serve: %zu machine(s):", index.numMachines());
    for (std::size_t i = 0; i < index.numMachines(); ++i)
        std::fprintf(stderr, " %s", index.machineName(i).c_str());
    std::fprintf(stderr, "\n");

    metrics::Registry &reg = metrics::Registry::instance();

    Telemetry telem;
    if (!metrics_out.empty() || !trace_out.empty() ||
        slow_query_us > 0) {
        telem.on = true;
        telem.slowUs = slow_query_us;
        telem.requests =
            &reg.counter("serve.requests", "plan queries answered");
        telem.batches = &reg.counter("serve.batches",
                                     "query batches dispatched");
        telem.slow = &reg.counter(
            "serve.slow_queries",
            "queries at or over the --slow-query-us threshold");
        telem.latencyUs = &reg.histogram(
            "serve.latency_us",
            "per-query service time (microseconds)");
        telem.batchSize = &reg.histogram(
            "serve.batch_size", "queries per dispatched batch");
        telem.queueDepth = &reg.gauge(
            "serve.queue_depth",
            "queries parsed and waiting in the current batch");
        for (int w = 0; w < threads; ++w)
            telem.workers.push_back(&reg.counter(
                "serve.worker" + std::to_string(w) + ".queries",
                "queries planned by one worker"));
    }
    if (!trace_out.empty()) {
        telem.tracer = &trace::Tracer::instance();
        telem.tracer->setMask(
            static_cast<std::uint32_t>(trace::Category::Sim));
        telem.track = telem.tracer->track("serve.query");
    }

    int rc;
    {
        std::optional<toolmetrics::PeriodicTask> flusher;
        toolmetrics::startMetricsFlusher(flusher, reg, metrics_out,
                                         metrics_interval_ms);
        rc = binary ? runBinary(index, threads, batch, telem)
                    : runJson(index, threads, batch, telem);
        // flusher writes the final exposition on scope exit.
    }

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::trunc);
        if (!os)
            GASNUB_FATAL("serve: cannot write trace file '",
                         trace_out, "'");
        trace::Tracer::instance().exportChromeJson(os);
    }

    return rc;
}
