/**
 * @file
 * In-process helper of the perfbench harness (see README.md next to
 * this file).  run.py drives the real tools as separate processes for
 * the end-to-end metrics; this program does the jobs that need the
 * library itself or a small parent process:
 *
 *   perfprobe machines REPS NAME...
 *       Build each machine (dec8400 | t3d | t3e, 4 nodes) REPS times
 *       through the public machine::Machine constructor and print the
 *       build times in seconds as JSON.
 *
 *   perfprobe spawn USAGE COMMAND ARG...
 *       Run COMMAND as a child, wait for it, write its exit status,
 *       peak RSS in KB and user and system CPU seconds to the file
 *       USAGE, and exit with its status.  The peak RSS a parent reads
 *       from wait4() is at least the parent's own size when it forked,
 *       since the kernel carries it over exec; spawned from this small
 *       process instead of the Python harness, the figure is the
 *       tool's own.
 *
 *   perfprobe paper MACHINE BENCHMARK WS STRIDE...
 *       Simulate one working-set row of a tools/characterize benchmark
 *       at the given strides, with characterize's default simulation
 *       cap, and print the bandwidths in MB/s as a JSON list.  These
 *       are the model's answers at the paper's reference points, free
 *       of the shorter caps the timed sweeps use.
 *
 *   perfprobe expect QUERIES ANSWERS PACK...
 *       Answer every 32-byte binary query record in QUERIES with an
 *       in-process serve::PlannerIndex::plan() over the same packs and
 *       the same cache configuration tools/serve ships, writing the
 *       32-byte answer records serve would write to ANSWERS.  Prints
 *       the option labels and method names per machine as JSON.
 *
 *   perfprobe replay binary|json QUERIES BATCH PASSES SPANS PACK...
 *       Replay the workload's exact batches in-process, timing each
 *       layer call tools/serve makes per batch: decode, plan, encode.
 *       Passes alternate between untimed-layer passes and passes with
 *       a span per batch and per layer call, so the tracing overhead
 *       is measured against the same replay.  A final pass times the
 *       uncached cost model (PlannerIndex::predictAll).  Spans of one
 *       traced pass go to SPANS as Chrome-trace JSON; the per-query
 *       layer times print as JSON.
 *
 * The benchmark names, node choice and default cap of `paper` mirror
 * tools/characterize.cc; the decode and encode code mirrors
 * tools/serve.cc's runBinary and runJson so the replay costs what the
 * server's layers cost.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/characterizer.hh"
#include "core/planner.hh"
#include "json_util.hh"
#include "machine/machine.hh"
#include "serve/planner_index.hh"
#include "sim/logging.hh"

using namespace gasnub;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
nanos(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// tools/serve.cc's binary framing (docs/planner_service.md).
struct BinaryRequest
{
    std::uint32_t magic;
    std::uint32_t machine;
    std::uint64_t bytes;
    std::uint64_t wsBytes;
    std::uint64_t stride;
};
static_assert(sizeof(BinaryRequest) == 32);

struct BinaryResponse
{
    std::uint32_t magic;
    std::uint32_t optionIndex;
    double predictedMBs;
    double predictedSeconds;
    std::uint8_t method;
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

BinaryResponse
encodeBinary(const serve::PlanAnswer &a)
{
    BinaryResponse r;
    r.magic = kAnswerMagic;
    r.optionIndex = a.optionIndex;
    r.predictedMBs = a.predictedMBs;
    r.predictedSeconds = a.predictedSeconds;
    r.method = methodCode(a.method);
    r.strideOnSource = a.strideOnSource ? 1 : 0;
    r.reserved = 0;
    r.pad = 0;
    return r;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        GASNUB_FATAL("perfprobe: cannot read '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<BinaryRequest>
readBinaryQueries(const std::string &path)
{
    const std::string raw = readFile(path);
    if (raw.size() % sizeof(BinaryRequest) != 0)
        GASNUB_FATAL("perfprobe: '", path,
                     "' is not a whole number of 32-byte records");
    std::vector<BinaryRequest> q(raw.size() / sizeof(BinaryRequest));
    std::memcpy(q.data(), raw.data(), raw.size());
    return q;
}

std::vector<std::string>
packArgs(int argc, char **argv, int first)
{
    std::vector<std::string> packs(argv + first, argv + argc);
    if (packs.empty())
        GASNUB_FATAL("perfprobe: no pack files given");
    return packs;
}

machine::SystemKind
machineKind(const std::string &name)
{
    if (name == "dec8400")
        return machine::SystemKind::Dec8400;
    if (name == "t3d")
        return machine::SystemKind::CrayT3D;
    if (name == "t3e")
        return machine::SystemKind::CrayT3E;
    GASNUB_FATAL("perfprobe: unknown machine '", name, "'");
}

int
cmdMachines(int argc, char **argv)
{
    if (argc < 4)
        GASNUB_FATAL("usage: perfprobe machines REPS NAME...");
    const int reps = std::atoi(argv[2]);
    std::printf("{");
    for (int i = 3; i < argc; ++i) {
        const std::string name = argv[i];
        machine::SystemConfig sys;
        sys.kind = machineKind(name);
        std::printf("%s\"%s\": [", i > 3 ? ", " : "", name.c_str());
        for (int r = 0; r < reps; ++r) {
            const auto t0 = Clock::now();
            {
                machine::Machine m(sys);
            }
            std::printf("%s%.9f", r ? ", " : "",
                        seconds(t0, Clock::now()));
        }
        std::printf("]");
    }
    std::printf("}\n");
    return 0;
}

int
cmdExpect(int argc, char **argv)
{
    if (argc < 5)
        GASNUB_FATAL("usage: perfprobe expect QUERIES ANSWERS PACK...");
    const std::vector<BinaryRequest> queries = readBinaryQueries(argv[2]);
    const serve::PlannerIndex index =
        serve::PlannerIndex::fromPackFiles(packArgs(argc, argv, 4));
    std::vector<BinaryResponse> answers(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const BinaryRequest &q = queries[i];
        if (q.magic != kQueryMagic || q.machine >= index.numMachines())
            GASNUB_FATAL("perfprobe: bad query record ", i);
        answers[i] = encodeBinary(index.plan(
            q.machine, core::TransferQuery{q.bytes, q.wsBytes, q.stride}));
    }
    std::ofstream out(argv[3], std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(answers.data()),
              static_cast<std::streamsize>(answers.size() *
                                           sizeof(BinaryResponse)));
    if (!out)
        GASNUB_FATAL("perfprobe: cannot write '", argv[3], "'");

    std::printf("{\"machines\": [");
    for (std::size_t m = 0; m < index.numMachines(); ++m) {
        std::printf("%s{\"name\": \"%s\", \"options\": [", m ? ", " : "",
                    index.machineName(m).c_str());
        for (std::size_t o = 0; o < index.numOptions(m); ++o) {
            const core::PlanOption &opt = index.option(m, o);
            std::printf("%s{\"label\": \"%s\", \"method\": \"%s\"}",
                        o ? ", " : "", opt.label.c_str(),
                        remote::methodName(opt.method));
        }
        std::printf("]}");
    }
    std::printf("]}\n");
    return 0;
}

int
cmdSpawn(int argc, char **argv)
{
    if (argc < 4)
        GASNUB_FATAL("usage: perfprobe spawn USAGE COMMAND ARG...");
    const pid_t pid = fork();
    if (pid < 0)
        GASNUB_FATAL("perfprobe: fork failed");
    if (pid == 0) {
        execvp(argv[3], argv + 3);
        std::perror(argv[3]);
        _exit(127);
    }
    int status = 0;
    struct rusage ru;
    if (wait4(pid, &status, 0, &ru) != pid)
        GASNUB_FATAL("perfprobe: wait4 failed");
    const int code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    std::FILE *out = std::fopen(argv[2], "w");
    if (!out)
        GASNUB_FATAL("perfprobe: cannot write '", argv[2], "'");
    std::fprintf(out, "%d %ld %.6f %.6f\n", code, ru.ru_maxrss,
                 ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6,
                 ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
    std::fclose(out);
    return code;
}

int
cmdPaper(int argc, char **argv)
{
    if (argc < 6)
        GASNUB_FATAL("usage: perfprobe paper MACHINE BENCHMARK WS "
                     "STRIDE...");
    machine::SystemConfig sys;
    sys.kind = machineKind(argv[2]);
    const std::string bench = argv[3];
    const bool t3d = sys.kind == machine::SystemKind::CrayT3D;
    const NodeId src = t3d ? 0 : 1;
    const NodeId dst = t3d ? 2 : 0;
    core::SweepSpec spec;
    if (bench == "loads")
        spec = core::SweepSpec::localLoads(0);
    else if (bench == "copy-sstore")
        spec = core::SweepSpec::localCopy(
            kernels::CopyVariant::StridedStores, 0);
    else if (bench == "pull")
        spec = core::SweepSpec::remote(
            remote::TransferMethod::CoherentPull, true, src, dst);
    else if (bench == "fetch-sload")
        spec = core::SweepSpec::remote(remote::TransferMethod::Fetch,
                                       true, src, dst);
    else if (bench == "deposit-sstore")
        spec = core::SweepSpec::remote(remote::TransferMethod::Deposit,
                                       false, src, dst);
    else
        GASNUB_FATAL("perfprobe: unsupported benchmark '", bench, "'");

    const std::uint64_t ws = std::strtoull(argv[4], nullptr, 10);
    std::vector<std::uint64_t> strides;
    for (int i = 5; i < argc; ++i)
        strides.push_back(std::strtoull(argv[i], nullptr, 10));
    core::CharacterizeConfig cfg;
    cfg.workingSets = {ws};
    cfg.strides = strides;
    std::sort(cfg.strides.begin(), cfg.strides.end());
    cfg.strides.erase(std::unique(cfg.strides.begin(), cfg.strides.end()),
                      cfg.strides.end());
    cfg.capBytes = std::uint64_t{4} << 20; // characterize's --cap default
    machine::Machine m(sys);
    core::Characterizer c(m);
    const core::Surface s = c.run(spec, cfg);
    std::printf("[");
    for (std::size_t i = 0; i < strides.size(); ++i)
        std::printf("%s%.17g", i ? ", " : "", s.at(ws, strides[i]));
    std::printf("]\n");
    return 0;
}

/** One serve request after decoding (tools/serve.cc's Request). */
struct Request
{
    std::size_t machine = 0;
    core::TransferQuery query;
};

std::uint64_t
numberField(const tooljson::JsonValue &v, const char *key,
            std::uint64_t line_no)
{
    const tooljson::JsonValue *f = v.find(key);
    if (!f || f->kind != tooljson::JsonValue::Kind::Number ||
        f->number < 0)
        GASNUB_FATAL("perfprobe: query line ", line_no, ": bad '", key,
                     "'");
    return static_cast<std::uint64_t>(f->number);
}

/** The workload's batches in their wire form, plus the replay state. */
class Replay
{
  public:
    Replay(bool json, const std::string &path, std::size_t batch,
           const serve::PlannerIndex &index)
        : _json(json), _batch(batch), _index(index)
    {
        if (json) {
            std::istringstream in(readFile(path));
            std::string line;
            while (std::getline(in, line))
                if (!line.empty())
                    _lines.push_back(line);
            _count = _lines.size();
        } else {
            _records = readBinaryQueries(path);
            _count = _records.size();
        }
        if (_count == 0 || _count % batch != 0)
            GASNUB_FATAL("perfprobe: ", _count,
                         " queries is not a whole number of batches");
        _requests.resize(batch);
        _answers.resize(batch);
        _responses.resize(batch);
    }

    std::size_t queries() const { return _count; }
    std::size_t batches() const { return _count / _batch; }

    /** Decode batch @p b into _requests (tools/serve.cc's framing). */
    void
    decode(std::size_t b)
    {
        const std::size_t first = b * _batch;
        for (std::size_t i = 0; i < _batch; ++i) {
            Request &r = _requests[i];
            if (_json) {
                const std::uint64_t line_no = first + i + 1;
                tooljson::JsonParser parser(
                    _lines[first + i],
                    "serve: query line " + std::to_string(line_no));
                const tooljson::JsonValue v = parser.parse();
                const tooljson::JsonValue *machine = v.find("machine");
                if (!machine ||
                    machine->kind != tooljson::JsonValue::Kind::String)
                    GASNUB_FATAL("perfprobe: query line ", line_no,
                                 ": bad 'machine'");
                const int id = _index.machineId(machine->string);
                if (id < 0)
                    GASNUB_FATAL("perfprobe: unknown machine '",
                                 machine->string, "'");
                r.machine = static_cast<std::size_t>(id);
                r.query.bytes = numberField(v, "bytes", line_no);
                r.query.wsBytes = numberField(v, "ws", line_no);
                r.query.stride = numberField(v, "stride", line_no);
            } else {
                const BinaryRequest &q = _records[first + i];
                if (q.magic != kQueryMagic ||
                    q.machine >= _index.numMachines())
                    GASNUB_FATAL("perfprobe: bad query record ",
                                 first + i);
                r.machine = q.machine;
                r.query.bytes = q.bytes;
                r.query.wsBytes = q.wsBytes;
                r.query.stride = q.stride;
            }
        }
    }

    void
    plan()
    {
        for (std::size_t i = 0; i < _batch; ++i)
            _answers[i] =
                _index.plan(_requests[i].machine, _requests[i].query);
    }

    /** Encode the batch's answers the way serve writes them. */
    void
    encode()
    {
        if (_json) {
            _out.clear();
            for (std::size_t i = 0; i < _batch; ++i) {
                const serve::PlanAnswer &a = _answers[i];
                char buf[256];
                const int n = std::snprintf(
                    buf, sizeof(buf),
                    "{\"machine\": \"%s\", \"option\": \"%.*s\", "
                    "\"method\": \"%s\", \"strideOnSource\": %s, "
                    "\"mbs\": %.17g, \"seconds\": %.17g}\n",
                    _index.machineName(a.machine).c_str(),
                    static_cast<int>(a.label.size()), a.label.data(),
                    remote::methodName(a.method),
                    a.strideOnSource ? "true" : "false",
                    a.predictedMBs, a.predictedSeconds);
                _out.append(buf, static_cast<std::size_t>(n));
            }
            _sink += _out.size();
        } else {
            for (std::size_t i = 0; i < _batch; ++i)
                _responses[i] = encodeBinary(_answers[i]);
            _sink += _responses[_batch - 1].optionIndex;
        }
    }

    /** Uncached cost-model evaluation of every query in the batch. */
    void
    compute()
    {
        for (std::size_t i = 0; i < _batch; ++i) {
            _index.predictAll(_requests[i].machine, _requests[i].query,
                              _predictions);
            _sink += _predictions.size();
        }
    }

    std::uint64_t sink() const { return _sink; }

  private:
    bool _json;
    std::size_t _batch;
    const serve::PlannerIndex &_index;
    std::vector<std::string> _lines;
    std::vector<BinaryRequest> _records;
    std::size_t _count = 0;
    std::vector<Request> _requests;
    std::vector<serve::PlanAnswer> _answers;
    std::vector<BinaryResponse> _responses;
    std::vector<double> _predictions;
    std::string _out;
    std::uint64_t _sink = 0;
};

struct Span
{
    const char *name;
    std::size_t batch;
    Clock::time_point start, end;
};

int
cmdReplay(int argc, char **argv)
{
    if (argc < 8)
        GASNUB_FATAL("usage: perfprobe replay binary|json QUERIES BATCH "
                     "PASSES SPANS PACK...");
    const std::string mode = argv[2];
    if (mode != "binary" && mode != "json")
        GASNUB_FATAL("perfprobe: replay mode must be binary or json");
    const std::size_t batch =
        static_cast<std::size_t>(std::atoll(argv[4]));
    const int passes = std::max(1, std::atoi(argv[5]));
    const std::string spans_path = argv[6];
    const std::vector<std::string> packs = packArgs(argc, argv, 7);
    if (batch == 0)
        GASNUB_FATAL("perfprobe: batch must be positive");

    // serve.index_build: the same call tools/serve makes at start-up.
    std::vector<double> build_s;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        const serve::PlannerIndex built =
            serve::PlannerIndex::fromPackFiles(packs);
        build_s.push_back(seconds(t0, Clock::now()));
    }
    serve::PlannerIndex index = serve::PlannerIndex::fromPackFiles(packs);

    Replay replay(mode == "json", argv[3], batch, index);
    const std::size_t nb = replay.batches();

    // Warm the decision cache to the state the served run reaches.
    for (std::size_t b = 0; b < nb; ++b) {
        replay.decode(b);
        replay.plan();
        replay.encode();
    }
    index.resetCacheStats();

    std::uint64_t untraced_ns = 0, traced_ns = 0;
    std::uint64_t decode_ns = 0, plan_ns = 0, encode_ns = 0;
    std::vector<Span> spans;
    spans.reserve(nb * 4);
    const auto origin = Clock::now();
    for (int p = 0; p < passes; ++p) {
        // Untraced pass: only the pass is timed.
        const auto u0 = Clock::now();
        for (std::size_t b = 0; b < nb; ++b) {
            replay.decode(b);
            replay.plan();
            replay.encode();
        }
        untraced_ns += nanos(u0, Clock::now());

        // Traced pass: a span per batch with a child per layer call.
        const bool keep = p == 0;
        const auto p0 = Clock::now();
        for (std::size_t b = 0; b < nb; ++b) {
            const auto t0 = Clock::now();
            replay.decode(b);
            const auto t1 = Clock::now();
            replay.plan();
            const auto t2 = Clock::now();
            replay.encode();
            const auto t3 = Clock::now();
            decode_ns += nanos(t0, t1);
            plan_ns += nanos(t1, t2);
            encode_ns += nanos(t2, t3);
            if (keep) {
                spans.push_back({"batch", b, t0, t3});
                spans.push_back({"decode", b, t0, t1});
                spans.push_back({"plan", b, t1, t2});
                spans.push_back({"encode", b, t2, t3});
            }
        }
        traced_ns += nanos(p0, Clock::now());
    }
    const serve::DecisionCacheStats cache = index.cacheStats();

    // The uncached cost model on the same queries.
    std::uint64_t compute_ns = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        replay.decode(b);
        const auto t0 = Clock::now();
        replay.compute();
        compute_ns += nanos(t0, Clock::now());
    }

    std::ofstream sp(spans_path, std::ios::trunc);
    if (!sp)
        GASNUB_FATAL("perfprobe: cannot write '", spans_path, "'");
    sp << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"batch\": %zu}}",
            i ? "," : "", s.name, nanos(origin, s.start) / 1e3,
            nanos(s.start, s.end) / 1e3, s.batch);
        sp << buf;
    }
    sp << "\n]}\n";

    const double q = static_cast<double>(replay.queries()) * passes;
    const std::uint64_t lookups = cache.hits + cache.misses;
    std::printf(
        "{\"queries\": %.0f, \"index_build_ms\": %.6f, "
        "\"decode_ns\": %.4f, \"plan_ns\": %.4f, \"encode_ns\": %.4f, "
        "\"compute_ns\": %.4f, \"untraced_ns\": %.4f, "
        "\"traced_ns\": %.4f, \"cache_hits\": %llu, "
        "\"cache_lookups\": %llu, \"cache_evictions_per_pass\": %llu, "
        "\"sink\": %llu}\n",
        q, median(build_s) * 1e3, decode_ns / q, plan_ns / q,
        encode_ns / q,
        compute_ns / static_cast<double>(replay.queries()),
        untraced_ns / q, traced_ns / q,
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(lookups),
        static_cast<unsigned long long>(cache.evictions / (2 * passes)),
        static_cast<unsigned long long>(replay.sink()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "machines")
        return cmdMachines(argc, argv);
    if (cmd == "spawn")
        return cmdSpawn(argc, argv);
    if (cmd == "paper")
        return cmdPaper(argc, argv);
    if (cmd == "expect")
        return cmdExpect(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    std::cerr << "usage: perfprobe machines|spawn|paper|expect|replay ...\n";
    return 2;
}
