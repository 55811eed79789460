/**
 * @file
 * Byte-exact fixtures for the simulator's single access path.
 *
 * Each test renders a deterministic run as text — saved surfaces
 * (attribution rows included), exact ticks and kernel results, and the
 * full stats JSON — and compares it with a file committed under
 * tests/data/differential/.  The fixtures were captured while a second,
 * one-call-per-access implementation of every kernel and a fully timed
 * priming pass still existed and produced the same bytes, so they lock
 * the batched kernels, the functional prime and the per-access
 * MemoryHierarchy::read()/write() callers to that reference.  The
 * T3D fetch, 8400 pull and node copy fixtures were captured before the
 * characterizer's per-point drivers and the node/machine kernel entries
 * were merged, so they pin those merges as well.  The backfill
 * calendar traces and the T3E deposit fixture were captured while
 * mem::Resource still kept its gaps in one vector, so they pin the
 * blocked gap list to that calendar's exact ticks.  The 8400 coherence
 * trace was captured while the bus kept its directory in a hashed
 * table, so it pins the paged directory to that table's answers.
 *
 * A failure names the fixture and its first differing line.  After an
 * intentional model change, regenerate with
 *
 *     GASNUB_REGEN_GOLDEN=1 ./build/tests/test_core \
 *         --gtest_filter='*Differential*:*PrimeEquivalence*:CallerFixtures.*'
 *
 * and review the diff of tests/data/differential/.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bus/dec8400_memory.hh"
#include "core/characterizer.hh"
#include "core/redistribution.hh"
#include "core/surface_io.hh"
#include "core/sweep_runner.hh"
#include "fft/fft2d_dist.hh"
#include "gas/runtime.hh"
#include "kernels/blocked.hh"
#include "kernels/indexed.hh"
#include "kernels/kernels.hh"
#include "kernels/remote_kernels.hh"
#include "machine/configs.hh"
#include "machine/machine.hh"
#include "machine/sync.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/resource.hh"
#include "mem/stream.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

#ifndef GASNUB_TESTS_DATA_DIR
#error "GASNUB_TESTS_DATA_DIR must point at tests/data"
#endif

namespace {

using namespace gasnub;
using namespace gasnub::core;

constexpr const char *kRegenCommand =
    "GASNUB_REGEN_GOLDEN=1 ./build/tests/test_core "
    "--gtest_filter='*Differential*:*PrimeEquivalence*:CallerFixtures.*'";

bool
regenRequested()
{
    return std::getenv("GASNUB_REGEN_GOLDEN") != nullptr;
}

/** Line @p n (0-based) of @p text, or "<end of text>". */
std::string
lineOf(const std::string &text, std::size_t n)
{
    std::istringstream in(text);
    std::string line;
    for (std::size_t i = 0; std::getline(in, line); ++i)
        if (i == n)
            return line;
    return "<end of text>";
}

/**
 * Compare @p actual with the file at @p path, or (when @p regen)
 * rewrite the file.  A missing, empty or unreadable fixture fails with
 * the regeneration command; a mismatch names the first differing line.
 */
void
expectMatchesFile(const std::string &path, const std::string &actual,
                  bool regen)
{
    if (regen) {
        std::ofstream out(path, std::ios::binary);
        out << actual;
        ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    if (!in || !(buf << in.rdbuf())) {
        ADD_FAILURE() << "missing, empty or unreadable fixture " << path
                      << "; create it with " << kRegenCommand;
        return;
    }
    const std::string want = buf.str();
    if (want == actual)
        return;
    const auto diff =
        std::mismatch(want.begin(), want.end(), actual.begin(),
                      actual.end());
    const std::size_t line = static_cast<std::size_t>(
        std::count(want.begin(), diff.first, '\n'));
    ADD_FAILURE() << "output differs from fixture " << path
                  << " at line " << line + 1
                  << "\n  fixture: " << lineOf(want, line)
                  << "\n  actual:  " << lineOf(actual, line)
                  << "\nIf the change is intended, regenerate with "
                  << kRegenCommand << " and review the diff.";
}

/** expectMatchesFile on tests/data/differential/@p name. */
void
expectMatchesFixture(const std::string &name, const std::string &actual)
{
    expectMatchesFile(std::string(GASNUB_TESTS_DATA_DIR) +
                          "/differential/" + name,
                      actual, regenRequested());
}

const char *
slug(machine::SystemKind kind)
{
    switch (kind) {
      case machine::SystemKind::Dec8400: return "dec8400";
      case machine::SystemKind::CrayT3D: return "t3d";
      case machine::SystemKind::CrayT3E: return "t3e";
    }
    return "unknown";
}

std::string
paramName(const ::testing::TestParamInfo<machine::SystemKind> &info)
{
    switch (info.param) {
      case machine::SystemKind::Dec8400: return "Dec8400";
      case machine::SystemKind::CrayT3D: return "CrayT3D";
      case machine::SystemKind::CrayT3E: return "CrayT3E";
    }
    return "Unknown";
}

const auto kAllMachines = ::testing::Values(
    machine::SystemKind::Dec8400, machine::SystemKind::CrayT3D,
    machine::SystemKind::CrayT3E);

/**
 * The full stats JSON of @p m under a section header, broken after
 * every object and array so a mismatch names the stat that moved.
 */
std::string
statsSection(machine::Machine &m)
{
    std::ostringstream os;
    m.statsGroup().dumpJson(os);
    std::string out = "# stats\n";
    for (const char c : os.str()) {
        out += c;
        if (c == ',' && (out.end()[-2] == '}' || out.end()[-2] == ']'))
            out += '\n';
    }
    return out + "\n";
}

/** @p v printed with enough digits to round-trip exactly. */
std::string
exact(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
resultLine(const kernels::KernelResult &r)
{
    return "elapsed=" + std::to_string(r.elapsed) +
           " accesses=" + std::to_string(r.accesses) +
           " bytes=" + std::to_string(r.bytes) + " mbs=" + exact(r.mbs);
}

CharacterizeConfig
smallGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {2_KiB, 32_KiB};
    cfg.strides = {1, 3, 8, 64};
    cfg.capBytes = 1_MiB;
    return cfg;
}

/** Every batched local kernel family. */
std::vector<SweepSpec>
localSpecs()
{
    return {SweepSpec::localLoads(0), SweepSpec::localStores(0),
            SweepSpec::localCopy(kernels::CopyVariant::StridedLoads, 0),
            SweepSpec::localCopy(kernels::CopyVariant::StridedStores,
                                 0)};
}

/**
 * Run the local sweeps on one machine and render surfaces plus stats.
 * @p jobs <= 0 runs a serial Characterizer; otherwise a SweepRunner
 * with that many workers, its stats merged into the main machine as
 * production drivers do — which must give the same bytes.
 */
std::string
runLocal(machine::SystemKind kind, int jobs)
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, 0);
    machine::SystemConfig sys;
    sys.kind = kind;
    sys.attribution = true;
    machine::Machine m(sys);
    const CharacterizeConfig cfg = smallGrid();
    std::ostringstream so;
    so << "# surfaces\n";
    if (jobs <= 0) {
        Characterizer c(m);
        for (const SweepSpec &spec : localSpecs())
            saveSurface(c.run(spec, cfg), so);
    } else {
        SweepRunner runner(sys, jobs);
        for (const SweepSpec &spec : localSpecs())
            saveSurface(runner.run(spec, cfg), so);
        runner.mergeStatsInto(m.statsGroup());
    }
    return so.str() + statsSection(m);
}

std::string
localFixture(machine::SystemKind kind)
{
    return std::string("local_") + slug(kind) + ".txt";
}

class Differential
    : public ::testing::TestWithParam<machine::SystemKind>
{
};

TEST_P(Differential, SerialMatchesFixture)
{
    expectMatchesFixture(localFixture(GetParam()),
                         runLocal(GetParam(), 0));
}

TEST_P(Differential, ParallelMatchesFixture)
{
    expectMatchesFixture(localFixture(GetParam()),
                         runLocal(GetParam(), 4));
}

INSTANTIATE_TEST_SUITE_P(AllMachines, Differential, kAllMachines,
                         paramName);

/**
 * Remote sweeps: Machine::produce() plus the native engine, one
 * surface per entry of @p stride_on_source (strided loads at the
 * source, or strided stores at the destination).
 */
std::string
runRemote(machine::SystemKind kind, remote::TransferMethod method,
          std::initializer_list<bool> stride_on_source = {false},
          std::vector<std::uint64_t> strides = {1, 2})
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, 0);
    machine::SystemConfig sys;
    sys.kind = kind;
    machine::Machine m(sys);
    Characterizer c(m);
    CharacterizeConfig cfg;
    cfg.workingSets = {16_KiB, 64_KiB};
    cfg.strides = std::move(strides);
    cfg.capBytes = 64_KiB;
    std::ostringstream so;
    so << "# surfaces\n";
    for (const bool on_source : stride_on_source)
        saveSurface(c.run(SweepSpec::remote(method, on_source, 1, 0), cfg),
                    so);
    return so.str() + statsSection(m);
}

TEST(DifferentialRemote, T3dDepositMatchesFixture)
{
    expectMatchesFixture("remote_t3d_deposit.txt",
                         runRemote(machine::SystemKind::CrayT3D,
                                   remote::TransferMethod::Deposit));
}

TEST(DifferentialRemote, T3eFetchMatchesFixture)
{
    expectMatchesFixture("remote_t3e_fetch.txt",
                         runRemote(machine::SystemKind::CrayT3E,
                                   remote::TransferMethod::Fetch));
}

// The E-register deposit is the T3E's heaviest torus and NIC
// backfill user: a stride of 3 offsets the transfers so each one
// claims gaps the others left.
TEST(DifferentialRemote, T3eDepositMatchesFixture)
{
    expectMatchesFixture("remote_t3e_deposit.txt",
                         runRemote(machine::SystemKind::CrayT3E,
                                   remote::TransferMethod::Deposit,
                                   {true, false}, {1, 3}));
}

TEST(DifferentialRemote, T3dFetchMatchesFixture)
{
    expectMatchesFixture("remote_t3d_fetch.txt",
                         runRemote(machine::SystemKind::CrayT3D,
                                   remote::TransferMethod::Fetch,
                                   {true, false}));
}

TEST(DifferentialRemote, Dec8400PullMatchesFixture)
{
    expectMatchesFixture(
        "remote_dec8400_pull.txt",
        runRemote(machine::SystemKind::Dec8400,
                  remote::TransferMethod::CoherentPull, {true, false}));
}

/**
 * A seeded multi-flow acquire() trace on a backfill calendar.  Flows
 * with their own clocks call in random order; flow 0 leads, appending
 * gaps, while the others trail and claim them.  One call in sixteen
 * is a probe at a uniformly random earlier tick with an occupancy of
 * up to 63; flow calls take occupancies of 0 to 3.
 */
struct CalendarTrace
{
    const char *name;
    std::uint64_t seed;
    std::size_t cap;
    int flows;
    std::uint64_t lead;  ///< flow 0's share of the flow calls, in 16ths
    Tick leadSpacing;    ///< flow 0 asks for 1..this after its last end
    Tick lagSpacing;     ///< the same for the trailing flows
    int calls;
    int resetAt;         ///< the call before which to reset(), if any
};

/** Every acquire()'s start tick of @p t, then the final freeAt(). */
std::string
replay(const CalendarTrace &t)
{
    sim::Rng rng(t.seed);
    mem::Resource r;
    r.enableBackfill(t.cap);
    std::vector<Tick> clock(static_cast<std::size_t>(t.flows), 0);
    std::ostringstream os;
    os << "# " << t.name << " cap=" << t.cap << "\n";
    for (int i = 0; i < t.calls; ++i) {
        if (i == t.resetAt) {
            r.reset();
            clock.assign(clock.size(), 0);
            os << (i % 16 != 0 ? "\n" : "") << "reset\n";
        }
        Tick start;
        if (rng.below(16) == 0) {
            const Tick earliest = rng.below(r.freeAt() + 1);
            start = r.acquire(earliest, rng.below(64));
        } else {
            const bool lead = rng.below(16) < t.lead;
            const std::size_t f =
                lead ? 0
                     : 1 + static_cast<std::size_t>(rng.below(
                               static_cast<std::uint64_t>(t.flows - 1)));
            const Tick occupancy = rng.below(4);
            start = r.acquire(
                clock[f] + 1 +
                    rng.below(lead ? t.leadSpacing : t.lagSpacing),
                occupancy);
            clock[f] = start + occupancy;
        }
        os << start << ((i + 1) % 16 == 0 ? "\n" : " ");
    }
    os << "\nfreeAt " << r.freeAt() << "\n";
    return os.str();
}

/**
 * Start ticks of seeded traces on backfill calendars, pinning
 * first-fit gap selection, every claim case (shrink, split, erase)
 * and the cap rule (each append past the cap drops exactly one oldest
 * gap, however far splits pushed the count) to exact ticks.  Short
 * gaps and caps of 2 and 64 drop gaps constantly; the default cap
 * holds more than 16384 gaps; long lead gaps carved by trailing flows
 * split gaps densely, so a cap-64 calendar claims inside its oldest
 * gaps and a deep one splits gaps hundreds of times.
 */
TEST(DifferentialCalendar, SeededTracesMatchFixture)
{
    constexpr int kNoReset = -1;
    std::string out;
    for (const CalendarTrace &t : {
             CalendarTrace{"cap2", 1, 2, 2, 12, 2, 2, 512, kNoReset},
             CalendarTrace{"cap64", 2, 64, 3, 12, 2, 2, 4096, kNoReset},
             CalendarTrace{"cap64-reset", 3, 64, 4, 12, 2, 2, 4096, 2000},
             CalendarTrace{"default", 4, 16384, 3, 15, 2, 2, 24000,
                           kNoReset},
             CalendarTrace{"carve-cap64", 5, 64, 2, 8, 32, 2, 4000,
                           kNoReset},
             CalendarTrace{"carve-deep", 7, 4096, 2, 6, 64, 1, 4000,
                           kNoReset},
         })
        out += replay(t);
    expectMatchesFixture("resource_calendar.txt", out);
}

/**
 * A seeded 4-node 8400 trace of interleaved reads and writes over a
 * small pool of lines, pinning every coherence-directory answer
 * (ownership, sharers, last writer) to exact completion ticks and bus
 * counts.  The pool straddles several 256 KiB boundaries (4096 lines
 * of 64 bytes) near address 0, the copy destination (1 << 33) and the
 * loaded-machine node regions (id << 34); those bases alias in every
 * cache set, so conflict misses force writebacks.  A directory-only
 * resetAll() (caches stay warm, so dirty lines outlive their ownership
 * records) and a machine-wide resetTiming() land mid-trace.
 */
TEST(DifferentialDirectory, SeededCoherenceTraceMatchesFixture)
{
    constexpr int kNodes = 4;
    constexpr int kCalls = 6000;
    constexpr int kResetAllAt = 2000;
    constexpr int kResetTimingAt = 4000;
    constexpr Addr kPage = 256_KiB;

    std::vector<Addr> pool;
    std::vector<Addr> bases = {0, Addr{1} << 33};
    for (Addr id = 1; id < kNodes; ++id)
        bases.push_back(id << 34);
    for (const Addr base : bases)
        for (const Addr page : {Addr{1}, Addr{2}, Addr{7}})
            for (int d = -3; d < 3; ++d)
                pool.push_back(base + page * kPage +
                               static_cast<Addr>(d * 64));

    machine::Machine m(machine::SystemKind::Dec8400, kNodes);
    bus::Dec8400Memory &bus = *m.sharedMemory();
    sim::Rng rng(18);
    std::ostringstream os;
    os << "# dec8400 coherence trace, " << pool.size() << " lines\n";
    for (int i = 0; i < kCalls; ++i) {
        if (i == kResetAllAt) {
            bus.resetAll();
            os << "resetAll\n";
        } else if (i == kResetTimingAt) {
            m.resetTiming();
            os << "resetTiming\n";
        }
        const auto n = static_cast<NodeId>(rng.below(kNodes));
        const Addr a = pool[rng.below(pool.size())] + 8 * rng.below(8);
        const bool store = rng.below(3) == 0;
        const Tick done = store ? m.node(n).write(a) : m.node(n).read(a);
        os << (store ? "w" : "r") << n << " " << done
           << ((i + 1) % 8 == 0 ? "\n" : " ");
    }
    os << "drain";
    for (NodeId n = 0; n < kNodes; ++n)
        os << " " << m.node(n).drain();
    os << "\n";
    for (const char *stat : {"transactions", "interventions",
                             "invalidations", "memoryReads",
                             "memoryWrites"}) {
        const std::string name = bus.config().name + "." + stat;
        const auto *s = dynamic_cast<const stats::Scalar *>(
            bus.statsGroup().find(name));
        ASSERT_NE(s, nullptr) << name;
        os << name << " "
           << static_cast<std::uint64_t>(s->value()) << "\n";
    }
    expectMatchesFixture("coherence_dec8400.txt", os.str());
}

/**
 * A seeded trace of every mem::Cache mutator over the three shipped
 * geometries and one 4-way one, pinning each CacheResult field,
 * clean()'s answer and the final counters.  Addresses fall in a few
 * sets (the first, the last and some between) with assoc + 2 tags
 * each, one of them past 2^36, so sets overflow and LRU picks
 * victims; a bulk invalidateAll() lands every ~400 calls.  The trace
 * was captured while each line was a 32-byte record with 64-bit
 * epoch and LRU stamps, zero-filled at construction, so it pins the
 * packed, lazily backed tag array to that model's answers.
 */
TEST(DifferentialCache, SeededTraceMatchesFixture)
{
    constexpr int kCalls = 3000;
    const mem::CacheConfig geometries[] = {
        {"l1", 8_KiB, 32, 1, mem::WritePolicy::WriteThrough,
         mem::AllocPolicy::ReadAllocate},
        {"l2", 96_KiB, 64, 3, mem::WritePolicy::WriteBack,
         mem::AllocPolicy::ReadWriteAllocate},
        {"l3", 4_MiB, 64, 1, mem::WritePolicy::WriteBack,
         mem::AllocPolicy::ReadWriteAllocate},
        {"w4", 16_KiB, 32, 4, mem::WritePolicy::WriteBack,
         mem::AllocPolicy::ReadWriteAllocate},
    };
    std::ostringstream os;
    os << std::hex;
    sim::Rng rng(20);
    for (const mem::CacheConfig &cfg : geometries) {
        mem::Cache c(cfg);
        const Addr way_bytes = cfg.sizeBytes / cfg.assoc;
        const Addr sets = way_bytes / cfg.lineBytes;
        const Addr some_sets[] = {0, 1, 2, sets / 3, sets / 2, sets - 1};
        const Addr far = Addr{1} << 36;
        os << "# " << cfg.name << "\n";
        for (int i = 0; i < kCalls; ++i) {
            const Addr tag = rng.below(cfg.assoc + 2);
            const Addr a =
                (tag == cfg.assoc + 1 ? far : tag * way_bytes) +
                some_sets[rng.below(std::size(some_sets))] *
                    cfg.lineBytes +
                rng.below(cfg.lineBytes);
            const std::uint64_t op = rng.below(100);
            auto record = [&os](char what, const mem::CacheResult &r) {
                os << what << r.hit << r.allocated << r.evictedDirty
                   << r.wasDirty << ":" << r.victimAddr;
            };
            if (op == 0 && rng.below(4) == 0) {
                c.invalidateAll();
                os << "A";
            } else if (op < 40) {
                record('r', c.access(a, mem::AccessType::Read));
            } else if (op < 70) {
                record('w', c.access(a, mem::AccessType::Write));
            } else if (op < 80) {
                record('n', c.install(c.lineAddr(a)));
            } else if (op < 90) {
                c.invalidate(a);
                os << "i" << c.contains(a);
            } else {
                os << "c" << c.clean(a);
            }
            os << ((i + 1) % 8 == 0 ? "\n" : " ");
        }
        os << std::dec << cfg.name << " hits " << c.hits() << " misses "
           << c.misses() << " writebacks " << c.writebacks();
        const auto *inv = dynamic_cast<const stats::Scalar *>(
            c.statsGroup().find(cfg.name + ".invalidations"));
        ASSERT_NE(inv, nullptr);
        os << " invalidations " << static_cast<std::uint64_t>(inv->value())
           << std::hex << "\n";
    }
    expectMatchesFixture("cache_trace.txt", os.str());
}

/**
 * A seeded trace of mem::ReadAhead over more live sequences than the
 * 16-entry allocation filter holds, under a 4-slot and a 1-slot
 * detector, pinning every StreamHit, each covered slot's pipeline
 * timestamp and the fills/covered counters.  Cursors mostly advance
 * one line, sometimes jump, and isolated lines land between them, so
 * the filter and every slot fill up and are replaced over and over;
 * a reset() lands mid-trace.  The trace was captured while the
 * filter was an array of {line, lru, valid} records scanned once per
 * uncovered fill, so it pins which entry any later layout replaces.
 */
TEST(DifferentialStreams, SeededTraceMatchesFixture)
{
    constexpr int kCalls = 4000;
    constexpr int kCursors = 24;
    constexpr Addr kLine = 64;
    std::ostringstream os;
    sim::Rng rng(23);
    for (const std::uint32_t slots : {4u, 1u}) {
        mem::StreamConfig cfg;
        cfg.name = "s" + std::to_string(slots);
        cfg.streams = slots;
        cfg.threshold = slots == 1 ? 3 : 2;
        mem::ReadAhead ra(cfg);
        std::vector<Addr> cursor(kCursors);
        for (Addr &c : cursor)
            c = rng.below(Addr{1} << 20) * kLine;
        os << "# " << cfg.name << "\n";
        for (int i = 0; i < kCalls; ++i) {
            if (i == kCalls / 2) {
                ra.reset();
                os << "reset\n";
            }
            const std::uint64_t op = rng.below(10);
            Addr &c = cursor[rng.below(kCursors)];
            Addr line = 0;
            if (op < 8) {
                line = c;
                c += kLine;
            } else if (op < 9) {
                c = rng.below(Addr{1} << 20) * kLine;
                line = c;
            } else {
                line = rng.below(Addr{1} << 20) * kLine;
            }
            const mem::StreamHit h = ra.note(line, kLine);
            if (h.covered) {
                os << "c" << h.slot << "@" << ra.lastStart(h.slot);
                ra.setLastStart(h.slot, static_cast<Tick>(i));
            } else {
                os << "-";
            }
            os << ((i + 1) % 16 == 0 ? "\n" : " ");
        }
        const auto *fills = dynamic_cast<const stats::Scalar *>(
            ra.statsGroup().find(cfg.name + ".fills"));
        ASSERT_NE(fills, nullptr);
        os << cfg.name << " fills "
           << static_cast<std::uint64_t>(fills->value()) << " covered "
           << ra.coveredFills() << "\n";
    }
    expectMatchesFixture("stream_trace.txt", os.str());
}

/**
 * Three write-back levels under a write-back, write-allocate L1, with
 * caches small enough that a seeded trace evicts dirty lines at two
 * levels on one load, and a 2-slot stream unit.
 */
mem::HierarchyConfig
writeBackConfig()
{
    mem::HierarchyConfig h;
    h.name = "wb3";
    h.cpu.clockMhz = 250;
    h.cpu.readWindow = 2;
    h.cpu.writeWindow = 3;
    const struct
    {
        std::uint64_t size;
        std::uint32_t line, assoc;
        double hit, occ, fill;
    } levels[] = {{1_KiB, 32, 1, 4, 2, 8},
                  {4_KiB, 64, 2, 12, 6, 16},
                  {16_KiB, 64, 4, 30, 10, 24}};
    for (const auto &l : levels) {
        mem::LevelConfig lc;
        lc.cache.name = "wb3.l" + std::to_string(h.levels.size() + 1);
        lc.cache.sizeBytes = l.size;
        lc.cache.lineBytes = l.line;
        lc.cache.assoc = l.assoc;
        lc.cache.writePolicy = mem::WritePolicy::WriteBack;
        lc.cache.allocPolicy = mem::AllocPolicy::ReadWriteAllocate;
        lc.timing = {l.hit, l.occ, l.fill};
        h.levels.push_back(lc);
    }
    h.dram.name = "wb3.dram";
    h.dram.banks = 4;
    h.dram.rowBytes = 1024;
    h.windowFromLevel = 2;
    h.stream.name = "wb3.streams";
    h.stream.streams = 2;
    h.streamLineNs = 20;
    return h;
}

/**
 * Renders a seeded mix of read(), write(), readBatch(), writeBatch()
 * and primeBatch() (after a resetAll(), as its contract asks) on
 * @p h: every returned tick, the clocks after each batch, periodic
 * and final drain() ticks, and each level's hits, misses and
 * writebacks plus the stream and node counters.  Addresses come from
 * a few sets aliased at @p alias bytes, with sequential runs between,
 * so fills are both stream-covered and not.  @p double_dirty counts
 * single loads that wrote back dirty victims from two levels.
 */
std::string
hierarchyTrace(mem::MemoryHierarchy &h, Addr alias, std::uint64_t seed,
               int &double_dirty)
{
    constexpr int kCalls = 3000;
    const std::size_t levels = h.numLevels();
    sim::Rng rng(seed);
    Addr cursor = 0;
    auto pick = [&]() -> Addr {
        if (rng.below(3) == 0) {
            cursor += 8;
            return cursor;
        }
        return rng.below(6) * alias + rng.below(4) * 4096 +
               rng.below(3) * 64 + 8 * rng.below(8);
    };
    auto writebacks = [&] {
        std::vector<std::uint64_t> w;
        for (std::size_t l = 0; l < levels; ++l)
            w.push_back(h.level(l).writebacks());
        return w;
    };
    std::ostringstream os;
    std::vector<Addr> batch;
    double_dirty = 0;
    for (int i = 0; i < kCalls; ++i) {
        const std::uint64_t op = rng.below(100);
        if (op < 40) {
            const std::vector<std::uint64_t> before = writebacks();
            os << "r" << h.read(pick());
            const std::vector<std::uint64_t> after = writebacks();
            int dirty_levels = 0;
            for (std::size_t l = 0; l < levels; ++l)
                dirty_levels += after[l] != before[l];
            double_dirty += dirty_levels >= 2;
        } else if (op < 65) {
            os << "w" << h.write(pick());
        } else if (op < 94) {
            const bool sequential = rng.below(2) == 0;
            const std::size_t n = 1 + rng.below(48);
            const Addr stride = 8 * (1 + rng.below(16));
            batch.clear();
            Addr a = pick();
            for (std::size_t k = 0; k < n; ++k) {
                batch.push_back(sequential ? a : pick());
                a += stride;
            }
            const bool load = op < 84;
            if (load)
                h.readBatch(batch.data(), batch.size());
            else
                h.writeBatch(batch.data(), batch.size());
            os << (load ? "R" : "W") << n << ":" << h.now() << ","
               << h.lastComplete();
        } else if (op < 97) {
            h.resetAll();
            batch.clear();
            const Addr base = pick();
            const std::size_t n = 1 + rng.below(256);
            for (std::size_t k = 0; k < n; ++k)
                batch.push_back(base + 8 * k * (1 + rng.below(2)));
            h.primeBatch(batch.data(), batch.size());
            os << "P" << n << ":" << h.now();
        } else {
            os << "d" << h.drain();
        }
        os << ((i + 1) % 8 == 0 ? "\n" : " ");
    }
    os << "drain " << h.drain() << "\n";
    for (std::size_t l = 0; l < levels; ++l) {
        const mem::Cache &c = h.level(l);
        os << c.config().name << " hits " << c.hits() << " misses "
           << c.misses() << " writebacks " << c.writebacks() << "\n";
    }
    os << h.config().stream.name << " covered "
       << h.readAhead().coveredFills() << "\n";
    for (const char *stat : {".reads", ".writes", ".dramLineFills"}) {
        const std::string name = h.config().name + stat;
        const auto *s = dynamic_cast<const stats::Scalar *>(
            h.statsGroup().find(name));
        os << name << " "
           << (s ? static_cast<std::uint64_t>(s->value()) : 0) << "\n";
    }
    return os.str();
}

/**
 * Per-access hierarchy fixture: hierarchyTrace() on node 0 of each
 * machine (the 8400's fills go over its bus hook) and on the
 * three-level write-back config.  The 8400 and write-back traces must
 * write back dirty victims from two levels on some single load, and
 * every trace must see both stream-covered and uncovered fills.  The
 * fixture was captured while readOne() kept a value-initialized
 * CacheResult for every level, so it pins the fill unwind to that
 * code's ticks.
 */
TEST(DifferentialHierarchy, SeededTraceMatchesFixture)
{
    std::string out;
    auto check = [&out](const std::string &what,
                        mem::MemoryHierarchy &h, Addr alias,
                        std::uint64_t seed, bool expect_double_dirty) {
        int double_dirty = 0;
        out += "# " + what + "\n" +
               hierarchyTrace(h, alias, seed, double_dirty);
        if (expect_double_dirty) {
            EXPECT_GT(double_dirty, 0) << what;
        }
        const std::string fills_name = h.config().stream.name + ".fills";
        const auto *fills = dynamic_cast<const stats::Scalar *>(
            h.readAhead().statsGroup().find(fills_name));
        ASSERT_NE(fills, nullptr) << fills_name;
        const auto covered = h.readAhead().coveredFills();
        EXPECT_GT(covered, 0u) << what;
        EXPECT_GT(static_cast<std::uint64_t>(fills->value()), covered)
            << what;
    };
    for (const machine::SystemKind kind :
         {machine::SystemKind::Dec8400, machine::SystemKind::CrayT3D,
          machine::SystemKind::CrayT3E}) {
        machine::Machine m(kind, 2);
        check(slug(kind), m.node(0), 4_MiB, 31,
              kind == machine::SystemKind::Dec8400);
    }
    mem::MemoryHierarchy wb(writeBackConfig());
    check("wb3", wb, 16_KiB, 37, true);
    expectMatchesFixture("hierarchy_trace.txt", out);
}

/**
 * Kernel results over a small working-set x stride grid.  Primed
 * points use the functional tag walk (MemoryHierarchy::primeBatch);
 * when the fixtures were captured a fully timed priming pass produced
 * the same results, so they also pin the prime to leave exactly the
 * timed pass's warm state.
 */
class PrimeEquivalence
    : public ::testing::TestWithParam<machine::SystemKind>
{
  protected:
    static constexpr std::uint64_t kWorkingSets[] = {2_KiB, 8_KiB,
                                                     32_KiB};
    static constexpr std::uint64_t kStrides[] = {1, 3, 8};

    template <typename Run>
    static std::string
    grid(const char *kernel, Run &&run)
    {
        std::string out;
        for (const std::uint64_t ws : kWorkingSets) {
            for (const std::uint64_t stride : kStrides) {
                kernels::KernelParams p;
                p.wsBytes = ws;
                p.stride = stride;
                p.capBytes = 1_MiB;
                out += std::string(kernel) + " ws=" +
                       std::to_string(ws) +
                       " stride=" + std::to_string(stride) + " " +
                       resultLine(run(p)) + "\n";
            }
        }
        return out;
    }

    std::string
    fixture(const char *what) const
    {
        return std::string("prime_") + what + "_" + slug(GetParam()) +
               ".txt";
    }
};

TEST_P(PrimeEquivalence, MachineLoadSweep)
{
    expectMatchesFixture(
        fixture("loadSumOn"),
        grid("loadSumOn", [&](const kernels::KernelParams &p) {
            machine::SystemConfig sys;
            sys.kind = GetParam();
            machine::Machine m(sys);
            return kernels::loadSumOn(m, 0, p);
        }));
}

TEST_P(PrimeEquivalence, MachineLoadedSweep)
{
    expectMatchesFixture(
        fixture("loadSumLoaded"),
        grid("loadSumLoaded", [&](const kernels::KernelParams &p) {
            machine::SystemConfig sys;
            sys.kind = GetParam();
            machine::Machine m(sys);
            return kernels::loadSumLoaded(m, p);
        }));
}

TEST_P(PrimeEquivalence, NodeLoadAndStoreSweeps)
{
    const mem::HierarchyConfig node =
        machine::nodeConfig(GetParam(), "prime_eq");
    expectMatchesFixture(
        fixture("node"),
        grid("loadSum",
             [&](const kernels::KernelParams &p) {
                 mem::MemoryHierarchy h(node);
                 return kernels::loadSum(h, p);
             }) +
            grid("storeConstant", [&](const kernels::KernelParams &p) {
                mem::MemoryHierarchy h(node);
                return kernels::storeConstant(h, p);
            }));
}

TEST_P(PrimeEquivalence, NodeCopySweeps)
{
    const mem::HierarchyConfig node =
        machine::nodeConfig(GetParam(), "prime_eq");
    const auto copyGrid = [&](const char *name,
                              kernels::CopyVariant variant) {
        return grid(name, [&](const kernels::KernelParams &p) {
            mem::MemoryHierarchy h(node);
            return kernels::copy(h, p, variant, 1ull << 30);
        });
    };
    expectMatchesFixture(
        fixture("nodeCopy"),
        copyGrid("copyStridedLoads", kernels::CopyVariant::StridedLoads) +
            copyGrid("copyStridedStores",
                     kernels::CopyVariant::StridedStores));
}

INSTANTIATE_TEST_SUITE_P(AllMachines, PrimeEquivalence, kAllMachines,
                         paramName);

/**
 * The 8400-specific piece of the functional prime: priming a line
 * that is dirty in another processor's caches must replay the
 * intervention's directory and cache-state updates (owner cleaned,
 * ownership returned to memory, both nodes recorded as sharers).
 * Runs the same dirty-then-prime scenario through the timed and
 * functional passes and requires identical post-reset timing for
 * reads AND writes — the latter are sensitive to the sharer sets.
 */
TEST(PrimeEquivalence8400, InterventionStateIsReplayed)
{
    constexpr int kLines = 64;
    const auto run = [](bool timed) {
        machine::SystemConfig sys;
        sys.kind = machine::SystemKind::Dec8400;
        machine::Machine m(sys);
        EXPECT_GE(m.numNodes(), 2);
        m.resetAll();
        std::vector<Addr> lines;
        for (int i = 0; i < kLines; ++i)
            lines.push_back(0x40000 + static_cast<Addr>(i) * 64);
        // Node 1 dirties the lines through the bus.
        for (const Addr a : lines)
            m.node(1).write(a);
        m.node(1).drain();
        // Node 0 primes them: timed reads or the functional walk.
        if (timed) {
            for (const Addr a : lines)
                m.node(0).read(a);
            m.node(0).drain();
        } else {
            m.node(0).primeBatch(lines.data(), lines.size());
        }
        m.resetTiming();
        // Measured phase over the warmed state.
        for (const Addr a : lines)
            m.node(0).read(a);
        for (const Addr a : lines)
            m.node(1).read(a);
        const Tick reads =
            std::max(m.node(0).drain(), m.node(1).drain());
        for (const Addr a : lines)
            m.node(1).write(a);
        const Tick writes = m.node(1).drain();
        return std::pair<Tick, Tick>(reads, writes);
    };
    const auto timed = run(true);
    const auto functional = run(false);
    EXPECT_EQ(timed.first, functional.first);
    EXPECT_EQ(timed.second, functional.second);
}

/*
 * One small case per production caller of the per-access
 * MemoryHierarchy::read()/write(): exact ticks plus the stats JSON.
 */

std::string
ticks(const char *what, Tick t)
{
    return std::string(what) + " " + std::to_string(t) + "\n";
}

TEST(CallerFixtures, SignalLatencyAndBarrier)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    std::string out;
    for (const Tick start : {Tick{0}, Tick{2'000'000}}) {
        const machine::SignalResult r =
            machine::signalLatency(m, 0, 1, 0x10000, start);
        out += ticks("producerDone", r.producerDone) +
               ticks("consumerSees", r.consumerSees) +
               ticks("latency", r.latency);
    }
    out += ticks("barrierAll", machine::barrierAll(m, 5'000'000));
    expectMatchesFixture("caller_sync_dec8400.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, IndexedKernels)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    kernels::IndexedParams p;
    p.wsBytes = 8_KiB;
    std::string out;
    for (const kernels::IndexPattern pat :
         {kernels::IndexPattern::Random,
          kernels::IndexPattern::MostlySequential}) {
        p.pattern = pat;
        out += std::string(kernels::indexPatternName(pat)) +
               " loadSum " +
               resultLine(kernels::indexedLoadSum(m, 0, p)) + "\n";
        out += std::string(kernels::indexPatternName(pat)) + " copy " +
               resultLine(kernels::indexedCopy(m, 0, p, 1ull << 30)) +
               "\n";
    }
    expectMatchesFixture("caller_indexed_t3d.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, BlockedTranspose)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    kernels::BlockedParams p;
    p.n = 64;
    p.tile = 16;
    std::string out;
    for (const kernels::Traversal t :
         {kernels::Traversal::RowMajor, kernels::Traversal::ColumnMajor,
          kernels::Traversal::Tiled}) {
        p.traversal = t;
        out += std::string(kernels::traversalName(t)) + " " +
               resultLine(kernels::blockedTranspose(m, 0, p)) + "\n";
    }
    expectMatchesFixture("caller_blocked_t3e.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, GasRuntimeLocalAccess)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    gas::Runtime rt(m);
    gas::GlobalArray a = rt.allocate(256);
    std::string out;
    // Direct loads and stores, including cross-node ones the 8400's
    // shared memory allows.
    for (std::uint64_t w = 0; w < 32; w += 3) {
        out += ticks("load", rt.load(0, a.on(1, w)));
        out += ticks("store", rt.store(2, a.on(0, w)));
    }
    // A same-node transfer runs as a local load/store copy loop.
    gas::Strided spec;
    spec.words = 64;
    spec.srcStride = 4;
    spec.dstStride = 2;
    spec.elemWords = 2;
    out += ticks("localCopy",
                 rt.rput_strided(a.on(3, 0), a.on(3, 128), spec,
                                 gas::Method::Auto)
                     .complete);
    out += ticks("waitAll", rt.waitAll());
    expectMatchesFixture("caller_gas_dec8400.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, CoherentPull)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    m.resetAll();
    m.produce(0, 0x100000, 512);
    m.barrier();
    m.resetTiming();
    remote::TransferRequest req;
    req.src = 0;
    req.dst = 1;
    req.srcAddr = 0x100000;
    req.dstAddr = 0x900000;
    req.words = 256;
    req.srcStride = 2;
    std::string out = ticks(
        "pull", m.remote().transfer(
                    req, remote::TransferMethod::CoherentPull, 0));
    expectMatchesFixture("caller_smp_pull_dec8400.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, T3dDepositSourceLoads)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    m.resetAll();
    m.produce(0, 0x100000, 512);
    m.barrier();
    m.resetTiming();
    remote::TransferRequest req;
    req.src = 0;
    req.dst = 2;
    req.srcAddr = 0x100000;
    req.dstAddr = 0x900000;
    req.words = 256;
    req.srcStride = 2;
    req.dstStride = 3;
    req.elemWords = 2;
    std::string out = ticks(
        "deposit",
        m.remote().transfer(req, remote::TransferMethod::Deposit, 0));
    expectMatchesFixture("caller_cray_engine_t3d.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, Redistribution)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Distribution from;
    from.kind = DistKind::Block;
    from.elements = 512;
    from.procs = 4;
    Distribution to = from;
    to.kind = DistKind::Cyclic;
    const RedistResult r =
        executeRedistribution(m, planRedistribution(from, to));
    const std::string out = ticks("elapsed", r.elapsed) +
                            "bytesMoved " +
                            std::to_string(r.bytesMoved) + "\n" +
                            "transfers " +
                            std::to_string(r.transfers) + "\n";
    expectMatchesFixture("caller_redistribution_t3e.txt",
                         out + statsSection(m));
}

TEST(CallerFixtures, Dec8400FftTranspose)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    fft::Fft2dConfig cfg;
    cfg.n = 32;
    const fft::Fft2dResult r = fft::DistributedFft2d(m).run(cfg);
    const std::string out = ticks("total", r.totalTicks) +
                            ticks("compute", r.computeTicks) +
                            ticks("comm", r.commTicks) +
                            "remoteBytes " +
                            std::to_string(r.remoteBytes) + "\n";
    expectMatchesFixture("caller_fft2d_dec8400.txt",
                         out + statsSection(m));
}

TEST(FixtureFile, MissingFixtureFailsWithRegenCommand)
{
    const std::string missing = std::string(GASNUB_TESTS_DATA_DIR) +
                                "/differential/no_such_fixture.txt";
    EXPECT_NONFATAL_FAILURE(expectMatchesFile(missing, "x\n", false),
                            "GASNUB_REGEN_GOLDEN=1");
    // A directory opens but cannot be read as a fixture.
    EXPECT_NONFATAL_FAILURE(
        expectMatchesFile(std::string(GASNUB_TESTS_DATA_DIR), "x\n",
                          false),
        "GASNUB_REGEN_GOLDEN=1");
}

} // namespace
