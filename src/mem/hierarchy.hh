/**
 * @file
 * The per-node memory hierarchy: caches + stream unit + write-back
 * queue + DRAM, with a pipelined timing model.
 *
 * Timing model.  The benchmarks of the paper are carefully unrolled
 * loops of independent loads/stores (Section 4.2, footnote 2), so
 * throughput — not dependent-load latency — is what matters.  Each
 * access is charged:
 *
 *   - an issue slot on the processor (loadIssueCycles models the
 *     "about half of peak" achievable by compiled code);
 *   - port occupancy at the level that serves it and fill occupancy at
 *     every level above (bandwidth bounds);
 *   - a latency path; accesses served at or below `windowFromLevel`
 *     consume a slot in a bounded OutstandingWindow, yielding the
 *     steady state  interval = max(occupancy, latency / window).
 *
 * Line fills covered by the stream / read-ahead unit are issued
 * decoupled from the processor at a configurable pipelined interval,
 * hiding latency for contiguous accesses — the mechanism behind the
 * contiguous ridges of Figures 1, 3, and 6.
 */

#ifndef GASNUB_MEM_HIERARCHY_HH
#define GASNUB_MEM_HIERARCHY_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/access.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/resource.hh"
#include "mem/stream.hh"
#include "mem/wbq.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/** Why a line is being fetched from memory (coherence intent). */
enum class FetchIntent {
    Read,          ///< plain demand read
    ReadExclusive, ///< read-for-ownership (write-allocate miss)
    Write,         ///< writeback / uncached word write
    Upgrade,       ///< write hit on a clean line (ownership upgrade)
};

/** Processor front-end parameters. */
struct CpuConfig
{
    std::string name = "cpu";
    double clockMhz = 300;
    /**
     * Effective cycles per load issue in compiled code.  The paper
     * measured "about half of the peak bandwidth for loads out of L1
     * cache with compiler generated benchmarks" — this parameter is
     * that compiler reality, not the datasheet's 2 loads/cycle.
     */
    double loadIssueCycles = 2.2;
    double storeIssueCycles = 2.2;
    std::uint32_t readWindow = 1;  ///< outstanding off-chip reads
    std::uint32_t writeWindow = 4; ///< outstanding stores (store buffer)
};

/** Timing of one cache level. */
struct LevelTiming
{
    double hitNs = 6.6;          ///< load-to-use on a hit
    double hitOccupancyNs = 3.3; ///< port busy per hit
    double fillOccupancyNs = 13; ///< port busy to pass one line upward
};

/** One cache level: geometry + timing. */
struct LevelConfig
{
    CacheConfig cache;
    LevelTiming timing;
};

/** Full configuration of a node's memory system. */
struct HierarchyConfig
{
    std::string name = "node";
    CpuConfig cpu;
    std::vector<LevelConfig> levels; ///< L1 first; at least one level
    DramConfig dram;
    double dramFrontNs = 30; ///< request path after the last-level miss
    double dramBackNs = 10;  ///< data return path into the processor
    /**
     * Accesses served at level index >= windowFromLevel consume a slot
     * of the bounded read window (on-chip cache hits pipeline freely).
     */
    std::uint32_t windowFromLevel = 1;
    StreamConfig stream;
    /**
     * Pipelined line interval of the decoupled stream engine in ns
     * (<= 0 disables the floor; DRAM bank/bus occupancy still applies).
     */
    double streamLineNs = 0;
    /** Prefetch lookahead depth in lines for covered fills. */
    std::uint32_t streamDepth = 4;
    /**
     * In-order Alphas stall the pipeline shortly after an off-chip
     * load miss: when true, a read that consumes a window slot also
     * holds back the issue of subsequent instructions until its data
     * returns (demand misses only; stream-covered fills still
     * pipeline).
     */
    bool blockingOffchipReads = true;
    /** T3D-style coalescing write queue draining to DRAM. */
    std::optional<WbqConfig> wbq;
};

/**
 * A node-local memory system with deterministic, simulated-time-only
 * behaviour.  read()/write() advance an internal program-order clock
 * and return completion ticks; bandwidth is (useful bytes) / elapsed.
 */
class MemoryHierarchy
{
  public:
    /**
     * @param config Full configuration.
     * @param parent Stats group to register under (may be null).
     */
    explicit MemoryHierarchy(const HierarchyConfig &config,
                             stats::Group *parent = nullptr);

    /** Issue one 64-bit load. @return tick the data is available. */
    Tick read(Addr addr);

    /** Issue one 64-bit store. @return tick the store retires. */
    Tick write(Addr addr);

    /**
     * Batched path: issue @p n word loads in program order.  Timing,
     * functional state, and stats are bit-identical to n read()
     * calls; the per-access profiler zone and stats increments are
     * hoisted out of the loop.
     */
    void readBatch(const Addr *addrs, std::size_t n);

    /** Batched path for @p n word stores (see readBatch). */
    void writeBatch(const Addr *addrs, std::size_t n);

    /**
     * Consume a mixed read/write batch in order (copy kernels pair a
     * load with a store per element).  Equivalent to dispatching each
     * entry through read()/write().
     */
    void processBatch(const AccessBatch &batch);

    /**
     * Functional priming pass: walk @p n word loads through the cache
     * tags only, with no timing, stream detection, window accounting,
     * or access counting.  Starting from resetAll()-clean caches this
     * leaves exactly the state a timed read sweep followed by
     * resetTiming() would — warm tags/LRU here, plus whatever the
     * prime hook records memory-side (the 8400 bus replays its
     * directory updates through it).  Must not be used on caches that
     * may hold dirty lines: a priming read never sources victim
     * writebacks, so the walk asserts no dirty line is evicted.
     */
    void primeBatch(const Addr *addrs, std::size_t n);

    /**
     * Complete all buffered work (write-back queue) — a
     * synchronization point. @return tick everything is globally
     * visible (>= all previous completions).
     */
    Tick drain();

    /** Program-order issue clock (next free issue slot). */
    Tick now() const { return _nextIssue; }

    /**
     * Consume one issue slot of @p cycles without a memory access
     * (used by the remote engines to charge the CPU cost of remote
     * stores and shmem calls). @return the issue tick.
     */
    Tick
    consumeIssue(double cycles)
    {
        const Tick t = _nextIssue;
        _nextIssue += cyclesToTicks(cycles);
        if (_acct)
            _acct->charge(_issueRes, t, _nextIssue);
        return t;
    }

    /** Stall instruction issue until @p t (backpressure). */
    void
    stallUntil(Tick t)
    {
        if (t > _nextIssue)
            _nextIssue = t;
    }

    /** Latest completion handed out so far. */
    Tick lastComplete() const { return _lastComplete; }

    /**
     * Reset all timing state (resources, windows, clocks) but keep
     * cache tags and DRAM rows — used after a priming pass.
     */
    void resetTiming();

    /** Reset timing and invalidate all cached state. */
    void resetAll();

    /** Number of cache levels. */
    std::size_t numLevels() const { return _numLevels; }

    /** Access a cache level (0 = L1). */
    Cache &level(std::size_t i);

    Dram &dram() { return _dram; }
    ReadAhead &readAhead() { return _readAhead; }

    /** Write-back queue, if configured (Cray T3D). */
    WriteBackQueue *wbq() { return _wbq.get(); }

    const HierarchyConfig &config() const { return _config; }

    /** Ticks for @p cycles of this node's clock. */
    Tick cyclesToTicks(double cycles) const;

    /**
     * Memory-side hook.  When set, every access that would go to the
     * node-local DRAM is routed through this function instead — the
     * DEC 8400 machine uses it to route fills over the snooping bus to
     * the shared memory (and to remote caches for interventions).
     *
     * The hook receives (address, intent, earliest start, bytes) and
     * returns start/ready times like Dram::access.
     */
    using DramHook =
        std::function<DramResult(Addr, FetchIntent, Tick,
                                 std::uint32_t)>;

    /** Install (or clear, with nullptr) the memory-side hook. */
    void setDramHook(DramHook hook) { _dramHook = std::move(hook); }

    /**
     * State-only companion of the DRAM hook for primeBatch(): called
     * with the line address of every priming read that misses all
     * cache levels, so a coherent shared memory (the 8400 bus) can
     * replay the directory/ownership updates a timed fill would have
     * made — without charging time or counting transactions.
     */
    using PrimeHook = std::function<void(Addr)>;

    /** Install (or clear, with nullptr) the priming hook. */
    void setPrimeHook(PrimeHook hook) { _primeHook = std::move(hook); }

    /**
     * Attach the machine's time account.  The hierarchy charges the
     * processor's issue slots, cache-port occupancy, and the stream
     * engine's pipelined line intervals; the DRAM and write-back
     * queue are wired separately by the machine.
     */
    void
    setTimeAccount(sim::TimeAccount *acct,
                   sim::TimeAccount::ResId issue,
                   sim::TimeAccount::ResId cachePort,
                   sim::TimeAccount::ResId stream)
    {
        _acct = acct;
        _issueRes = issue;
        _cacheRes = cachePort;
        _streamRes = stream;
    }

    /**
     * Engine-side DRAM word access, bypassing the caches (used by the
     * network interface / E-register models which store incoming data
     * "directly into the user space" — paper Section 3.2).
     *
     * @param addr     Word address.
     * @param type     Read or Write.
     * @param earliest Earliest start tick.
     * @param bytes    Access size in bytes.
     * @return data-ready / completion tick.
     */
    Tick engineAccess(Addr addr, AccessType type, Tick earliest,
                      std::uint32_t bytes);

    /**
     * Invalidate the line containing @p addr in every cache level (the
     * T3D invalidates L1 lines as deposits arrive; the 8400 bus snoops
     * do the same for all levels).
     */
    void invalidateLine(Addr addr);

    stats::Group &statsGroup() { return _stats; }

  private:
    /**
     * Serve a read at @p level, filling upward.  Performs functional
     * tag updates and charges timing.
     * @param level Cache level to probe (numLevels() = DRAM).
     * @param addr  Accessed address.
     * @param issue Processor issue tick.
     * @param served_level Out: the level that provided the data.
     * @return data-ready tick at the processor.
     */
    Tick serveRead(std::size_t level, Addr addr, Tick issue,
                   std::size_t &served_level, bool exclusive);

    /**
     * Serve a store at @p level (the first write-back level under a
     * write-through L1). Write-allocate misses fetch the line.
     * @return completion tick.
     */
    Tick serveWrite(std::size_t level, Addr addr, Tick issue,
                    std::size_t &served_level);

    /** Post a victim writeback from @p level to the level below. */
    void postWriteback(std::size_t from_level, Addr victim_line,
                       Tick earliest);

    /**
     * Read one line from DRAM, demand or stream-covered as @p sh (the
     * caller's ReadAhead::note() verdict for this fill) says.
     */
    Tick dramLineRead(Addr line_addr, std::uint32_t line_bytes,
                      Tick issue, const StreamHit &sh, bool exclusive);

    /** Route one memory-side access via the hook or local DRAM. */
    DramResult memorySide(Addr addr, FetchIntent intent, Tick earliest,
                          std::uint32_t bytes);

    /**
     * One load, shared by read() and the batch paths (no
     * prof-zone/stat updates — callers hoist those).  A single
     * mutating cache walk decides the serving level; an off-chip miss
     * consults the stream detector once, and a read uses a window slot
     * iff it is served at or below windowFromLevel and no stream
     * covers its fill.  Fills unwind upward in serveRead() order.
     */
    Tick readOne(Addr addr);

    /** One store, shared by write() and the batch paths (no
     * prof-zone/stat updates — callers hoist those). */
    Tick writeOne(Addr addr);

    Tick nsTicks(double ns) const;

    /** Upper bound on cache levels (the level array and readOne's
     *  victim scratch array). */
    static constexpr std::size_t kMaxLevels = 8;

    /** Per-level timing precomputed from the config (== nsTicks of
     * the LevelTiming fields). */
    struct LevelTicks
    {
        Tick hit = 0;
        Tick hitOcc = 0;
        Tick fillOcc = 0;
    };

    HierarchyConfig _config;
    Tick _loadIssueTicks;
    Tick _storeIssueTicks;
    Tick _cycleTicks; ///< one processor cycle: a fill's minimum use
    Tick _dramFrontTicks;
    Tick _dramBackTicks;
    Tick _streamLineTicks;
    std::vector<LevelTicks> _levelTicks;
    std::uint32_t _lastLineBytes = 0;
    Addr _lastLineMask = 0;

    /** Owns the levels; a deque never moves what it holds. */
    std::deque<Cache> _cacheStore;
    /** The levels the walks probe, L1 first; _numLevels are set. */
    Cache *_levels[kMaxLevels] = {};
    std::size_t _numLevels = 0;
    std::vector<Resource> _ports; ///< one per cache level
    Dram _dram;
    ReadAhead _readAhead;
    std::unique_ptr<WriteBackQueue> _wbq;

    DramHook _dramHook;
    PrimeHook _primeHook;
    sim::TimeAccount *_acct = nullptr;
    sim::TimeAccount::ResId _issueRes = 0;
    sim::TimeAccount::ResId _cacheRes = 0;
    sim::TimeAccount::ResId _streamRes = 0;
    OutstandingWindow _readWindow;
    OutstandingWindow _writeWindow;
    Tick _nextIssue = 0;
    Tick _lastComplete = 0;

    stats::Group _stats;
    stats::Scalar _reads;
    stats::Scalar _writes;
    stats::Scalar _dramLineFills;
    stats::IntervalBandwidth _fillBandwidth;
    trace::TrackId _traceTrack;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_HIERARCHY_HH
