/**
 * @file
 * The shared memory subsystem of the DEC 8400: interleaved DRAM behind
 * a 256-bit, 75 MHz split-transaction snooping bus with a coherency
 * protocol close to sequential consistency (paper Sections 2 and 3.1).
 *
 * A line-granular directory (functionally equivalent to bus snooping
 * with free broadcast) tracks which processor holds a line dirty.
 * Reads of a line dirty in another processor's caches are served by a
 * cache-to-cache intervention; read-exclusive fills invalidate other
 * copies; writebacks return ownership to memory.  "The DEC 8400 does
 * not have support for pushing data into memory or caches of a remote
 * processor" — all communication is pulling, through this path.
 */

#ifndef GASNUB_BUS_DEC8400_MEMORY_HH
#define GASNUB_BUS_DEC8400_MEMORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/resource.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace gasnub::bus {

/** Static configuration of the 8400 system bus. */
struct BusConfig
{
    std::string name = "bus";
    double arbNs = 40;          ///< arbitration + address phase
    double snoopNs = 45;        ///< snoop window before data phase
    /**
     * Extra cost of a cache-to-cache intervention: the owning board's
     * L3 must be read and the data driven onto the bus.
     */
    double interventionNs = 180;
    /**
     * Extra latency when reading a line most recently written by a
     * different processor (coherence bookkeeping on shared data even
     * after the dirty copy was written back).
     */
    double sharedLineNs = 75;
    std::uint32_t lineBytes = 64; ///< coherence granularity (power of 2)
};

/**
 * Shared DRAM + snooping bus + coherence directory for one 8400 box.
 *
 * Attach the per-processor hierarchies with attach(); this installs a
 * memory-side hook so every off-chip fill of every processor is routed
 * through the bus and directory.
 */
class Dec8400Memory
{
  public:
    /**
     * @param bus_config  Bus timing.
     * @param dram_config Shared-memory timing (split-transaction).
     * @param parent      Stats group to register under (may be null).
     */
    Dec8400Memory(const BusConfig &bus_config,
                  const mem::DramConfig &dram_config,
                  stats::Group *parent = nullptr);

    /**
     * Attach processor @p id; installs the DRAM hook on @p h.
     * @param id Node id (0-based, dense, below 32: sharer sets are
     *           32-bit masks).
     * @param h  The processor's memory hierarchy; must outlive this.
     */
    void attach(NodeId id, mem::MemoryHierarchy *h);

    /** The shared DRAM (for tests and the loaded-machine bench). */
    mem::Dram &dram() { return _dram; }

    /**
     * Attach the machine's time account; address-phase occupancy
     * charges @p addrBus (the shared DRAM behind the bus is wired
     * separately, under the "bus.dram.*" resource classes).
     */
    void
    setTimeAccount(sim::TimeAccount *acct,
                   sim::TimeAccount::ResId addrBus)
    {
        _acct = acct;
        _addrRes = addrBus;
    }

    /** Reset bus/DRAM timing state (between experiments). */
    void resetTiming();

    /** Also forget all coherence state. */
    void resetAll();

    const BusConfig &config() const { return _config; }

    stats::Group &statsGroup() { return _stats; }

    std::uint64_t interventions() const
    {
        return static_cast<std::uint64_t>(_interventions.value());
    }
    std::uint64_t invalidations() const
    {
        return static_cast<std::uint64_t>(_invalidationsSent.value());
    }

  private:
    /** One bus transaction on behalf of @p requester. */
    mem::DramResult access(NodeId requester, Addr addr,
                           mem::FetchIntent intent, Tick earliest,
                           std::uint32_t bytes);

    /**
     * State-only replay of a priming read fill for @p requester: the
     * directory/ownership updates of the Read intent of access(),
     * with no bus or DRAM time charged and no transactions counted
     * (MemoryHierarchy::primeBatch calls this through the prime hook).
     */
    void primeFill(NodeId requester, Addr addr);

    /** Per-line directory entry. */
    struct LineState
    {
        std::uint32_t sharers = 0; ///< bitmask of nodes with a copy
        NodeId dirtyOwner = invalidNode;
        NodeId lastWriter = invalidNode;
    };

    /**
     * Direct-indexed, paged line directory.  A line's index (address
     * >> log2(lineBytes)) selects a fixed page of kPageLines entries,
     * allocated on first touch, and a slot within it; pages are found
     * through a vector sorted by page key behind a one-entry last-page
     * cache, so a sweep walks consecutive entries of one page with no
     * search or hashing.  Pages never move, so a LineState & stays
     * valid across later lookups.  Each entry carries the epoch it was
     * last written in: clear() bumps the epoch, and an entry from an
     * older epoch reads as a default LineState.  Layout depends only
     * on which pages were touched, never on pointer values.
     */
    class LineDir
    {
      public:
        /** Find the entry for line index @p line, defaulting if absent. */
        LineState &
        operator[](Addr line)
        {
            const Addr key = line >> kPageShift;
            if (key != _lastKey) {
                _lastPage = page(key);
                _lastKey = key;
            }
            Entry &e = _lastPage[line & (kPageLines - 1)];
            if (e.epoch != _epoch) {
                e.state = LineState{};
                e.epoch = _epoch;
            }
            return e.state;
        }

        /** Forget all coherence state in O(1) (pages are retained). */
        void clear();

      private:
        struct Entry
        {
            LineState state;
            /** Epoch @c state belongs to; 0 never matches _epoch. */
            std::uint32_t epoch = 0;
        };

        static constexpr unsigned kPageShift = 12;
        static constexpr Addr kPageLines = Addr{1} << kPageShift;

        struct Page
        {
            Addr key;
            std::unique_ptr<Entry[]> entries;
        };

        /** The entries of page @p key, allocating the page if new. */
        Entry *page(Addr key);

        std::vector<Page> _pages; ///< sorted by key
        /** No line index reaches this key, so the first lookup misses. */
        Addr _lastKey = ~Addr{0};
        Entry *_lastPage = nullptr;
        std::uint32_t _epoch = 1;
    };

    Addr lineOf(Addr addr) const
    {
        return addr & ~static_cast<Addr>(_config.lineBytes - 1);
    }

    BusConfig _config;
    unsigned _lineShift; ///< log2(lineBytes)
    Tick _arbTicks;
    Tick _snoopTicks;
    Tick _interventionTicks;
    Tick _sharedLineTicks;

    mem::Dram _dram;
    mem::Resource _addressBus;
    sim::TimeAccount *_acct = nullptr;
    sim::TimeAccount::ResId _addrRes = 0;
    std::vector<mem::MemoryHierarchy *> _nodes;
    LineDir _dir;

    stats::Group _stats;
    stats::Scalar _transactions;
    stats::Scalar _interventions;
    stats::Scalar _invalidationsSent;
    stats::Scalar _memoryReads;
    stats::Scalar _memoryWrites;
    stats::IntervalBandwidth _bandwidth;
    trace::TrackId _traceTrack;
};

} // namespace gasnub::bus

#endif // GASNUB_BUS_DEC8400_MEMORY_HH
