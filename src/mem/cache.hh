/**
 * @file
 * A functional set-associative cache tag array with LRU replacement.
 *
 * The timing of hits and fills lives in MemoryHierarchy; this class
 * answers only "hit or miss, and which dirty line got evicted".  It
 * supports the structures found in the three machines:
 *   - DEC 21064 / 21164 L1: 8 KB direct-mapped, write-through,
 *     read-allocate (no write-allocate), 32-byte lines;
 *   - DEC 21164 L2: 96 KB 3-way, write-back, write-allocate, 64 B;
 *   - DEC 8400 L3 board cache: 4 MB direct-mapped write-back, 64 B.
 */

#ifndef GASNUB_MEM_CACHE_HH
#define GASNUB_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "mem/access.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/** Write hit policy. */
enum class WritePolicy {
    WriteThrough, ///< stores always propagate below (21064/21164 L1)
    WriteBack,    ///< dirty lines written below on eviction
};

/** Miss allocation policy. */
enum class AllocPolicy {
    ReadAllocate,      ///< allocate on read miss only (WT caches)
    ReadWriteAllocate, ///< allocate on both (WB caches)
};

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 8192;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 1; ///< 1 = direct mapped
    WritePolicy writePolicy = WritePolicy::WriteThrough;
    AllocPolicy allocPolicy = AllocPolicy::ReadAllocate;
};

/** Outcome of a single cache access. */
struct CacheResult
{
    bool hit = false;
    bool allocated = false;     ///< a new line was brought in
    bool evictedDirty = false;  ///< a dirty victim must be written back
    bool wasDirty = false;      ///< line was already dirty before a hit
    Addr victimAddr = 0;        ///< line address of the dirty victim
};

/**
 * Functional cache model.
 *
 * All addresses are physical byte addresses; lines are aligned.
 *
 * The tag array is numSets x assoc 16-byte Lines, row major, taken
 * zeroed from the OS (calloc): a set nothing has touched costs no
 * resident memory, and an all-zero Line is dead (docs/MODEL.md §4).
 */
class Cache
{
  public:
    /**
     * @param config Geometry and policies.
     * @param parent Stats group to register under (may be null).
     */
    explicit Cache(const CacheConfig &config,
                   stats::Group *parent = nullptr);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Perform one access and update tag state.  Inline: it runs once
     * per access per probed level.
     * @param addr Byte address accessed.
     * @param type Read or Write.
     * @return hit/miss and eviction information.
     */
    CacheResult
    access(Addr addr, AccessType type)
    {
        CacheResult res;
        const Addr line = lineAddr(addr);
        Line *ways = setWays(addr);
        const Addr dirty =
            type == AccessType::Write && _writeBack ? kDirtyBit : 0;

        // Direct-mapped fast path: the only way is both the probe and
        // the victim, so there is no scan and no LRU stamp.  Two of
        // the modelled structures (the 21064/21164 L1 and the 8400's
        // 4 MB board cache) are direct mapped.
        if (_assoc == 1) {
            Line &l = ways[0];
            if (holds(l, line)) {
                res.hit = true;
                res.wasDirty = (l.tag & kDirtyBit) != 0;
                l.tag |= dirty;
                ++_hits;
                return res;
            }
            ++_misses;
            if (type == AccessType::Read || _writeAllocate)
                fill(l, line | dirty, res);
            return res;
        }

        for (std::uint32_t w = 0; w < _assoc; ++w) {
            Line &l = ways[w];
            if (holds(l, line)) {
                res.hit = true;
                res.wasDirty = (l.tag & kDirtyBit) != 0;
                l.tag |= dirty;
                l.lru = nextLru();
                ++_hits;
                return res;
            }
        }
        ++_misses;
        if (type == AccessType::Read || _writeAllocate) {
            Line &v = victim(ways);
            fill(v, line | dirty, res);
            v.lru = nextLru();
        }
        return res;
    }

    /** @return true if the line containing @p addr is present. */
    bool contains(Addr addr) const;

    /**
     * Install a full line that arrived as a victim writeback from the
     * level above (no read-from-below needed; the whole line is
     * valid). The installed line is dirty.
     * @param line_addr Line-aligned address.
     * @return eviction information for cascading writebacks.
     */
    CacheResult install(Addr line_addr);

    /** Invalidate the line containing @p addr, if present. */
    void invalidate(Addr addr);

    /**
     * Invalidate everything (the T3D invalidates the whole L1 at
     * synchronization points; see paper Section 3.2).  Unlike
     * invalidate(), this bulk flush does not count into the
     * invalidations stat — that stat tracks per-line coherence events.
     */
    void invalidateAll();

    /**
     * Mark the line containing @p addr clean (after an external
     * writeback, e.g.\ a bus intervention on the DEC 8400).
     * @return true if the line was present and dirty.
     */
    bool clean(Addr addr);

    const CacheConfig &config() const { return _config; }

    /** Line-aligned address for @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~_lineMask; }

    /** Per-cache statistics, registered as "<name>.<stat>". */
    stats::Group &statsGroup() { return _stats; }

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(_hits.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(_misses.value());
    }
    std::uint64_t writebacks() const
    {
        return static_cast<std::uint64_t>(_writebacks.value());
    }

  private:
    /** Test-only access to the stamp counters (tests/mem). */
    friend struct CacheTestPeer;

    /**
     * One tag entry.  Lines are aligned and at least 2 bytes, so bit 0
     * of a line address is free and holds the dirty bit.  A line is
     * live when stamped with the current epoch; epoch 0 is never live,
     * so the OS-zeroed array starts all dead.  lru is stamped only in
     * set-associative caches (larger = more recently used).
     */
    struct Line
    {
        Addr tag;            ///< line address | dirty bit
        std::uint32_t epoch; ///< live only when == _epoch
        std::uint32_t lru;
    };

    static constexpr Addr kDirtyBit = 1;

    /** free()s the calloc()ed tag array. */
    struct FreeLines
    {
        void operator()(Line *p) const;
    };

    /**
     * invalidate() zeroes a line's epoch; invalidateAll() — the
     * per-experiment harness reset, called once per grid point over
     * line arrays up to megabytes long — is a single epoch bump
     * instead of a full-array clear.  Stale-epoch lines behave exactly
     * like invalid ones: probes skip them and victim selection prefers
     * them in way order, the same order a cleared array yields.
     */
    bool live(const Line &l) const { return l.epoch == _epoch; }

    bool
    holds(const Line &l, Addr line) const
    {
        return live(l) && (l.tag & ~kDirtyBit) == line;
    }

    Line *
    setWays(Addr addr) const
    {
        // lineBytes is asserted pow2; shift instead of dividing.
        return _lines.get() +
               ((addr >> _lineShift) & _setMask) * _assoc;
    }

    /** The way to refill in @p ways: the first dead way, else LRU. */
    Line &
    victim(Line *ways) const
    {
        Line *v = &ways[0];
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            Line &l = ways[w];
            if (!live(l))
                return l;
            if (l.lru < v->lru)
                v = &l;
        }
        return *v;
    }

    /** Refill @p l with @p tag (line | dirty bit), reporting a dirty
     *  live victim in @p res. */
    void
    fill(Line &l, Addr tag, CacheResult &res)
    {
        if (live(l) && (l.tag & kDirtyBit)) {
            res.evictedDirty = true;
            res.victimAddr = l.tag & ~kDirtyBit;
            ++_writebacks;
        }
        l.tag = tag;
        l.epoch = _epoch;
        res.allocated = true;
    }

    /** The next LRU stamp; renumbers every set first if the 32-bit
     *  clock would wrap. */
    std::uint32_t
    nextLru()
    {
        if (_lruClock == UINT32_MAX) [[unlikely]]
            renumberLru();
        return ++_lruClock;
    }

    /** Restamp each set's live lines 1..k in LRU order and restart
     *  the clock at assoc, so every later stamp is newer. */
    void renumberLru();

    /** The 32-bit epoch wrapped: kill every line, restart at 1. */
    void restartEpochs();

    std::unique_ptr<Line[], FreeLines> _lines; ///< numSets x assoc
    Addr _lineMask;
    unsigned _lineShift;
    std::uint32_t _assoc;
    Addr _setMask; ///< numSets - 1
    bool _writeBack;
    bool _writeAllocate;
    std::uint32_t _epoch = 1;
    std::uint32_t _lruClock = 0;
    CacheConfig _config;

    stats::Group _stats;
    stats::Scalar _hits;
    stats::Scalar _misses;
    stats::Scalar _writebacks;
    stats::Scalar _invalidations;
    stats::Formula _hitRate;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_CACHE_HH
