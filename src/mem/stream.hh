/**
 * @file
 * Stream detection / read-ahead logic.
 *
 * The Cray T3D has "external read-ahead logic that can be turned on/off
 * at program load time" (paper Section 3.2); the T3E replaces the L3
 * cache with stream buffers (Section 3.3); and the DEC 8400 memory has
 * "modest stream support for large contiguous transfers" (Section 3.1).
 *
 * This unit watches the line-fill address stream.  After `threshold`
 * sequential fills it declares a stream; fills covered by an active
 * stream are issued decoupled from the processor (latency hidden), so
 * their rate is bounded by DRAM/bus occupancy, not the round trip.
 */

#ifndef GASNUB_MEM_STREAM_HH
#define GASNUB_MEM_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/** Static configuration of the stream/read-ahead unit. */
struct StreamConfig
{
    std::string name = "streams";
    bool enabled = true;
    std::uint32_t streams = 1;   ///< concurrent streams tracked
    std::uint32_t threshold = 2; ///< sequential fills before active
    /**
     * Entries in the allocation filter: a stream buffer is only
     * allocated after a fill sequentially follows a filter entry, so
     * isolated misses (write allocations, pointer chases) cannot
     * steal live stream slots.  At most 64.
     */
    std::uint32_t filterEntries = 16;
};

/** What the detector says about one line fill. */
struct StreamHit
{
    bool covered = false; ///< fill is prefetched by an active stream
    std::uint32_t slot = 0;
};

/**
 * Sequential-stream detector with a small fully-associative table.
 */
class ReadAhead
{
  public:
    /**
     * @param config Detector parameters.
     * @param parent Stats group to register under (may be null).
     */
    explicit ReadAhead(const StreamConfig &config,
                       stats::Group *parent = nullptr);

    /**
     * Observe a demand line fill.
     *
     * @param line_addr Aligned address of the line being filled.
     * @param line_bytes Line size (stride of a sequential stream).
     * @return whether the fill was covered and by which slot.
     */
    StreamHit note(Addr line_addr, std::uint32_t line_bytes);

    /**
     * Timestamp bookkeeping for the decoupled pipeline: the start time
     * of the previous fill in @p slot, used by the hierarchy as the
     * earliest issue time of the next prefetched fill.
     */
    Tick
    lastStart(std::uint32_t slot) const
    {
        GASNUB_ASSERT(slot < _slots.size(), "bad stream slot");
        return _slots[slot].lastStart;
    }

    void
    setLastStart(std::uint32_t slot, Tick t)
    {
        GASNUB_ASSERT(slot < _slots.size(), "bad stream slot");
        _slots[slot].lastStart = t;
    }

    bool enabled() const { return _config.enabled; }

    /** Enable/disable at "program load time" as on the T3D. */
    void setEnabled(bool on) { _config.enabled = on; }

    /** Forget all streams (between experiments / at sync points). */
    void reset();

    stats::Group &statsGroup() { return _stats; }

    std::uint64_t coveredFills() const
    {
        return static_cast<std::uint64_t>(_covered.value());
    }

  private:
    struct Slot
    {
        Addr nextLine = 0;
        std::uint32_t run = 0;
        std::uint64_t lru = 0;
        Tick lastStart = 0;
        bool valid = false;
    };

    /** Filter link value meaning "no entry". */
    static constexpr std::uint8_t kNoEntry = 0xff;

    /** Unlink live filter entry @p i from the insertion chain. */
    void unchain(std::uint8_t i);
    /** Chain filter entry @p i as the most recently inserted. */
    void chain(std::uint8_t i);

    StreamConfig _config;
    std::vector<Slot> _slots;
    std::uint64_t _lruClock = 0; ///< slot use stamps

    /**
     * The allocation filter, struct-of-arrays: entry i is a potential
     * stream expecting line _filterNext[i], live when bit i of
     * _filterValid is set.  Every uncovered fill scans it, so the
     * match is a branch-free compare over the line array.  Live
     * entries are chained oldest to newest by insertion
     * (_filterOlder/_filterNewer), so the least recently inserted one
     * is the chain's head instead of a search.
     */
    std::vector<Addr> _filterNext;
    std::vector<std::uint8_t> _filterOlder;
    std::vector<std::uint8_t> _filterNewer;
    std::uint8_t _filterOldest = kNoEntry;
    std::uint8_t _filterNewest = kNoEntry;
    std::uint64_t _filterValid = 0;
    std::uint64_t _filterAll = 0; ///< one bit per entry

    stats::Group _stats;
    stats::Scalar _fills;
    stats::Scalar _covered;
    stats::Formula _coverage;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_STREAM_HH
