/**
 * @file
 * Timing primitives for the pipelined-cost memory model: a calendar
 * Resource (a port, a DRAM bank, a link) and a bounded
 * OutstandingWindow that models limited memory-level parallelism
 * (hit-under-miss / miss-under-miss capacity of the processor).
 *
 * A Resource is by default a simple busy-until timeline (requests
 * served in call order).  Resources shared by *concurrent flows* —
 * DRAM channels serving the local processor and the network engine,
 * torus links, NIC ports, the 8400 bus — enable backfill: the
 * calendar remembers recent idle gaps so a flow whose requests carry
 * earlier timestamps can claim time the other flow left unused,
 * instead of being falsely serialized behind it.
 */

#ifndef GASNUB_MEM_RESOURCE_HH
#define GASNUB_MEM_RESOURCE_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/**
 * A unit that can serve one request at a time, with optional
 * gap-backfill for concurrent flows.
 *
 * The backfill calendar keeps the live idle gaps in time order (gaps
 * are disjoint, so their ends increase), in blocks of about
 * kBlockGaps gaps.  Each block carries an upper bound on its longest
 * gap, so a first-fit search binary-searches the block tails, then
 * skips every block too short to hold the request; a claim inserts or
 * erases inside one block; dropping the oldest gap bumps the first
 * block's head.
 */
class Resource
{
  public:
    /**
     * Enable backfill: keep up to @p max_gaps recent idle intervals
     * and allow later acquire() calls with earlier timestamps to use
     * them. Deterministic; single-flow callers are unaffected.
     *
     * The cap is enforced only when a gap is appended: each append
     * that leaves more than @p max_gaps live gaps drops exactly one,
     * the oldest.  Claims that split a gap may leave the count above
     * the cap until later appends trim it.
     */
    void
    enableBackfill(std::size_t max_gaps = 16384)
    {
        _maxGaps = max_gaps;
    }

    /**
     * Reserve the resource.
     * @param earliest Earliest tick the request may start.
     * @param occupancy How long the resource stays busy.
     * @return the tick at which service actually starts: the start of
     *         the first (oldest) gap that fits, or else the calendar
     *         tail.
     */
    Tick
    acquire(Tick earliest, Tick occupancy)
    {
        // The newest gap ends last, so a request that cannot end by
        // then fits no gap: single-flow streams, which never start
        // before the busy tail, skip the search on one comparison.
        if (earliest + occupancy <= _tailEnd && _live != 0) {
            Tick start;
            if (claimFirstFit(earliest, occupancy, start))
                return start;
        }

        const Tick start = earliest > _busyUntil ? earliest
                                                 : _busyUntil;
        if (_maxGaps != 0 && start > _busyUntil && _busyUntil > 0)
            append(Gap{_busyUntil, start});
        _busyUntil = start + occupancy;
        return start;
    }

    /** Next tick at which the resource is free (calendar tail). */
    Tick freeAt() const { return _busyUntil; }

    /** Forget all reservations (between experiments). */
    void reset();

  private:
    /** Gaps appended to one block before the next block starts. */
    static constexpr std::size_t kBlockGaps = 64;

    struct Gap
    {
        Tick start;
        Tick end;
    };

    struct Block
    {
        /** Live gaps are gaps[head, size), in time order. */
        std::vector<Gap> gaps;
        std::size_t head = 0;
        /** End of the block's newest gap (a copy of gaps.back().end). */
        Tick tailEnd = 0;
        /** At least the length of the block's longest live gap. */
        Tick maxLen = 0;

        std::size_t live() const { return gaps.size() - head; }
    };

    /**
     * Single-flow streams append one gap per request and claim none,
     * so this path stays allocation-free: a full block's successor
     * reuses a retired block's storage.
     */
    void
    append(Gap g)
    {
        if (_live == 0 || _blocks.back().gaps.size() >= kBlockGaps)
            pushBlock();
        Block &b = _blocks.back();
        b.gaps.push_back(g);
        b.tailEnd = g.end;
        if (g.end - g.start > b.maxLen)
            b.maxLen = g.end - g.start;
        _tailEnd = g.end;
        if (++_live > _maxGaps) {
            Block &oldest = _blocks[_first];
            ++oldest.head;
            --_live;
            if (oldest.head == oldest.gaps.size() ||
                oldest.head == 2 * kBlockGaps)
                trimFirst();
        }
    }

    /**
     * Claim [start, start + occupancy) from the first gap that can
     * hold it.  @return false (and change nothing) if none can.
     */
    bool claimFirstFit(Tick earliest, Tick occupancy, Tick &start);
    /** Claim the request out of gap @p i of block @p b. */
    void claim(std::size_t b, std::size_t i, Tick start, Tick occupancy);
    /** Split block @p b, grown past two blocks' worth, in halves. */
    void splitBlock(std::size_t b);
    /** Remove block @p b, whose last gap was just erased. */
    void eraseBlock(std::size_t b);
    /**
     * Retire the first block once its head passed its last gap, or
     * drop its dead prefix once claims kept it alive that long.
     */
    void trimFirst();
    /** Append an empty block, recycling retired storage. */
    void pushBlock();
    /** An empty block, recycling retired storage. */
    Block takeBlock();
    /** Keep @p gaps' storage for a later block. */
    void recycle(std::vector<Gap> &gaps);

    Tick _busyUntil = 0;
    /** End of the newest live gap (0 when there is none). */
    Tick _tailEnd = 0;
    std::size_t _maxGaps = 0;
    std::size_t _live = 0;
    /** Live blocks are _blocks[_first, size), none of them empty. */
    std::vector<Block> _blocks;
    std::size_t _first = 0;
    std::vector<std::vector<Gap>> _spare;
};

/**
 * Bounded window of outstanding operations.
 *
 * Before issuing a new operation, call admit(): if the window is full,
 * the issue time is pushed back to the completion of the oldest
 * outstanding operation. This yields the classic steady state
 * throughput = max(occupancy, latency / depth) without simulating the
 * pipeline cycle by cycle.
 */
class OutstandingWindow
{
  public:
    /** @param depth Maximum operations in flight (>= 1). */
    explicit OutstandingWindow(std::size_t depth)
        : _depth(depth), _buf(depth + 1)
    {
        GASNUB_ASSERT(depth >= 1, "window depth must be >= 1");
    }

    /**
     * Admit a new operation that wants to issue at @p want.
     * @return the earliest tick the operation may actually issue.
     */
    Tick
    admit(Tick want)
    {
        if (_size < _depth)
            return want;
        const Tick oldest = _buf[_head];
        popFront();
        return want > oldest ? want : oldest;
    }

    /** Record the completion time of the operation just issued. */
    void
    complete(Tick when)
    {
        // Completions are monotone for in-order pipelines; keep the
        // ring sorted even if a caller violates that slightly.
        if (_size != 0) {
            const Tick back = _buf[wrap(_head + _size - 1)];
            if (when < back)
                when = back;
        }
        // Capacity is depth + 1, so one push can never overwrite the
        // live region before the trim below restores size <= depth.
        _buf[wrap(_head + _size)] = when;
        ++_size;
        while (_size > _depth)
            popFront();
    }

    /** Maximum in-flight operations. */
    std::size_t depth() const { return _depth; }

    /** Forget in-flight state (between experiments). */
    void
    reset()
    {
        _head = 0;
        _size = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= _buf.size() ? i - _buf.size() : i;
    }

    void
    popFront()
    {
        _head = wrap(_head + 1);
        --_size;
    }

    std::size_t _depth;
    // In-flight completion times, oldest first, as a fixed ring of
    // depth + 1 slots — admit/complete run once per windowed access.
    std::vector<Tick> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_RESOURCE_HH
