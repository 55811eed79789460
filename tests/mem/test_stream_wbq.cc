/**
 * @file
 * Unit tests for the read-ahead / stream detector and the coalescing
 * write-back queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/stream.hh"
#include "mem/wbq.hh"

namespace {

using namespace gasnub;
using namespace gasnub::mem;

TEST(ReadAhead, DetectsSequentialStreamAfterThreshold)
{
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    EXPECT_FALSE(ra.note(0, 64).covered);    // first touch
    EXPECT_TRUE(ra.note(64, 64).covered);    // run of 2 >= threshold
    EXPECT_TRUE(ra.note(128, 64).covered);
    EXPECT_EQ(ra.coveredFills(), 2u);
}

TEST(ReadAhead, NonSequentialFillsNeverCovered)
{
    StreamConfig cfg;
    cfg.streams = 2;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    for (Addr a = 0; a < 64 * 100; a += 256)
        EXPECT_FALSE(ra.note(a, 64).covered);
}

TEST(ReadAhead, TracksMultipleStreams)
{
    StreamConfig cfg;
    cfg.streams = 2;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    ra.note(1 << 20, 64);
    EXPECT_TRUE(ra.note(64, 64).covered);
    EXPECT_TRUE(ra.note((1 << 20) + 64, 64).covered);
}

TEST(ReadAhead, IsolatedMissesDoNotStealLiveStreams)
{
    // The allocation filter: a single non-sequential fill (a write
    // allocation, a pointer chase) must not evict an active stream.
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    ra.note(64, 64); // stream established
    ra.note(1 << 20, 64); // isolated miss -> filter only
    EXPECT_TRUE(ra.note(128, 64).covered); // stream survives
}

TEST(ReadAhead, CompetingStreamsEvictViaTheFilter)
{
    // Two alternating sequential streams with one slot: the second
    // stream promotes through the filter and steals the slot.
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    ra.note(64, 64); // stream A active
    ra.note(1 << 20, 64);
    ra.note((1 << 20) + 64, 64); // stream B promotes, evicts A
    EXPECT_FALSE(ra.note(128, 64).covered); // A gone
}

TEST(ReadAhead, DisabledNeverCovers)
{
    StreamConfig cfg;
    cfg.enabled = false;
    ReadAhead ra(cfg);
    for (Addr a = 0; a < 64 * 10; a += 64)
        EXPECT_FALSE(ra.note(a, 64).covered);
    ra.setEnabled(true);
    ra.note(640, 64);
    EXPECT_TRUE(ra.note(704, 64).covered);
}

TEST(ReadAhead, LastStartBookkeeping)
{
    StreamConfig cfg;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    auto hit = ra.note(64, 64);
    ASSERT_TRUE(hit.covered);
    ra.setLastStart(hit.slot, 12345);
    EXPECT_EQ(ra.lastStart(hit.slot), 12345u);
    ra.reset();
    EXPECT_FALSE(ra.note(128, 64).covered); // streams forgotten
}

// --------------------------------------------------------------------

struct DrainRecord
{
    Addr chunk;
    std::uint32_t bytes;
    Tick start;
};

TEST(WriteBackQueue, CoalescesContiguousStores)
{
    WbqConfig cfg;
    cfg.depth = 4;
    cfg.chunkBytes = 32;
    std::vector<DrainRecord> drains;
    WriteBackQueue q(cfg,
                     [&](Addr c, std::uint32_t b, Tick t) {
                         drains.push_back({c, b, t});
                         return t + 100000; // 100 ns drain
                     });
    // Four contiguous words coalesce into one 32-byte entity.
    for (Addr a = 0; a < 32; a += 8)
        q.store(a, 0);
    q.store(64, 0); // new chunk closes the old entry
    ASSERT_EQ(drains.size(), 1u);
    EXPECT_EQ(drains[0].chunk, 0u);
    EXPECT_EQ(drains[0].bytes, 32u);
    EXPECT_EQ(q.coalescedStores(), 3u);
}

TEST(WriteBackQueue, StridedStoresDoNotCoalesce)
{
    WbqConfig cfg;
    cfg.depth = 16;
    cfg.chunkBytes = 32;
    std::vector<DrainRecord> drains;
    WriteBackQueue q(cfg,
                     [&](Addr c, std::uint32_t b, Tick t) {
                         drains.push_back({c, b, t});
                         return t + 1;
                     });
    for (Addr a = 0; a < 8 * 64; a += 64)
        q.store(a, 0);
    q.drainAll(0);
    EXPECT_EQ(drains.size(), 8u);
    for (const auto &d : drains)
        EXPECT_EQ(d.bytes, 8u);
    EXPECT_EQ(q.coalescedStores(), 0u);
}

TEST(WriteBackQueue, NonContiguousSameChunkDoesNotCoalesce)
{
    WbqConfig cfg;
    cfg.chunkBytes = 32;
    std::vector<DrainRecord> drains;
    WriteBackQueue q(cfg,
                     [&](Addr c, std::uint32_t b, Tick t) {
                         drains.push_back({c, b, t});
                         return t + 1;
                     });
    q.store(0, 0);
    q.store(16, 0); // same chunk but not contiguous with addr 8
    q.drainAll(0);
    EXPECT_EQ(drains.size(), 2u);
}

TEST(WriteBackQueue, FullQueueStallsStores)
{
    WbqConfig cfg;
    cfg.depth = 2;
    cfg.chunkBytes = 8; // every store its own entry
    WriteBackQueue q(cfg,
                     [&](Addr, std::uint32_t, Tick t) {
                         return t + 1000000; // 1 us drain
                     });
    EXPECT_EQ(q.store(0, 0), 0u);   // opens entry A
    EXPECT_EQ(q.store(64, 0), 0u);  // closes A, opens B
    // Closing B fills the queue (depth 2): the store stalls until the
    // oldest drain completes.
    const Tick proceed = q.store(128, 0);
    EXPECT_GE(proceed, 1000000u);
    EXPECT_GE(q.fullStalls(), 1u);
}

TEST(WriteBackQueue, DrainAllReturnsCompletionOfLastEntry)
{
    WbqConfig cfg;
    cfg.chunkBytes = 32;
    WriteBackQueue q(cfg, [&](Addr, std::uint32_t, Tick t) {
        return t + 500000;
    });
    q.store(0, 100);
    // The open entry drains no earlier than the flush point (200).
    const Tick done = q.drainAll(200);
    EXPECT_EQ(done, 500200u);
    // Idempotent when empty.
    EXPECT_EQ(q.drainAll(done), done);
}

} // namespace
