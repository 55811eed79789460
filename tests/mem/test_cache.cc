/**
 * @file
 * Unit and property tests for the functional cache model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"
#include "sim/units.hh"

namespace gasnub::mem {

/** Test-only seam: jump the 32-bit stamp counters to a wrap. */
struct CacheTestPeer
{
    static std::uint32_t lruClock(const Cache &c) { return c._lruClock; }
    static void setLruClock(Cache &c, std::uint32_t v) { c._lruClock = v; }
    static void setEpoch(Cache &c, std::uint32_t v) { c._epoch = v; }
};

} // namespace gasnub::mem

namespace {

using namespace gasnub;
using namespace gasnub::mem;

CacheConfig
smallDirectWT()
{
    CacheConfig c;
    c.name = "l1";
    c.sizeBytes = 256; // 8 lines of 32 B
    c.lineBytes = 32;
    c.assoc = 1;
    c.writePolicy = WritePolicy::WriteThrough;
    c.allocPolicy = AllocPolicy::ReadAllocate;
    return c;
}

CacheConfig
smallAssocWB()
{
    CacheConfig c;
    c.name = "l2";
    c.sizeBytes = 512; // 4 sets x 2 ways x 64 B
    c.lineBytes = 64;
    c.assoc = 2;
    c.writePolicy = WritePolicy::WriteBack;
    c.allocPolicy = AllocPolicy::ReadWriteAllocate;
    return c;
}

TEST(Cache, ColdReadMissesThenHits)
{
    Cache c(smallDirectWT());
    auto r1 = c.access(0x100, AccessType::Read);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(r1.allocated);
    auto r2 = c.access(0x108, AccessType::Read); // same 32 B line
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, WriteThroughDoesNotAllocateOnWriteMiss)
{
    Cache c(smallDirectWT());
    auto r = c.access(0x200, AccessType::Write);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.allocated);
    EXPECT_FALSE(c.contains(0x200));
}

TEST(Cache, WriteBackAllocatesAndDirties)
{
    Cache c(smallAssocWB());
    auto r = c.access(0x1000, AccessType::Write);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.allocated);
    EXPECT_TRUE(c.contains(0x1000));

    // Evicting the dirty line must report a writeback. Fill the set:
    // set index = (addr/64) % 4; 0x1000/64 = 64 -> set 0.
    c.access(0x1000 + 4 * 64, AccessType::Read);  // same set, way 2
    auto evict = c.access(0x1000 + 8 * 64, AccessType::Read);
    EXPECT_TRUE(evict.allocated);
    EXPECT_TRUE(evict.evictedDirty);
    EXPECT_EQ(evict.victimAddr, 0x1000u);
}

TEST(Cache, LruReplacementInSet)
{
    Cache c(smallAssocWB());
    const Addr a = 0x0, b = 4 * 64, d = 8 * 64; // all set 0
    c.access(a, AccessType::Read);
    c.access(b, AccessType::Read);
    c.access(a, AccessType::Read);   // a is now MRU
    c.access(d, AccessType::Read);   // evicts b (LRU)
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirectMappedConflicts)
{
    Cache c(smallDirectWT());
    const Addr a = 0x0, b = 256; // same index (8 lines x 32 B)
    c.access(a, AccessType::Read);
    EXPECT_TRUE(c.contains(a));
    c.access(b, AccessType::Read);
    EXPECT_FALSE(c.contains(a));
    EXPECT_TRUE(c.contains(b));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallDirectWT());
    c.access(0x40, AccessType::Read);
    EXPECT_TRUE(c.contains(0x40));
    c.invalidate(0x48); // same line
    EXPECT_FALSE(c.contains(0x40));
    c.invalidate(0x48); // idempotent
}

TEST(Cache, InvalidateAllEmptiesCache)
{
    Cache c(smallDirectWT());
    for (Addr a = 0; a < 256; a += 32)
        c.access(a, AccessType::Read);
    c.invalidateAll();
    for (Addr a = 0; a < 256; a += 32)
        EXPECT_FALSE(c.contains(a));
}

TEST(Cache, CleanClearsDirtyBit)
{
    Cache c(smallAssocWB());
    c.access(0x1000, AccessType::Write);
    EXPECT_TRUE(c.clean(0x1000));
    EXPECT_FALSE(c.clean(0x1000)); // already clean
    // Eviction of a cleaned line must not report a writeback.
    c.access(0x1000 + 4 * 64, AccessType::Read);
    auto evict = c.access(0x1000 + 8 * 64, AccessType::Read);
    EXPECT_FALSE(evict.evictedDirty);
}

TEST(Cache, InstallMarksLineDirtyWithoutReadingBelow)
{
    Cache c(smallAssocWB());
    auto r = c.install(0x2000);
    EXPECT_TRUE(r.allocated);
    EXPECT_TRUE(c.contains(0x2000));
    // A later eviction writes it back.
    c.access(0x2000 + 4 * 64, AccessType::Read);
    auto evict = c.access(0x2000 + 8 * 64, AccessType::Read);
    EXPECT_TRUE(evict.evictedDirty);
}

TEST(Cache, InstallOnPresentLineJustDirties)
{
    Cache c(smallAssocWB());
    c.access(0x3000, AccessType::Read);
    auto r = c.install(0x3000);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.allocated);
}

/** Property: capacity is respected — never more lines than capacity. */
class CacheCapacity
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheCapacity, WorkingSetWithinCapacityAlwaysHitsAfterPriming)
{
    const auto [assoc, line] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = 4_KiB;
    cfg.lineBytes = static_cast<std::uint32_t>(line);
    cfg.assoc = static_cast<std::uint32_t>(assoc);
    cfg.writePolicy = WritePolicy::WriteBack;
    cfg.allocPolicy = AllocPolicy::ReadWriteAllocate;
    Cache c(cfg);

    // Prime exactly the capacity, then touch it again: all hits.
    for (Addr a = 0; a < cfg.sizeBytes; a += line)
        c.access(a, AccessType::Read);
    const auto misses_after_prime = c.misses();
    for (Addr a = 0; a < cfg.sizeBytes; a += line)
        EXPECT_TRUE(c.access(a, AccessType::Read).hit);
    EXPECT_EQ(c.misses(), misses_after_prime);
}

TEST_P(CacheCapacity, RandomAccessesNeverCrash)
{
    const auto [assoc, line] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = 4_KiB;
    cfg.lineBytes = static_cast<std::uint32_t>(line);
    cfg.assoc = static_cast<std::uint32_t>(assoc);
    cfg.writePolicy = WritePolicy::WriteBack;
    cfg.allocPolicy = AllocPolicy::ReadWriteAllocate;
    Cache c(cfg);
    sim::Rng rng(42);
    std::uint64_t hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(64_KiB) & ~7ull;
        const auto t = rng.below(2) ? AccessType::Read
                                    : AccessType::Write;
        if (c.access(a, t).hit)
            ++hits;
        // The reported hit must agree with contains() afterwards.
        EXPECT_TRUE(c.contains(a));
    }
    EXPECT_EQ(c.hits(), hits);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheCapacity,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(32, 64, 128)));

/**
 * The tag model with 64-bit LRU stamps that never wrap: separate valid
 * and dirty flags, cleared on invalidation, no epochs.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &c)
        : _c(c), _sets(c.sizeBytes / (c.lineBytes * c.assoc)),
          _lines(_sets * c.assoc)
    {
    }

    CacheResult
    access(Addr addr, AccessType type)
    {
        const bool wb = _c.writePolicy == WritePolicy::WriteBack;
        const bool dirty = type == AccessType::Write && wb;
        CacheResult res;
        Line *ways = set(addr);
        const Addr line = addr & ~Addr(_c.lineBytes - 1);
        for (std::uint32_t w = 0; w < _c.assoc; ++w) {
            if (ways[w].valid && ways[w].tag == line) {
                res.hit = true;
                res.wasDirty = ways[w].dirty;
                ways[w].dirty |= dirty;
                ways[w].lru = ++_clock;
                return res;
            }
        }
        if (type == AccessType::Write &&
            _c.allocPolicy == AllocPolicy::ReadAllocate)
            return res;
        fill(ways, line, dirty, res);
        return res;
    }

    CacheResult
    install(Addr line)
    {
        CacheResult res;
        Line *ways = set(line);
        for (std::uint32_t w = 0; w < _c.assoc; ++w) {
            if (ways[w].valid && ways[w].tag == line) {
                ways[w].dirty = true;
                ways[w].lru = ++_clock;
                res.hit = true;
                return res;
            }
        }
        fill(ways, line, true, res);
        return res;
    }

    void
    invalidateAll()
    {
        for (Line &l : _lines)
            l = Line{};
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    Line *
    set(Addr addr)
    {
        return &_lines[(addr / _c.lineBytes) % _sets * _c.assoc];
    }

    void
    fill(Line *ways, Addr line, bool dirty, CacheResult &res)
    {
        Line *v = &ways[0];
        for (std::uint32_t w = 0; w < _c.assoc; ++w) {
            if (!ways[w].valid) {
                v = &ways[w];
                break;
            }
            if (ways[w].lru < v->lru)
                v = &ways[w];
        }
        if (v->valid && v->dirty) {
            res.evictedDirty = true;
            res.victimAddr = v->tag;
        }
        *v = Line{line, true, dirty, ++_clock};
        res.allocated = true;
    }

    CacheConfig _c;
    std::uint64_t _sets;
    std::vector<Line> _lines;
    std::uint64_t _clock = 0;
};

void
expectSame(const CacheResult &want, const CacheResult &got, int i)
{
    EXPECT_EQ(want.hit, got.hit) << "call " << i;
    EXPECT_EQ(want.allocated, got.allocated) << "call " << i;
    EXPECT_EQ(want.evictedDirty, got.evictedDirty) << "call " << i;
    EXPECT_EQ(want.wasDirty, got.wasDirty) << "call " << i;
    EXPECT_EQ(want.victimAddr, got.victimAddr) << "call " << i;
}

/**
 * Victims stay exactly LRU while the 32-bit clock crosses 2^32 again
 * and again: every few hundred calls the clock jumps to just below
 * the wrap (a jump forward keeps every stamp older than the clock),
 * and each result matches the 64-bit model.
 */
TEST(CacheWrap, LruClockWrapPicksReferenceVictims)
{
    for (const std::uint32_t assoc : {2u, 3u, 4u, 8u}) {
        CacheConfig cfg = smallAssocWB();
        cfg.assoc = assoc;
        cfg.sizeBytes = 4 * assoc * cfg.lineBytes; // 4 sets
        Cache c(cfg);
        ReferenceCache ref(cfg);
        sim::Rng rng(assoc);
        int wraps = 0;
        for (int i = 0; i < 20000; ++i) {
            if (i % 300 == 0)
                CacheTestPeer::setLruClock(
                    c, UINT32_MAX - static_cast<std::uint32_t>(
                                        rng.below(2 * assoc)));
            const std::uint32_t before = CacheTestPeer::lruClock(c);
            // 4 sets x (assoc + 2) lines: every set overflows.
            const Addr a = rng.below(4 * (assoc + 2)) * cfg.lineBytes;
            const std::uint64_t op = rng.below(8);
            if (op == 0) {
                expectSame(ref.install(a), c.install(a), i);
            } else {
                const AccessType t =
                    op < 3 ? AccessType::Write : AccessType::Read;
                expectSame(ref.access(a, t), c.access(a, t), i);
            }
            wraps += CacheTestPeer::lruClock(c) < before;
        }
        EXPECT_GT(wraps, 50) << "assoc " << assoc;
    }
}

/**
 * When the 32-bit epoch wraps, no line stamped in an earlier epoch
 * reads as live: not one stamped just before the wrap, nor one
 * stamped 2^32 bulk invalidations ago with the epoch the wrap
 * restarts at.
 */
TEST(CacheWrap, EpochWrapNeverRevivesStaleLines)
{
    for (const CacheConfig &cfg : {smallDirectWT(), smallAssocWB()}) {
        Cache c(cfg);
        ReferenceCache ref(cfg);
        const Addr sets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
        const auto set_of = [&](Addr a) {
            return a / cfg.lineBytes % sets;
        };
        // A dirty line stamped with epoch 1, the one the wrap
        // restarts at ...
        const Addr old_line = 0x40;
        expectSame(ref.install(old_line), c.install(old_line), 0);
        // ... 2^32 - 2 bulk invalidations later ...
        CacheTestPeer::setEpoch(c, UINT32_MAX);
        ref.invalidateAll();
        EXPECT_FALSE(c.contains(old_line));
        // ... and dirty lines stamped in the last epoch before the
        // wrap, in every other set.
        std::vector<Addr> last;
        for (Addr a = 0x1000; a < 0x1000 + 4 * cfg.sizeBytes;
             a += cfg.lineBytes) {
            if (set_of(a) == set_of(old_line))
                continue;
            expectSame(ref.install(a), c.install(a), 1);
            last.push_back(a);
        }
        c.invalidateAll();
        ref.invalidateAll();
        // After the wrap none is live, nor is an untouched line, and
        // none is reported as a dirty victim.
        EXPECT_FALSE(c.contains(old_line));
        EXPECT_FALSE(c.contains(0));
        for (const Addr a : last)
            EXPECT_FALSE(c.contains(a)) << a;
        for (Addr a = 0x8000; a < 0x8000 + 2 * cfg.sizeBytes;
             a += cfg.lineBytes) {
            expectSame(ref.access(a, AccessType::Read),
                       c.access(a, AccessType::Read), 2);
        }
        expectSame(ref.access(old_line, AccessType::Read),
                   c.access(old_line, AccessType::Read), 3);
    }
}

using CacheDeathTest = ::testing::Test;

TEST_F(CacheDeathTest, OneByteLinesLeaveNoRoomForTheDirtyBit)
{
    CacheConfig cfg = smallDirectWT();
    cfg.lineBytes = 1;
    cfg.sizeBytes = 8;
    EXPECT_DEATH(Cache c(cfg), "line size must be >= 2");
}

} // namespace
