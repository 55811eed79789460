/**
 * @file
 * Unit tests for the DEC 8400 shared memory + snooping bus model.
 */

#include <gtest/gtest.h>

#include "bus/dec8400_memory.hh"
#include "machine/configs.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::bus;

struct TwoNodeSmp
{
    explicit TwoNodeSmp(const BusConfig &bus = machine::dec8400BusConfig())
        : cfg0(machine::dec8400Node("n0")),
          cfg1(machine::dec8400Node("n1")),
          n0(cfg0), n1(cfg1),
          shared(bus, sharedDram())
    {
        shared.attach(0, &n0);
        shared.attach(1, &n1);
    }

    static mem::DramConfig
    sharedDram()
    {
        mem::DramConfig d = machine::dec8400Node("s").dram;
        d.name = "shared";
        return d;
    }

    mem::HierarchyConfig cfg0, cfg1;
    mem::MemoryHierarchy n0, n1;
    Dec8400Memory shared;
};

TEST(Dec8400Memory, ProducerWriteConsumerReadIntervenes)
{
    TwoNodeSmp smp;
    // Producer dirties a line.
    smp.n1.write(0x1000);
    smp.n1.drain();
    EXPECT_EQ(smp.shared.interventions(), 0u);
    // Consumer read pulls it cache-to-cache.
    smp.n0.read(0x1000);
    EXPECT_EQ(smp.shared.interventions(), 1u);
    // Owner's copy is now clean: a second consumer read of the same
    // line hits the consumer cache (no new transaction).
    const auto before =
        static_cast<std::uint64_t>(smp.shared.interventions());
    smp.n0.read(0x1008);
    EXPECT_EQ(smp.shared.interventions(), before);
}

TEST(Dec8400Memory, ReadExclusiveInvalidatesSharers)
{
    TwoNodeSmp smp;
    smp.n0.read(0x2000);
    smp.n1.read(0x2000);
    EXPECT_TRUE(smp.n0.level(0).contains(0x2000));
    // Now node 1 writes: node 0's copies must be invalidated.
    smp.n1.write(0x2000);
    EXPECT_FALSE(smp.n0.level(0).contains(0x2000));
    EXPECT_FALSE(smp.n0.level(1).contains(0x2000));
    EXPECT_FALSE(smp.n0.level(2).contains(0x2000));
    EXPECT_GE(smp.shared.invalidations(), 1u);
}

TEST(Dec8400Memory, WritebackReturnsOwnershipToMemory)
{
    TwoNodeSmp smp;
    smp.n1.write(0x3000);
    // Force the dirty line out of every level of node 1: 4 MiB-apart
    // addresses conflict in the direct-mapped L3 and in the 3-way L2
    // set, so the dirty data cascades L2 -> L3 -> shared memory.
    for (Addr k = 1; k <= 5; ++k)
        smp.n1.read(0x3000 + k * 4_MiB);
    // Consumer read must now be served by memory, not intervention.
    const auto iv =
        static_cast<std::uint64_t>(smp.shared.interventions());
    smp.n0.read(0x3000);
    EXPECT_EQ(smp.shared.interventions(), iv);
}

TEST(Dec8400Memory, SharedLinePenaltyAppliesToOtherReaders)
{
    TwoNodeSmp smp;
    // Producer writes, evicts (writeback), then the consumer and the
    // producer itself re-read from memory.
    smp.n1.write(0x4000);
    for (Addr k = 1; k <= 5; ++k)
        smp.n1.read(0x4000 + k * 4_MiB);

    smp.n0.resetTiming();
    smp.n1.resetTiming();
    smp.shared.resetTiming();
    const Tick consumer = smp.n0.read(0x4000);

    smp.n0.resetTiming();
    smp.n1.resetTiming();
    smp.shared.resetTiming();
    const Tick producer = smp.n1.read(0x4000);
    EXPECT_GT(consumer, producer);
}

TEST(Dec8400Memory, InterventionFasterThanMemoryRead)
{
    // Figure 2: working sets that fit the producer's SRAM caches pull
    // faster than ones served by the slower DRAM.
    TwoNodeSmp smp;
    smp.n1.write(0x5000);

    smp.n0.resetTiming();
    smp.shared.resetTiming();
    const Tick dirty_pull = smp.n0.read(0x5000);

    TwoNodeSmp fresh;
    const Tick clean_read = fresh.n0.read(0x5000);
    EXPECT_LT(dirty_pull, clean_read);
}

TEST(Dec8400Memory, ResetAllForgetsDirectory)
{
    TwoNodeSmp smp;
    smp.n1.write(0x6000);
    smp.shared.resetAll();
    smp.n0.resetTiming();
    const auto iv =
        static_cast<std::uint64_t>(smp.shared.interventions());
    // Note: node caches still hold the line functionally, but the
    // directory forgot ownership — a consumer read goes to memory.
    smp.n0.read(0x6000);
    EXPECT_EQ(smp.shared.interventions(), iv);
}

/** Bytes of address one directory page covers at 64-byte lines. */
constexpr Addr kDirPage = 4096 * 64;

/** Whether any cache level of @p h holds @p addr's line. */
bool
cached(mem::MemoryHierarchy &h, Addr addr)
{
    for (std::size_t l = 0; l < h.numLevels(); ++l)
        if (h.level(l).contains(addr))
            return true;
    return false;
}

TEST(Dec8400Memory, OwnershipAcrossDirectoryPageBoundary)
{
    for (const Addr boundary :
         {kDirPage, 5 * kDirPage, (Addr{1} << 33) + kDirPage}) {
        TwoNodeSmp smp;
        const Addr last = boundary - 64; // last entry of one page
        const Addr first = boundary;     // first entry of the next
        // Only the line before the boundary is dirty at node 1.
        smp.n1.write(last);
        smp.n0.read(first);
        EXPECT_EQ(smp.shared.interventions(), 0u) << boundary;
        smp.n0.read(last);
        EXPECT_EQ(smp.shared.interventions(), 1u) << boundary;
        // Node 0 takes the line after the boundary; node 1's read of it
        // is served by node 0, and node 1's clean copy of the line
        // before the boundary is untouched.
        smp.n0.write(first);
        smp.n1.read(first);
        EXPECT_EQ(smp.shared.interventions(), 2u) << boundary;
        EXPECT_TRUE(cached(smp.n1, last)) << boundary;
        // Node 1 rewrites the line before the boundary: only node 0's
        // copy of that line is invalidated.
        const auto inv = smp.shared.invalidations();
        smp.n1.write(last);
        EXPECT_EQ(smp.shared.invalidations(), inv + 1) << boundary;
        EXPECT_FALSE(cached(smp.n0, last)) << boundary;
        EXPECT_TRUE(cached(smp.n0, first)) << boundary;
    }
}

TEST(Dec8400Memory, LinesTwoToThe33ApartNeverAlias)
{
    TwoNodeSmp smp;
    const Addr low = 0x1000;
    const Addr high = low + (Addr{1} << 33);
    smp.n1.write(low);
    // The copy destination's line shares every cache set with the
    // source's, but not its directory entry.
    smp.n0.read(high);
    EXPECT_EQ(smp.shared.interventions(), 0u);
    smp.n0.read(low);
    EXPECT_EQ(smp.shared.interventions(), 1u);
    smp.n0.write(high);
    smp.n1.read(high);
    EXPECT_EQ(smp.shared.interventions(), 2u);
}

TEST(Dec8400Memory, ResetAllForgetsEveryPage)
{
    TwoNodeSmp smp;
    const Addr lines[] = {0x1000, 3 * kDirPage + 0x40,
                          (Addr{1} << 33) + 0x80, Addr{1} << 34};
    for (const Addr a : lines)
        smp.n1.write(a);
    smp.shared.resetAll();
    // Every page's ownership is gone, not only the last page used.
    for (const Addr a : lines)
        smp.n0.read(a);
    EXPECT_EQ(smp.shared.interventions(), 0u);
    // State recorded after the reset is tracked again.
    smp.n1.write(lines[1] + 64);
    smp.n0.read(lines[1] + 64);
    EXPECT_EQ(smp.shared.interventions(), 1u);
}

TEST(Dec8400Memory, CoherenceFollowsBusLineSize)
{
    BusConfig wide = machine::dec8400BusConfig();
    wide.lineBytes = 128;
    TwoNodeSmp smp(wide);
    smp.n1.write(0x1000);
    // Same 128-byte bus line, different 64-byte cache line: still
    // owned by node 1.
    smp.n0.read(0x1040);
    EXPECT_EQ(smp.shared.interventions(), 1u);
    // The next bus line was never written.
    smp.n1.write(0x1000);
    smp.n0.read(0x1080);
    EXPECT_EQ(smp.shared.interventions(), 1u);

    // At 64-byte bus lines the neighbouring cache line is separate.
    TwoNodeSmp narrow;
    narrow.n1.write(0x1000);
    narrow.n0.read(0x1040);
    EXPECT_EQ(narrow.shared.interventions(), 0u);
}

TEST(Dec8400Memory, NodeThirtyOneUsesTheTopSharerBit)
{
    mem::HierarchyConfig cfg = machine::dec8400Node("n31");
    mem::MemoryHierarchy n31(cfg);
    TwoNodeSmp smp;
    smp.shared.attach(31, &n31);
    n31.write(0x8000);
    smp.n0.read(0x8000);
    EXPECT_EQ(smp.shared.interventions(), 1u);
    smp.n0.write(0x8000);
    EXPECT_FALSE(cached(n31, 0x8000));
}

TEST(Dec8400MemoryDeathTest, LineBytesMustBeAPowerOfTwo)
{
    BusConfig bad = machine::dec8400BusConfig();
    bad.lineBytes = 96;
    EXPECT_DEATH(Dec8400Memory(bad, TwoNodeSmp::sharedDram()),
                 "bus line size 96 is not a power of two");
    bad.lineBytes = 0;
    EXPECT_DEATH(Dec8400Memory(bad, TwoNodeSmp::sharedDram()),
                 "is not a power of two");
}

TEST(Dec8400MemoryDeathTest, AttachRejectsNodesPastTheSharerMask)
{
    TwoNodeSmp smp;
    mem::HierarchyConfig cfg = machine::dec8400Node("n32");
    mem::MemoryHierarchy n32(cfg);
    EXPECT_DEATH(smp.shared.attach(32, &n32),
                 "node id 32 outside the 32-node sharer mask");
    EXPECT_DEATH(smp.shared.attach(-1, &n32), "outside the 32-node");
}

TEST(Dec8400Memory, MachineFactoryWiresHooks)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    ASSERT_NE(m.sharedMemory(), nullptr);
    EXPECT_EQ(m.torus(), nullptr);
    m.node(1).write(0x7000);
    m.node(0).read(0x7000);
    EXPECT_GE(m.sharedMemory()->interventions(), 1u);
}

} // namespace
