/**
 * @file
 * Unit tests for the 3D torus interconnect.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "noc/torus.hh"
#include "sim/fault.hh"

namespace {

using namespace gasnub;
using namespace gasnub::noc;

TorusConfig
smallTorus()
{
    TorusConfig t;
    t.dimX = 4;
    t.dimY = 2;
    t.dimZ = 1;
    t.linkMBs = 100; // 10 ns per byte
    t.hopNs = 10;
    t.nicNs = 20;
    t.headerBytes = 8;
    t.procsPerNic = 1;
    t.partnerSwitchNs = 100;
    return t;
}

TEST(Torus, CoordinatesRoundTrip)
{
    Torus t(smallTorus());
    EXPECT_EQ(t.numNodes(), 8);
    auto c = t.coordOf(5); // router 5: x=1, y=1, z=0
    EXPECT_EQ(c.x, 1);
    EXPECT_EQ(c.y, 1);
    EXPECT_EQ(c.z, 0);
}

TEST(Torus, HopCountUsesShortestRingDirection)
{
    Torus t(smallTorus());
    EXPECT_EQ(t.hopCount(0, 0), 0);
    EXPECT_EQ(t.hopCount(0, 1), 1);
    EXPECT_EQ(t.hopCount(0, 3), 1); // wraparound on the 4-ring
    EXPECT_EQ(t.hopCount(0, 2), 2);
    EXPECT_EQ(t.hopCount(0, 4), 1); // one Y hop
    EXPECT_EQ(t.hopCount(0, 6), 3); // 2 in X + 1 in Y
}

TEST(Torus, PacketLatencyGrowsWithDistance)
{
    Torus t(smallTorus());
    const Tick near = t.send(0, 1, 64, 0).arrived;
    t.reset();
    const Tick far = t.send(0, 2, 64, 0).arrived;
    EXPECT_GT(far, near);
}

TEST(Torus, BandwidthBoundedByLink)
{
    Torus t(smallTorus());
    // 100 packets of 64 B payload (72 B wire = 720 ns each).
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = t.send(0, 1, 64, 0).arrived;
    const double mbs = 100.0 * 64 * 1e6 / static_cast<double>(last);
    // Effective rate approaches payload/wire x link = 88.9 MB/s.
    EXPECT_GT(mbs, 80);
    EXPECT_LT(mbs, 90);
}

TEST(Torus, PartnerSwitchCharged)
{
    // On an idle NIC a packet to the same partner injects on request;
    // switching partners costs the per-message overhead (100 ns).
    Torus t(smallTorus());
    t.send(0, 1, 8, 0);
    const Tick same = t.send(0, 1, 8, 1000000).injected;
    t.reset();
    t.send(0, 1, 8, 0);
    const Tick switched = t.send(0, 2, 8, 1000000).injected;
    EXPECT_EQ(same, 1000000u);
    EXPECT_EQ(switched, 1100000u);
}

TEST(Torus, SharedNicSerializesPairedProcessors)
{
    TorusConfig cfg = smallTorus();
    cfg.procsPerNic = 2;
    Torus t(cfg);
    EXPECT_EQ(t.numNodes(), 16);
    // Nodes 0 and 1 share NIC 0.
    const Tick a = t.send(0, 4, 64, 0).injected;
    const Tick b = t.send(1, 6, 64, 0).injected;
    EXPECT_GT(b, a); // second injection waits for the shared NIC
}

TEST(Torus, DisjointRoutesDoNotInterfere)
{
    Torus t(smallTorus());
    const Tick a = t.send(0, 1, 64, 0).injected;
    const Tick b = t.send(2, 3, 64, 0).injected;
    EXPECT_EQ(a, b); // different NICs, different links
}

TEST(Torus, ResetRestoresIdleState)
{
    Torus t(smallTorus());
    t.send(0, 1, 64, 0);
    const std::uint64_t packets = t.packets();
    t.reset();
    const Tick after = t.send(0, 1, 64, 0).injected;
    EXPECT_EQ(after, 0u);
    EXPECT_EQ(t.packets(), packets + 1);
}

TEST(Torus, MachineFactoriesMatchPaperTopology)
{
    // The T3D pairs two PEs per network node; the T3E does not.
    auto t3d = machine::t3dTorusConfig(4);
    EXPECT_EQ(t3d.procsPerNic, 2);
    EXPECT_EQ(t3d.dimX * t3d.dimY * t3d.dimZ, 2);
    auto t3e = machine::t3eTorusConfig(4);
    EXPECT_EQ(t3e.procsPerNic, 1);
    EXPECT_EQ(t3e.dimX * t3e.dimY * t3e.dimZ, 4);
    // 512-processor machines factor into an 8x8x8-ish torus.
    auto big = machine::t3eTorusConfig(512);
    EXPECT_EQ(big.dimX * big.dimY * big.dimZ, 512);
    EXPECT_LE(big.dimX, 16);
}

class TorusRouting : public ::testing::TestWithParam<int>
{
};

TEST_P(TorusRouting, AllPairsDeliverWithBoundedHops)
{
    TorusConfig cfg = smallTorus();
    cfg.dimX = GetParam();
    cfg.dimY = 2;
    Torus t(cfg);
    const int diameter = cfg.dimX / 2 + cfg.dimY / 2 + cfg.dimZ / 2;
    for (int s = 0; s < t.numNodes(); ++s) {
        for (int d = 0; d < t.numNodes(); ++d) {
            t.reset();
            auto r = t.send(s, d, 8, 0);
            EXPECT_LE(r.hops, diameter);
            EXPECT_EQ(r.hops, t.hopCount(s, d));
            EXPECT_GE(r.arrived, r.injected);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, TorusRouting,
                         ::testing::Values(2, 3, 4, 8));

double
faultStat(Torus &t, const std::string &leaf)
{
    const stats::StatBase *s =
        t.statsGroup().find("torus.faults." + leaf);
    return s ? static_cast<const stats::Scalar *>(s)->value() : -1.0;
}

TEST(TorusFaults, DetourRoutesAroundASeveredLink)
{
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("link-down:router=0,dir=+x");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    // 0 -> 1 prefers one +x hop; with that link cut the packet takes
    // the other ring direction, 3 hops the long way round.
    const PacketResult r = t.send(0, 1, 64, 0);
    EXPECT_EQ(r.hops, 3);
    EXPECT_EQ(faultStat(t, "detours"), 1.0);
    // hopCount() advertises topology distance, not the detour.
    EXPECT_EQ(t.hopCount(0, 1), 1);
    // Traffic not crossing the cut link is untouched.
    Torus healthy(smallTorus());
    EXPECT_EQ(t.send(1, 2, 64, 0).arrived,
              healthy.send(1, 2, 64, 0).arrived);
}

TEST(TorusFaults, SeveredRingThrowsButOtherDimensionsWork)
{
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "link-down:router=0,dir=+x;link-down:router=0,dir=-x");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    EXPECT_THROW(t.send(0, 1, 64, 0), sim::FaultError);
    // The y ring out of router 0 is intact: 0 -> 4 still delivers.
    EXPECT_NO_THROW(t.send(0, 4, 64, 0));
}

TEST(TorusFaults, SlowLinkStretchesWireOccupancy)
{
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("link-slow:router=0,dir=+x,factor=4");
    sim::FaultDomain dom(plan);
    Torus slow(smallTorus());
    slow.setFaults(&dom);
    Torus healthy(smallTorus());
    // The slow factor stretches how long each packet occupies the
    // wire, so the first packet lands on time but a back-to-back
    // second packet queues behind the longer occupancy.
    const PacketResult a1 = slow.send(0, 1, 4096, 0);
    const PacketResult a2 = slow.send(0, 1, 4096, 0);
    const PacketResult b1 = healthy.send(0, 1, 4096, 0);
    const PacketResult b2 = healthy.send(0, 1, 4096, 0);
    EXPECT_GT(a2.arrived - a1.arrived, b2.arrived - b1.arrived);
    EXPECT_GT(faultStat(slow, "slowTicks"), 0.0);
    EXPECT_EQ(a1.hops, b1.hops); // slow, not severed: no detour
}

TEST(TorusFaults, NicBackpressureDelaysInjection)
{
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "nic-backpressure:router=0,prob=1,extra=500");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    Torus healthy(smallTorus());
    const PacketResult a = t.send(0, 1, 64, 0);
    const PacketResult b = healthy.send(0, 1, 64, 0);
    const Tick extra = 500000; // 500 ns in picosecond ticks
    EXPECT_EQ(a.injected, b.injected + extra);
    EXPECT_EQ(faultStat(t, "nicStalls"), 1.0);
    EXPECT_EQ(faultStat(t, "nicStallTicks"),
              static_cast<double>(extra));
}

/**
 * A fetch alternates request (a, b) and response (b, a) packets, and
 * interleaved transfers add a third pair (a, c); all three cross a
 * severed link or not.  Every packet's times and hop count, the
 * detour count and the per-link occupancy are pinned to values
 * captured while the torus cached a single route, so any route cache
 * must charge each packet's detours and invalidate on setFaults()
 * exactly as that one did.
 */
TEST(TorusFaults, AlternatingPairsUnderASeveredLink)
{
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("link-down:router=0,dir=+x");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);

    struct Send
    {
        NodeId src, dst;
    };
    const Send round[] = {{0, 1}, {1, 0}, {0, 5}, {1, 0}, {0, 1}};
    std::vector<PacketResult> got;
    auto sendRound = [&](Tick base) {
        for (std::size_t i = 0; i < std::size(round); ++i)
            got.push_back(t.send(round[i].src, round[i].dst, 64,
                                 base + i * 100000));
    };
    sendRound(0);
    sendRound(200000);
    // The healthy topology routes 0 -> 1 one hop; the route cache
    // must not keep the detour across setFaults().
    t.setFaults(nullptr);
    sendRound(400000);
    t.setFaults(&dom);
    sendRound(600000);

    struct Want
    {
        Tick injected, arrived;
        int hops;
    };
    const Want want[] = {
        {0, 790000, 3},        {100000, 870000, 1},
        {740000, 1540000, 4},  {840000, 1610000, 1},
        {1480000, 2270000, 3}, {2220000, 3010000, 3},
        {1580000, 2350000, 1}, {2960000, 3760000, 4},
        {2320000, 3090000, 1}, {3700000, 4490000, 3},
        {4440000, 5210000, 1}, {3060000, 3830000, 1},
        {5180000, 5960000, 2}, {3800000, 4570000, 1},
        {5920000, 6690000, 1}, {6660000, 7450000, 3},
        {4540000, 5310000, 1}, {7400000, 8200000, 4},
        {5280000, 6050000, 1}, {8140000, 8930000, 3},
    };
    ASSERT_EQ(got.size(), std::size(want));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].injected, want[i].injected) << "packet " << i;
        EXPECT_EQ(got[i].arrived, want[i].arrived) << "packet " << i;
        EXPECT_EQ(got[i].hops, want[i].hops) << "packet " << i;
    }
    // Three packets per faulty round take the long way round.
    EXPECT_EQ(faultStat(t, "detours"), 9.0);

    const auto *busy = static_cast<const stats::Vector *>(
        t.statsGroup().find("torus.linkBusyTicks"));
    ASSERT_NE(busy, nullptr);
    const std::map<std::size_t, double> want_busy = {
        {0, 2160000}, {1, 6480000},  {7, 5760000},
        {8, 2880000}, {13, 6480000}, {19, 6480000},
    };
    for (std::size_t l = 0; l < busy->size(); ++l) {
        const auto it = want_busy.find(l);
        EXPECT_EQ(busy->value(l), it == want_busy.end() ? 0.0 : it->second)
            << "link " << l;
    }
}

TEST(TorusFaults, UnrelatedPlanPerturbsNothing)
{
    // A plan with no link or NIC specs must leave the torus on its
    // fault-free fast path.
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("dram-stall:prob=1,extra=100");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    Torus healthy(smallTorus());
    for (int dst = 1; dst < t.numNodes(); ++dst)
        EXPECT_EQ(t.send(0, dst, 256, 0).arrived,
                  healthy.send(0, dst, 256, 0).arrived);
    EXPECT_EQ(faultStat(t, "detours"), 0.0);
    EXPECT_EQ(faultStat(t, "slowTicks"), 0.0);
}

} // namespace
