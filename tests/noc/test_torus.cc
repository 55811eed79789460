/**
 * @file
 * Unit tests for the 3D torus interconnect.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "machine/machine.hh"
#include "noc/torus.hh"

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

/**
 * A fetch alternates request (a, b) and response (b, a) packets, and
 * interleaved transfers add a third pair (a, c), so the two-entry
 * route cache sees hits on both entries and a miss that evicts the
 * entry used less recently.  Every packet's times and hop count are
 * pinned, and so is each link's occupancy, so an entry serving
 * another pair's links shows.
 */
TEST(Torus, RouteCacheAlternatesThreePairs)
{
    Torus t(smallTorus());

    struct Send
    {
        NodeId src, dst;
    };
    const Send round[] = {{0, 1}, {1, 0}, {0, 5}, {1, 0}, {0, 1}};
    std::vector<PacketResult> got;
    for (Tick base = 0; base <= 600000; base += 200000)
        for (std::size_t i = 0; i < std::size(round); ++i)
            got.push_back(t.send(round[i].src, round[i].dst, 64,
                                 base + i * 100000));

    struct Want
    {
        Tick injected, arrived;
        int hops;
    };
    const Want want[] = {
        {0, 770000, 1}, {100000, 870000, 1},
        {740000, 1520000, 2}, {840000, 1610000, 1},
        {1480000, 2250000, 1}, {2220000, 2990000, 1},
        {1580000, 2350000, 1}, {2960000, 3740000, 2},
        {2320000, 3090000, 1}, {3700000, 4470000, 1},
        {4440000, 5210000, 1}, {3060000, 3830000, 1},
        {5180000, 5960000, 2}, {3800000, 4570000, 1},
        {5920000, 6690000, 1}, {6660000, 7430000, 1},
        {4540000, 5310000, 1}, {7400000, 8180000, 2},
        {5280000, 6050000, 1}, {8140000, 8910000, 1},
    };
    ASSERT_EQ(got.size(), std::size(want));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].injected, want[i].injected) << "packet " << i;
        EXPECT_EQ(got[i].arrived, want[i].arrived) << "packet " << i;
        EXPECT_EQ(got[i].hops, want[i].hops) << "packet " << i;
    }

    // 0 -> 1 and the first hop of 0 -> 5 share r0.+x (link 0); 1 -> 0
    // runs on r1.-x (7), 0 -> 5 turns onto r1.+y (8).
    const auto *busy = static_cast<const stats::Vector *>(
        t.statsGroup().find("torus.linkBusyTicks"));
    ASSERT_NE(busy, nullptr);
    const std::map<std::size_t, double> want_busy = {
        {0, 8640000}, {7, 5760000}, {8, 2880000}};
    for (std::size_t l = 0; l < busy->size(); ++l) {
        const auto it = want_busy.find(l);
        EXPECT_EQ(busy->value(l), it == want_busy.end() ? 0.0 : it->second)
            << "link " << l;
    }
}

TEST(Torus, LoopbackBetweenPairedProcessorsUsesNoLink)
{
    // T3D-style pairing: nodes 0 and 1 share NIC 0, so a packet
    // between them is ejected through that NIC's input port without
    // touching the network.  72 wire bytes take 720 ns at 100 MB/s.
    TorusConfig cfg = smallTorus();
    cfg.procsPerNic = 2;
    Torus t(cfg);
    const PacketResult r = t.send(0, 1, 64, 0);
    EXPECT_EQ(r.hops, 0);
    EXPECT_EQ(r.injected, 0u);
    EXPECT_EQ(r.arrived, 20000u + 720000u + 20000u);

    const auto *busy = static_cast<const stats::Vector *>(
        t.statsGroup().find("torus.linkBusyTicks"));
    ASSERT_NE(busy, nullptr);
    for (std::size_t l = 0; l < busy->size(); ++l)
        EXPECT_EQ(busy->value(l), 0.0) << "link " << l;
}

TEST(Torus, StatsCountPacketsPayloadAndPartnerSwitches)
{
    Torus t(smallTorus());
    t.send(0, 1, 64, 0);       // first partner: no switch
    t.send(0, 1, 32, 0);
    t.send(0, 2, 8, 0);        // switch
    t.send(0, 1, 8, 0);        // switch back
    t.send(3, 2, 16, 0);       // another NIC's first partner
    const auto value = [&t](const char *name) {
        const auto *s = static_cast<const stats::Scalar *>(
            t.statsGroup().find(name));
        EXPECT_NE(s, nullptr) << name;
        return s == nullptr ? -1.0 : s->value();
    };
    EXPECT_EQ(t.packets(), 5u);
    EXPECT_EQ(value("torus.packets"), 5);
    EXPECT_EQ(value("torus.payloadBytes"), 64 + 32 + 8 + 8 + 16);
    EXPECT_EQ(value("torus.partnerSwitches"), 2);
}

TEST(Torus, HopCountIsSymmetric)
{
    for (int dim : {3, 4}) {
        TorusConfig cfg = smallTorus();
        cfg.dimX = dim;
        cfg.dimY = dim;
        cfg.dimZ = 2;
        Torus t(cfg);
        for (NodeId s = 0; s < t.numNodes(); ++s)
            for (NodeId d = 0; d < t.numNodes(); ++d)
                ASSERT_EQ(t.hopCount(s, d), t.hopCount(d, s))
                    << dim << "-ring, " << s << " <-> " << d;
    }
}

TEST(Torus, TimeAccountChargesLinksAndNics)
{
    // 0 -> 2 crosses two X links.  The source NIC is busy for its
    // injection plus the wire time, each link for the wire time, and
    // the destination NIC for one ejection.
    Torus t(smallTorus());
    sim::TimeAccount acct;
    const auto link = acct.resource("noc.link");
    const auto nic = acct.resource("noc.nic");
    t.setTimeAccount(&acct, link, nic);
    const PacketResult r = t.send(0, 2, 64, 0);
    EXPECT_EQ(r.hops, 2);
    EXPECT_EQ(r.arrived, 780000u);
    EXPECT_EQ(acct.busyTicks(link), 2u * 720000u);
    EXPECT_EQ(acct.busyTicks(nic), 740000u + 20000u);
    EXPECT_EQ(acct.stallTicks(link), 0u);
}

} // namespace
