/**
 * @file
 * Bottleneck attribution: the exact-sum invariant, zero overhead when
 * off, --jobs determinism, and the paper's dominant-resource regimes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/characterizer.hh"
#include "core/surface_io.hh"
#include "core/sweep_runner.hh"
#include "machine/machine.hh"
#include "sim/time_account.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;

machine::SystemConfig
cfgFor(machine::SystemKind kind, bool attribution)
{
    machine::SystemConfig sys;
    sys.kind = kind;
    sys.numNodes = 4;
    sys.attribution = attribution;
    return sys;
}

core::CharacterizeConfig
smallGrid()
{
    core::CharacterizeConfig cfg;
    cfg.workingSets = {4_KiB, 64_KiB};
    cfg.strides = {1, 8, 96};
    cfg.capBytes = 128_KiB;
    return cfg;
}

class AllMachinesAttr
    : public ::testing::TestWithParam<machine::SystemKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllMachinesAttr,
    ::testing::Values(machine::SystemKind::Dec8400,
                      machine::SystemKind::CrayT3D,
                      machine::SystemKind::CrayT3E),
    [](const auto &info) {
        switch (info.param) {
          case machine::SystemKind::Dec8400: return "dec8400";
          case machine::SystemKind::CrayT3D: return "t3d";
          case machine::SystemKind::CrayT3E: return "t3e";
        }
        return "unknown";
    });

// Every point's shares sum to its elapsed ticks, exactly, in integer
// arithmetic — the tentpole invariant, on all three machines.
TEST_P(AllMachinesAttr, SharesSumExactlyToElapsed)
{
    machine::Machine m(cfgFor(GetParam(), true));
    ASSERT_NE(m.timeAccount(), nullptr);
    core::Characterizer c(m);
    const core::Surface s =
        c.run(core::SweepSpec::localLoads(0), smallGrid());
    ASSERT_TRUE(s.hasAttribution());
    for (std::uint64_t w : s.workingSets()) {
        for (std::uint64_t st : s.strides()) {
            const Tick elapsed = s.elapsedAt(w, st);
            EXPECT_GT(elapsed, 0u);
            Tick sum = 0;
            for (Tick v : s.attributionAt(w, st))
                sum += v;
            EXPECT_EQ(sum, elapsed)
                << "ws " << w << " stride " << st;
        }
    }
}

// Accounting only observes: the measured bandwidth of every point is
// bit-identical with the ledger on and off.
TEST_P(AllMachinesAttr, AttributionChangesNoTiming)
{
    machine::Machine on(cfgFor(GetParam(), true));
    machine::Machine off(cfgFor(GetParam(), false));
    EXPECT_EQ(off.timeAccount(), nullptr);
    core::Characterizer con(on), coff(off);
    const core::Surface a =
        con.run(core::SweepSpec::localLoads(0), smallGrid());
    const core::Surface b =
        coff.run(core::SweepSpec::localLoads(0), smallGrid());
    for (std::uint64_t w : a.workingSets())
        for (std::uint64_t st : a.strides())
            EXPECT_EQ(a.at(w, st), b.at(w, st))
                << "ws " << w << " stride " << st;
    // And the off-surface has no attribution layer to serialize, so
    // saved files keep the v1 bytes.
    std::ostringstream os;
    core::saveSurface(b, os);
    EXPECT_EQ(os.str().rfind("gasnub-surface 1", 0), 0u);
}

// A parallel sweep must serialize the attribution surface (and merge
// the cumulative ledger) byte-identically to a serial run.
TEST_P(AllMachinesAttr, ParallelSweepIsByteIdentical)
{
    const machine::SystemConfig sys = cfgFor(GetParam(), true);
    const core::CharacterizeConfig cfg = smallGrid();

    machine::Machine serial(sys);
    core::Characterizer c(serial);
    const core::Surface ss = c.run(core::SweepSpec::localLoads(0), cfg);

    machine::Machine parallel(sys);
    core::SweepRunner runner(sys, 4);
    const core::Surface sp =
        runner.run(core::SweepSpec::localLoads(0), cfg);
    runner.mergeStatsInto(parallel.statsGroup());

    std::ostringstream a, b;
    core::saveSurface(ss, a);
    core::saveSurface(sp, b);
    EXPECT_EQ(a.str(), b.str());

    std::ostringstream ja, jb;
    serial.statsGroup().dumpJson(ja);
    parallel.statsGroup().dumpJson(jb);
    EXPECT_EQ(ja.str(), jb.str());
}

namespace {

/** Name of the resource with the largest share at (ws, stride). */
std::string
dominantAt(const core::Surface &s, std::uint64_t ws,
           std::uint64_t stride)
{
    const std::vector<Tick> &shares = s.attributionAt(ws, stride);
    std::size_t best = 0;
    for (std::size_t i = 1; i < shares.size(); ++i)
        if (shares[i] > shares[best])
            best = i;
    return s.attrResources()[best];
}

} // namespace

// Paper regime 1: DEC 8400 remote pulls at unit stride saturate the
// shared bus/memory path — the dominant resource is a bus-side one.
TEST(AttributionRegimes, Dec8400PullSaturatesSharedBus)
{
    machine::Machine m(
        cfgFor(machine::SystemKind::Dec8400, true));
    core::Characterizer c(m);
    core::CharacterizeConfig cfg;
    cfg.workingSets = {1_MiB};
    cfg.strides = {1};
    cfg.capBytes = 256_KiB;
    const core::Surface s = c.run(
        core::SweepSpec::remote(remote::TransferMethod::CoherentPull, true,
                                1, 0),
        cfg);
    EXPECT_EQ(dominantAt(s, 1_MiB, 1).rfind("bus.", 0), 0u)
        << "dominant: " << dominantAt(s, 1_MiB, 1);
}

// Paper regime 2: T3D remote fetches serialize on the interconnect
// (the shallow request pipeline cannot hide the network round trip).
TEST(AttributionRegimes, T3dFetchBoundByInterconnect)
{
    machine::Machine m(
        cfgFor(machine::SystemKind::CrayT3D, true));
    core::Characterizer c(m);
    core::CharacterizeConfig cfg;
    cfg.workingSets = {256_KiB};
    cfg.strides = {1};
    cfg.capBytes = 128_KiB;
    const core::Surface s = c.run(
        core::SweepSpec::remote(remote::TransferMethod::Fetch, true, 0, 2),
        cfg);
    EXPECT_EQ(dominantAt(s, 256_KiB, 1).rfind("noc.", 0), 0u)
        << "dominant: " << dominantAt(s, 256_KiB, 1);
}

// Paper regime 3: large-stride loads from a working set far beyond
// the caches hit a new DRAM page on every access.
TEST(AttributionRegimes, T3eLargeStrideLoadsAreDramBound)
{
    machine::Machine m(
        cfgFor(machine::SystemKind::CrayT3E, true));
    core::Characterizer c(m);
    core::CharacterizeConfig cfg;
    cfg.workingSets = {2_MiB};
    cfg.strides = {96, 128};
    cfg.capBytes = 256_KiB;
    const core::Surface s = c.run(core::SweepSpec::localLoads(0), cfg);
    for (std::uint64_t st : s.strides())
        EXPECT_EQ(dominantAt(s, 2_MiB, st).rfind("dram.", 0), 0u)
            << "stride " << st
            << " dominant: " << dominantAt(s, 2_MiB, st);
}

// Unit-level checks of the layered decomposition itself.
TEST(TimeAccount, LayeredAttributionHidesOverlap)
{
    sim::TimeAccount acct;
    const auto a = acct.resource("a");
    const auto b = acct.resource("b");
    acct.arm();
    // a busy [0,100); b busy [50,120): b's first 50 ticks hide under
    // a; [120,150) belongs to nobody -> sw.overhead.
    acct.charge(a, 0, 100);
    acct.charge(b, 50, 120);
    const auto pa = acct.finishPoint(150);
    EXPECT_EQ(pa.elapsed, 150u);
    EXPECT_EQ(pa.attributed[a], 100u);
    EXPECT_EQ(pa.attributed[b], 20u);
    EXPECT_EQ(pa.attributed[sim::TimeAccount::overheadRes], 30u);
    Tick sum = 0;
    for (Tick v : pa.attributed)
        sum += v;
    EXPECT_EQ(sum, pa.elapsed);
    // Cumulative busy survives finishPoint.
    EXPECT_EQ(acct.busyTicks("a"), 100u);
    EXPECT_EQ(acct.busyTicks("b"), 70u);
}

TEST(TimeAccount, ChargesPastTheWindowAreClipped)
{
    sim::TimeAccount acct;
    const auto a = acct.resource("a");
    acct.arm();
    acct.charge(a, 50, 500); // drain work beyond the measured window
    const auto pa = acct.finishPoint(100);
    EXPECT_EQ(pa.attributed[a], 50u);
    EXPECT_EQ(pa.attributed[sim::TimeAccount::overheadRes], 50u);
}

TEST(TimeAccount, ResetPointDropsPrimingIntervals)
{
    sim::TimeAccount acct;
    const auto a = acct.resource("a");
    acct.arm();
    acct.charge(a, 0, 100); // priming — discarded by resetTiming
    acct.resetPoint();
    EXPECT_TRUE(acct.armed());
    acct.charge(a, 0, 10);
    const auto pa = acct.finishPoint(40);
    EXPECT_EQ(pa.attributed[a], 10u);
    EXPECT_EQ(pa.attributed[sim::TimeAccount::overheadRes], 30u);
}

} // namespace
