/**
 * @file
 * End-to-end properties of the gas runtime on each simulated machine:
 * a machine built from a SystemConfig runs like one built from its
 * kind, runs are deterministic to the stats dump, every remote byte
 * is delivered, the attribution ledger observes without perturbing,
 * and a runtime reset replays the same timing.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gas/fft2d.hh"
#include "gas/runtime.hh"
#include "machine/machine.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"

namespace {

using namespace gasnub;

constexpr int kNodes = 4;

struct FftRun
{
    fft::Fft2dResult result;
    double deliveredBytes = 0;
    std::string statsJson;
};

/** The gas 2D FFT at n = 32 with verified numerics on @p m. */
FftRun
runFft(machine::Machine &m)
{
    gas::RuntimeConfig rcfg;
    rcfg.regionsPerNode = 2;
    gas::Runtime rt(m, rcfg);
    gas::Fft2d app(rt);
    gas::Fft2dConfig cfg;
    cfg.n = 32;
    cfg.verifyNumerics = true;

    FftRun out;
    out.result = app.run(cfg);
    const auto *delivered = static_cast<const stats::Scalar *>(
        rt.statsGroup().find("gas.delivered.bytes"));
    EXPECT_NE(delivered, nullptr);
    if (delivered)
        out.deliveredBytes = delivered->value();
    std::ostringstream os;
    m.statsGroup().dumpJson(os);
    out.statsJson = os.str();
    return out;
}

machine::SystemConfig
sysFor(machine::SystemKind kind, bool attribution)
{
    machine::SystemConfig sys;
    sys.kind = kind;
    sys.numNodes = kNodes;
    sys.attribution = attribution;
    return sys;
}

class GasMachines : public ::testing::TestWithParam<machine::SystemKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    Kinds, GasMachines,
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

TEST_P(GasMachines, ConfigBuiltMachineRunsLikeKindBuiltMachine)
{
    machine::Machine by_kind(GetParam(), kNodes);
    machine::Machine by_cfg(sysFor(GetParam(), false));
    const FftRun a = runFft(by_kind);
    const FftRun b = runFft(by_cfg);
    EXPECT_EQ(a.result.totalTicks, b.result.totalTicks);
    EXPECT_EQ(a.result.commTicks, b.result.commTicks);
    EXPECT_EQ(a.result.maxError, b.result.maxError);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

TEST_P(GasMachines, Fft2dRunsAreDeterministic)
{
    machine::Machine first(GetParam(), kNodes);
    machine::Machine second(GetParam(), kNodes);
    const FftRun a = runFft(first);
    const FftRun b = runFft(second);
    ASSERT_GT(a.result.totalTicks, 0u);
    EXPECT_EQ(a.result.totalTicks, b.result.totalTicks);
    EXPECT_EQ(a.result.computeTicks, b.result.computeTicks);
    EXPECT_EQ(a.result.maxError, b.result.maxError);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

TEST_P(GasMachines, EveryRemoteByteIsDelivered)
{
    machine::Machine m(GetParam(), kNodes);
    const FftRun r = runFft(m);
    EXPECT_LE(r.result.maxError, 1e-6);
    ASSERT_GT(r.result.remoteBytes, 0u);
    EXPECT_EQ(r.deliveredBytes,
              static_cast<double>(r.result.remoteBytes));
}

TEST_P(GasMachines, AttributionDoesNotPerturbRuns)
{
    machine::Machine off(sysFor(GetParam(), false));
    machine::Machine on(sysFor(GetParam(), true));
    ASSERT_EQ(off.timeAccount(), nullptr);
    ASSERT_NE(on.timeAccount(), nullptr);
    const FftRun a = runFft(off);
    const FftRun b = runFft(on);
    EXPECT_EQ(a.result.totalTicks, b.result.totalTicks);
    EXPECT_EQ(a.result.commTicks, b.result.commTicks);
    EXPECT_EQ(a.deliveredBytes, b.deliveredBytes);
}

TEST_P(GasMachines, LedgerChargesTheMachinesInterconnect)
{
    // The transposes use each machine's native method: coherent pull
    // over the 8400's shared bus, CPU-driven remote stores on the T3D
    // (processor issue, no block engine), and E-register fetches on
    // the T3E (the engine, no processor issue).
    machine::Machine m(sysFor(GetParam(), true));
    runFft(m);
    const sim::TimeAccount &acct = *m.timeAccount();
    switch (GetParam()) {
      case machine::SystemKind::Dec8400:
        EXPECT_GT(acct.busyTicks("bus.addr"), 0u);
        EXPECT_GT(acct.busyTicks("cpu.issue"), 0u);
        EXPECT_EQ(acct.busyTicks("noc.link"), 0u);
        EXPECT_EQ(acct.busyTicks("engine"), 0u);
        break;
      case machine::SystemKind::CrayT3D:
        EXPECT_GT(acct.busyTicks("noc.link"), 0u);
        EXPECT_GT(acct.busyTicks("noc.nic"), 0u);
        EXPECT_GT(acct.busyTicks("cpu.issue"), 0u);
        EXPECT_EQ(acct.busyTicks("engine"), 0u);
        EXPECT_EQ(acct.busyTicks("bus.addr"), 0u);
        break;
      case machine::SystemKind::CrayT3E:
        EXPECT_GT(acct.busyTicks("noc.link"), 0u);
        EXPECT_GT(acct.busyTicks("noc.nic"), 0u);
        EXPECT_GT(acct.busyTicks("engine"), 0u);
        EXPECT_EQ(acct.busyTicks("cpu.issue"), 0u);
        EXPECT_EQ(acct.busyTicks("bus.addr"), 0u);
        break;
    }
}

TEST_P(GasMachines, ResetReplaysTheSameTiming)
{
    machine::Machine m(GetParam(), kNodes);
    gas::Runtime rt(m);
    gas::GlobalArray a = rt.allocate(1024);
    gas::GlobalArray b = rt.allocate(1024);
    const auto phase = [&] {
        std::vector<Tick> ends;
        gas::Strided spec;
        spec.words = 256;
        spec.srcStride = 4;
        spec.dstStride = 1;
        ends.push_back(rt.rput(a.on(0), b.on(1), 512).complete);
        ends.push_back(
            rt.rget_strided(a.on(2), b.on(3), spec).complete);
        ends.push_back(rt.barrier());
        return ends;
    };
    const std::vector<Tick> first = phase();
    rt.reset();
    EXPECT_EQ(rt.pendingOps(), 0u);
    const std::vector<Tick> again = phase();
    EXPECT_EQ(first, again);
}

TEST_P(GasMachines, AutoWithoutAPlannerMovesDataNatively)
{
    machine::Machine m(GetParam(), kNodes);
    gas::Runtime rt(m);
    gas::GlobalArray a = rt.allocate(512);
    for (int i = 0; i < 512; ++i)
        a.data(1)[i] = 0.5 * i - 3;

    const gas::Handle h = rt.rput(a.on(1), a.on(2), 512);
    rt.wait(h);
    EXPECT_EQ(h.method, m.nativeMethod());
    EXPECT_GE(rt.cursor(h.initiator), h.complete);
    for (int i = 0; i < 512; ++i)
        ASSERT_EQ(a.data(2)[i], 0.5 * i - 3) << "word " << i;

    const auto *native = static_cast<const stats::Scalar *>(
        rt.statsGroup().find("gas.auto.native"));
    ASSERT_NE(native, nullptr);
    EXPECT_EQ(native->value(), 1);
}

} // namespace
