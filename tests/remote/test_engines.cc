/**
 * @file
 * Unit and property tests for the remote-transfer engines.
 */

#include <gtest/gtest.h>

#include <string>

#include "machine/machine.hh"
#include "remote/cray_engine.hh"
#include "remote/remote_ops.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using remote::TransferMethod;
using remote::TransferRequest;

TEST(RemoteOps, MethodNames)
{
    EXPECT_STREQ(remote::methodName(TransferMethod::Deposit),
                 "deposit");
    EXPECT_STREQ(remote::methodName(TransferMethod::Fetch), "fetch");
    EXPECT_STREQ(remote::methodName(TransferMethod::CoherentPull),
                 "coherent-pull");
}

TEST(RemoteOps, SupportMatrixMatchesPaper)
{
    machine::Machine dec(machine::SystemKind::Dec8400, 2);
    machine::Machine t3d(machine::SystemKind::CrayT3D, 4);
    machine::Machine t3e(machine::SystemKind::CrayT3E, 4);
    // "The DEC 8400 does not have support for pushing data."
    EXPECT_FALSE(dec.remote().supports(TransferMethod::Deposit));
    EXPECT_FALSE(dec.remote().supports(TransferMethod::Fetch));
    EXPECT_TRUE(dec.remote().supports(TransferMethod::CoherentPull));
    EXPECT_TRUE(t3d.remote().supports(TransferMethod::Deposit));
    EXPECT_TRUE(t3d.remote().supports(TransferMethod::Fetch));
    EXPECT_FALSE(t3d.remote().supports(TransferMethod::CoherentPull));
    EXPECT_TRUE(t3e.remote().supports(TransferMethod::Fetch));
    // Native methods as chosen by the Fx back-ends (Section 9).
    EXPECT_EQ(dec.nativeMethod(), TransferMethod::CoherentPull);
    EXPECT_EQ(t3d.nativeMethod(), TransferMethod::Deposit);
    EXPECT_EQ(t3e.nativeMethod(), TransferMethod::Fetch);
}

TEST(CrayEngine, DepositLandsDataAndInvalidatesDestinationCaches)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    // Destination caches the target line first.
    m.node(2).read(1ull << 33);
    ASSERT_TRUE(m.node(2).level(0).contains(1ull << 33));
    TransferRequest req;
    req.src = 0;
    req.dst = 2;
    req.srcAddr = 0;
    req.dstAddr = 1ull << 33;
    req.words = 64;
    const Tick t =
        m.remote().transfer(req, TransferMethod::Deposit, 0);
    EXPECT_GT(t, 0u);
    // The fetch/deposit circuitry invalidated the stale L1 line.
    EXPECT_FALSE(m.node(2).level(0).contains(1ull << 33));
}

TEST(CrayEngine, ZeroWordTransferIsFree)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    TransferRequest req;
    req.src = 0;
    req.dst = 1;
    req.words = 0;
    EXPECT_EQ(m.remote().transfer(req, TransferMethod::Fetch, 123u),
              123u);
}

TEST(CrayEngine, ContiguousBeatsStridedTransfers)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto run = [&](std::uint64_t dst_stride) {
        m.resetAll();
        TransferRequest req;
        req.src = 0;
        req.dst = 1;
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = 4096;
        req.dstStride = dst_stride;
        return m.remote().transfer(req, TransferMethod::Deposit, 0);
    };
    EXPECT_LT(run(1), run(8));
}

TEST(CrayEngine, T3eEvenStrideScatterSlowerThanOdd)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto run = [&](std::uint64_t dst_stride) {
        m.resetAll();
        TransferRequest req;
        req.src = 0;
        req.dst = 1;
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = 4096;
        req.dstStride = dst_stride;
        return m.remote().transfer(req, TransferMethod::Deposit, 0);
    };
    // Figure 8's ripples: even strides hit one bank parity.
    const Tick even = run(8);
    const Tick odd = run(7);
    EXPECT_GT(static_cast<double>(even), 1.5 * static_cast<double>(odd));
}

TEST(CrayEngine, T3dFetchSlowerThanDeposit)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    auto run = [&](TransferMethod method) {
        m.resetAll();
        TransferRequest req;
        req.src = 0;
        req.dst = 2;
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = 8192;
        return m.remote().transfer(req, method, 0);
    };
    // "Pulling data proves to be consistently inferior to pushing."
    EXPECT_GT(run(TransferMethod::Fetch),
              run(TransferMethod::Deposit));
}

TEST(CrayEngine, T3eFetchAndDepositComparable)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto run = [&](TransferMethod method) {
        m.resetAll();
        TransferRequest req;
        req.src = 0;
        req.dst = 1;
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = 16384;
        return m.remote().transfer(req, method, 0);
    };
    const double f = static_cast<double>(run(TransferMethod::Fetch));
    const double d =
        static_cast<double>(run(TransferMethod::Deposit));
    // "The deposit model enjoys no performance advantages over the
    // fetch model" on the T3E (Section 5.6).
    EXPECT_LT(std::abs(f - d) / d, 0.2);
}

TEST(CrayEngine, ElementRunsKeepWbqCoalescing)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    auto run = [&](std::uint64_t elem_words,
                   std::uint64_t dst_stride) {
        m.resetAll();
        TransferRequest req;
        req.src = 0;
        req.dst = 2;
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = 4096;
        req.elemWords = elem_words;
        req.srcStride = 64;
        req.dstStride = dst_stride;
        return m.remote().transfer(req, TransferMethod::Deposit, 0);
    };
    // Pair elements landing contiguously coalesce in the WBQ and beat
    // the same data scattered word-by-word.
    EXPECT_LT(run(2, 2), run(1, 16));
}

/**
 * A CrayEngine with a test-chosen configuration, driving the nodes
 * and torus of a fresh 4-node machine of @p kind.
 */
struct EngineRig
{
    machine::Machine m;
    stats::Group stats{"rig"};
    remote::CrayEngine engine;

    EngineRig(machine::SystemKind kind,
              const remote::CrayEngineConfig &cfg)
        : m(kind, 4),
          engine(cfg, {&m.node(0), &m.node(1), &m.node(2), &m.node(3)},
                 m.torus(), &stats)
    {
    }

    double
    stat(const std::string &name) const
    {
        const auto *s = dynamic_cast<const stats::Scalar *>(
            stats.find(engine.config().name + "." + name));
        EXPECT_NE(s, nullptr) << name;
        return s ? s->value() : -1;
    }
};

TransferRequest
contiguousRequest(std::uint64_t words)
{
    TransferRequest req;
    req.src = 0;
    req.dst = 1;
    req.srcAddr = 0;
    req.dstAddr = 1ull << 33;
    req.words = words;
    return req;
}

TEST(CrayEngine, T3eElementSplitIssuesOneTransferPerWordOffset)
{
    // Section 7.3: an E-register call takes one stride pair, so a
    // request of 3-word elements becomes three word-granular calls.
    TransferRequest req = contiguousRequest(3 * 128);
    req.elemWords = 3;
    req.srcStride = 5;
    req.dstStride = 7;
    for (TransferMethod method :
         {TransferMethod::Deposit, TransferMethod::Fetch}) {
        EngineRig rig(machine::SystemKind::CrayT3E,
                      machine::t3eEngineConfig());
        EXPECT_GT(rig.engine.transfer(req, method, 0), 0u);
        const bool dep = method == TransferMethod::Deposit;
        EXPECT_EQ(rig.stat("deposits"), dep ? 3.0 : 0.0);
        EXPECT_EQ(rig.stat("fetches"), dep ? 0.0 : 3.0);
        // Each word is counted once, not once per part.
        EXPECT_EQ(rig.stat("wordsMoved"), 3.0 * 128);
    }
}

TEST(CrayEngine, T3dCpuDepositKeepsElementsWhole)
{
    // The T3D's CPU-driven deposit walks element runs itself; only
    // its fetch goes through the block loop and splits.
    TransferRequest req = contiguousRequest(2 * 64);
    req.dst = 2;
    req.elemWords = 2;
    req.srcStride = 4;
    req.dstStride = 4;
    EngineRig dep(machine::SystemKind::CrayT3D,
                  machine::t3dEngineConfig());
    dep.engine.transfer(req, TransferMethod::Deposit, 0);
    EXPECT_EQ(dep.stat("deposits"), 1.0);
    EngineRig fetch(machine::SystemKind::CrayT3D,
                    machine::t3dEngineConfig());
    fetch.engine.transfer(req, TransferMethod::Fetch, 0);
    EXPECT_EQ(fetch.stat("fetches"), 2.0);
}

TEST(CrayEngine, FetchExtraLatencyDelaysFetchesOnly)
{
    remote::CrayEngineConfig slow = machine::t3eEngineConfig();
    slow.fetchExtraNs = 600;
    const TransferRequest req = contiguousRequest(1024);
    auto run = [&](const remote::CrayEngineConfig &cfg,
                   TransferMethod method) {
        EngineRig rig(machine::SystemKind::CrayT3E, cfg);
        return rig.engine.transfer(req, method, 0);
    };
    const remote::CrayEngineConfig base = machine::t3eEngineConfig();
    EXPECT_GE(run(slow, TransferMethod::Fetch),
              run(base, TransferMethod::Fetch) + 600'000u);
    EXPECT_EQ(run(slow, TransferMethod::Deposit),
              run(base, TransferMethod::Deposit));
}

TEST(CrayEngine, WiderWindowOverlapsBlocks)
{
    remote::CrayEngineConfig serial = machine::t3eEngineConfig();
    serial.window = 1;
    const TransferRequest req = contiguousRequest(4096);
    for (TransferMethod method :
         {TransferMethod::Deposit, TransferMethod::Fetch}) {
        EngineRig one(machine::SystemKind::CrayT3E, serial);
        EngineRig deep(machine::SystemKind::CrayT3E,
                       machine::t3eEngineConfig());
        // One block in flight waits out every round trip; 32 overlap.
        EXPECT_GT(static_cast<double>(one.engine.transfer(req, method,
                                                          0)),
                  2.0 * static_cast<double>(
                            deep.engine.transfer(req, method, 0)))
            << remote::methodName(method);
    }
}

TEST(CrayEngine, SingleBlockFetchPaysTheRequestPacket)
{
    // One 64-byte block: a deposit sends only the data; a fetch first
    // sends its request packet dst -> src.
    const TransferRequest req = contiguousRequest(8);
    EngineRig dep(machine::SystemKind::CrayT3E,
                  machine::t3eEngineConfig());
    EngineRig fetch(machine::SystemKind::CrayT3E,
                    machine::t3eEngineConfig());
    const Tick d = dep.engine.transfer(req, TransferMethod::Deposit, 0);
    const Tick f = fetch.engine.transfer(req, TransferMethod::Fetch, 0);
    EXPECT_GT(d, 0u);
    EXPECT_GT(f, d);
}

TEST(SmpPull, TransferEndsInConsumerCaches)
{
    machine::Machine m(machine::SystemKind::Dec8400, 2);
    m.produce(1, 0x100000, 512);
    m.resetTiming();
    TransferRequest req;
    req.src = 1;
    req.dst = 0;
    req.srcAddr = 0x100000;
    req.words = 512;
    const Tick t =
        m.remote().transfer(req, TransferMethod::CoherentPull, 0);
    EXPECT_GT(t, 0u);
    EXPECT_TRUE(m.node(0).level(0).contains(0x100000 + 512 * 8 - 8));
}

class TransferMonotonicity
    : public ::testing::TestWithParam<machine::SystemKind>
{
};

TEST_P(TransferMonotonicity, TimeGrowsWithWordCount)
{
    machine::Machine m(GetParam(), 4);
    const auto method = m.nativeMethod();
    Tick prev = 0;
    for (std::uint64_t words : {64, 256, 1024, 4096}) {
        m.resetAll();
        TransferRequest req;
        req.src = GetParam() == machine::SystemKind::CrayT3D ? 0 : 1;
        req.dst = GetParam() == machine::SystemKind::CrayT3D ? 2 : 0;
        if (GetParam() == machine::SystemKind::Dec8400)
            m.produce(req.src, 0, words);
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = words;
        const Tick t = m.remote().transfer(req, method, 0);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(AllMachines, TransferMonotonicity,
                         ::testing::Values(
                             machine::SystemKind::Dec8400,
                             machine::SystemKind::CrayT3D,
                             machine::SystemKind::CrayT3E));

/** One method a machine's engine implements. */
struct EngineCase
{
    machine::SystemKind kind;
    TransferMethod method;
    const char *name;
};

class EngineTransfers : public ::testing::TestWithParam<EngineCase>
{
  protected:
    /** A strided transfer between two nodes of different routers. */
    static TransferRequest
    request()
    {
        TransferRequest req;
        req.src = 1;
        req.dst = 2;
        req.srcAddr = 0;
        req.dstAddr = 1ull << 33;
        req.words = 512;
        req.srcStride = 3;
        req.dstStride = 1;
        return req;
    }

    static Tick
    run(machine::Machine &m, Tick start)
    {
        const TransferRequest req = request();
        if (m.kind() == machine::SystemKind::Dec8400)
            m.produce(req.src, req.srcAddr,
                      req.words * req.srcStride);
        m.resetTiming();
        return m.remote().transfer(req, GetParam().method, start);
    }
};

TEST_P(EngineTransfers, EndsAfterItsStart)
{
    machine::Machine m(GetParam().kind, 4);
    ASSERT_TRUE(m.remote().supports(GetParam().method));
    const Tick from_zero = run(m, 0);
    EXPECT_GT(from_zero, 0u);
    m.resetAll();
    const Tick late = run(m, 5'000'000);
    EXPECT_GT(late, 5'000'000u);
}

TEST_P(EngineTransfers, FreshMachinesAgreeTickForTick)
{
    machine::Machine a(GetParam().kind, 4);
    machine::Machine b(GetParam().kind, 4);
    EXPECT_EQ(run(a, 0), run(b, 0));
}

TEST_P(EngineTransfers, ResetAllReplaysTheFirstTransfer)
{
    machine::Machine m(GetParam().kind, 4);
    const Tick first = run(m, 0);
    m.resetAll();
    EXPECT_EQ(run(m, 0), first);
}

INSTANTIATE_TEST_SUITE_P(
    SupportedMethods, EngineTransfers,
    ::testing::Values(
        EngineCase{machine::SystemKind::Dec8400,
                   TransferMethod::CoherentPull, "dec8400_pull"},
        EngineCase{machine::SystemKind::CrayT3D,
                   TransferMethod::Deposit, "t3d_deposit"},
        EngineCase{machine::SystemKind::CrayT3D, TransferMethod::Fetch,
                   "t3d_fetch"},
        EngineCase{machine::SystemKind::CrayT3E,
                   TransferMethod::Deposit, "t3e_deposit"},
        EngineCase{machine::SystemKind::CrayT3E, TransferMethod::Fetch,
                   "t3e_fetch"}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
