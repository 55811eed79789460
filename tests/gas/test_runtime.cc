/**
 * @file
 * Unit tests for the gas runtime: symmetric heap, one-sided
 * rput/rget data integrity through the simulated hierarchies,
 * handle/fence/barrier ordering semantics, error diagnostics, and
 * thread-safe replica construction via the factory.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hh"
#include "core/surface.hh"
#include "gas/factory.hh"
#include "gas/runtime.hh"
#include "machine/machine.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using gas::GlobalArray;
using gas::GlobalPtr;
using gas::Method;
using gas::Runtime;
using gas::Strided;

TEST(GasSegment, SymmetricAllocationsAreDisjointPerNode)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(1024);
    GlobalArray b = rt.allocate(2048);
    EXPECT_EQ(a.words(), 1024u);
    EXPECT_EQ(b.words(), 2048u);
    for (NodeId p = 0; p < 4; ++p) {
        // Same allocation index, node-dependent base.
        EXPECT_EQ(a.on(p).node, p);
        EXPECT_NE(a.on(p).addr, b.on(p).addr);
        if (p > 0) {
            EXPECT_NE(a.on(p).addr, a.on(p - 1).addr);
        }
        // resolve() maps addresses back to (allocation, word).
        std::size_t alloc = 99;
        std::uint64_t word = 0;
        ASSERT_TRUE(rt.segment(p).resolve(b.on(p, 17).addr, alloc,
                                          word));
        EXPECT_EQ(alloc, 1u);
        EXPECT_EQ(word, 17u);
    }
    // Pointer arithmetic is in words.
    EXPECT_EQ(a.on(2) + 5, a.on(2, 5));
}

TEST(GasSegment, RegionBudgetExhaustionIsAClearError)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 2);
    gas::RuntimeConfig cfg;
    cfg.regionsPerNode = 1;
    Runtime rt(m, cfg);
    rt.allocate(64);
    EXPECT_EXIT(rt.allocate(64), ::testing::ExitedWithCode(1),
                "symmetric heap .* exhausted");
}

TEST(GasRuntime, ContiguousRoundTripMovesTheData)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(256);
    double *src = a.data(1);
    for (int i = 0; i < 256; ++i)
        src[i] = 1000.0 + i;

    // Put node 1's array into node 3's, then get it back into 0's.
    gas::Handle put = rt.rput(a.on(1), a.on(3), 256);
    EXPECT_TRUE(put.valid());
    gas::Handle get = rt.rget(a.on(3), a.on(0), 256);
    rt.barrier();

    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(a.data(3)[i], 1000.0 + i);
        EXPECT_EQ(a.data(0)[i], 1000.0 + i);
    }
    EXPECT_GT(get.complete, put.complete);
}

TEST(GasRuntime, StridedScatterGatherRoundTrips)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(512);
    // 16 complex pairs, gathered at stride 8 complex, landing dense.
    double *src = a.data(0);
    for (int e = 0; e < 16; ++e) {
        src[e * 16] = 7.0 + e;
        src[e * 16 + 1] = -7.0 - e;
    }
    Strided spec;
    spec.words = 32;
    spec.srcStride = 16;
    spec.dstStride = 2;
    spec.elemWords = 2;
    rt.rput_strided(a.on(0), a.on(1), spec, Method::Deposit);
    rt.barrier();
    for (int e = 0; e < 16; ++e) {
        EXPECT_EQ(a.data(1)[e * 2], 7.0 + e);
        EXPECT_EQ(a.data(1)[e * 2 + 1], -7.0 - e);
    }

    // Scatter it back out at the source stride via a fetch.
    Strided back;
    back.words = 32;
    back.srcStride = 2;
    back.dstStride = 16;
    back.elemWords = 2;
    rt.rget_strided(a.on(1), a.on(0, 2), back, Method::Fetch);
    rt.barrier();
    for (int e = 0; e < 16; ++e)
        EXPECT_EQ(a.data(0)[2 + e * 16], 7.0 + e);
}

TEST(GasRuntime, InitiatorFollowsTheMethod)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(64);
    // Deposit: the sender drives; fetch: the receiver drives.
    EXPECT_EQ(rt.rput(a.on(1), a.on(2), 64, Method::Deposit).initiator,
              1);
    EXPECT_EQ(rt.rput(a.on(1), a.on(2), 64, Method::Fetch).initiator,
              2);
}

TEST(GasRuntime, SameInitiatorOpsChainInProgramOrder)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(1024);
    gas::Handle prev{};
    for (int i = 0; i < 4; ++i) {
        gas::Handle h = rt.rput(a.on(0, i * 64), a.on(1, i * 64), 64);
        EXPECT_EQ(h.initiator, 0); // T3D native method is deposit
        if (prev.valid()) {
            EXPECT_GT(h.complete, prev.complete);
        }
        prev = h;
    }
    EXPECT_EQ(rt.pendingOps(), 4u);
    EXPECT_GE(rt.cursor(0), prev.complete);
}

TEST(GasRuntime, WaitStallsTheInitiator)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(4096);
    gas::Handle h = rt.rget(a.on(1), a.on(0), 4096);
    EXPECT_LT(m.node(0).now(), h.complete);
    EXPECT_EQ(rt.wait(h), h.complete);
    EXPECT_GE(m.node(0).now(), h.complete);
}

TEST(GasRuntime, FenceAlignsEveryNodeAndClearsPending)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(512);
    rt.rput(a.on(0), a.on(1), 512);
    rt.rput(a.on(2), a.on(3), 512);
    EXPECT_EQ(rt.pendingOps(), 2u);
    const Tick f = rt.fence();
    EXPECT_EQ(rt.pendingOps(), 0u);
    for (NodeId p = 0; p < 4; ++p) {
        EXPECT_GE(m.node(p).now(), f);
        EXPECT_EQ(rt.cursor(p), f);
    }
}

TEST(GasRuntime, BarrierAddsTheMachineSynchronizationCost)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(64);
    rt.rput(a.on(0), a.on(1), 64);
    const Tick f = rt.fence();
    const Tick b = rt.barrier();
    EXPECT_EQ(b, f + m.barrierCost());
    for (NodeId p = 0; p < 4; ++p)
        EXPECT_GE(m.node(p).now(), b);
}

TEST(GasRuntime, SameNodeTransferUsesTheLocalHierarchy)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(128);
    GlobalArray b = rt.allocate(128);
    for (int i = 0; i < 128; ++i)
        a.data(0)[i] = 3.0 * i;
    gas::Handle h = rt.rput(a.on(0), b.on(0), 128);
    EXPECT_GT(h.complete, 0);
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(b.data(0)[i], 3.0 * i);
    const stats::StatBase *s =
        rt.statsGroup().find("gas.local.copies");
    ASSERT_NE(s, nullptr);
}

TEST(GasRuntime, UnsupportedExplicitMethodIsAClearError)
{
    machine::Machine smp(machine::SystemKind::Dec8400, 2);
    Runtime rt(smp);
    GlobalArray a = rt.allocate(64);
    EXPECT_EXIT(rt.rput(a.on(0), a.on(1), 64, Method::Deposit),
                ::testing::ExitedWithCode(1),
                "not implemented on the DEC");

    machine::Machine t3e(machine::SystemKind::CrayT3E, 2);
    Runtime rt2(t3e);
    GlobalArray b = rt2.allocate(64);
    EXPECT_EXIT(rt2.rput(b.on(0), b.on(1), 64, Method::CoherentPull),
                ::testing::ExitedWithCode(1), "not implemented");
}

TEST(GasRuntime, RemoteWordAccessNeedsRgetOnDistributedMachines)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(64);
    EXPECT_GT(rt.load(0, a.on(0)), 0);
    EXPECT_EXIT(rt.load(0, a.on(1)), ::testing::ExitedWithCode(1),
                "use rget");
    EXPECT_EXIT(rt.store(0, a.on(1)), ::testing::ExitedWithCode(1),
                "use rput");

    // The 8400's shared memory allows cross-node word access.
    machine::Machine smp(machine::SystemKind::Dec8400, 2);
    Runtime rs(smp);
    GlobalArray b = rs.allocate(64);
    EXPECT_GT(rs.load(0, b.on(1)), 0);
}

TEST(GasRuntime, OutOfBoundsTransferIsAClearError)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(64);
    EXPECT_EXIT(rt.rput(a.on(0, 32), a.on(1), 64),
                ::testing::ExitedWithCode(1), "past the end");
}

TEST(GasRuntime, StatsCountOpsBytesAndMethods)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Runtime rt(m);
    GlobalArray a = rt.allocate(256);
    rt.rput(a.on(0), a.on(1), 256);
    rt.rget(a.on(1), a.on(2), 128);
    rt.barrier();
    const auto value = [&rt](const char *name) {
        const stats::StatBase *s = rt.statsGroup().find(name);
        EXPECT_NE(s, nullptr) << name;
        return s == nullptr
                   ? -1.0
                   : static_cast<const stats::Scalar *>(s)->value();
    };
    EXPECT_EQ(value("gas.rput.ops"), 1);
    EXPECT_EQ(value("gas.rput.bytes"), 256 * 8);
    EXPECT_EQ(value("gas.rget.ops"), 1);
    EXPECT_EQ(value("gas.rget.bytes"), 128 * 8);
    EXPECT_EQ(value("gas.method.fetch"), 2); // T3E native method
    EXPECT_EQ(value("gas.auto.native"), 2);  // no planner armed
    EXPECT_EQ(value("gas.barriers"), 1);
    // The runtime group is a child of the machine's stats tree.
    EXPECT_NE(m.statsGroup().find("gas.rput.ops"), nullptr);
}

TEST(GasRuntime, ResetKeepsPayloadDropsTiming)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(64);
    a.data(0)[0] = 42;
    rt.rput(a.on(0), a.on(1), 64);
    rt.barrier();
    EXPECT_GT(rt.cursor(0), 0);
    rt.reset();
    EXPECT_EQ(rt.cursor(0), 0);
    EXPECT_EQ(rt.cursor(1), 0);
    EXPECT_EQ(m.node(0).now(), 0);
    EXPECT_EQ(a.data(1)[0], 42); // payload survives
}

// Factory-built replicas are fully independent and deterministic:
// two worker threads (each with a private tracer, as the factory
// docs require) build runtimes from one recipe and must observe
// byte-identical simulated times.  Named GasRuntime* so the TSan CI
// job picks it up.
TEST(GasRuntimeFactory, ParallelReplicasAreDeterministic)
{
    machine::SystemConfig sys;
    sys.kind = machine::SystemKind::CrayT3E;
    sys.numNodes = 4;
    core::CharacterizeConfig ccfg;
    ccfg.workingSets = {64_KiB};
    ccfg.strides = {2, 8};
    ccfg.capBytes = 64_KiB;
    const gas::RuntimeRecipe recipe = gas::autoRecipe(sys, ccfg);

    constexpr int kWorkers = 4;
    std::vector<Tick> ends(kWorkers, 0);
    std::vector<remote::TransferMethod> methods(
        kWorkers, remote::TransferMethod::Deposit);
    std::vector<std::thread> threads;
    threads.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&recipe, &ends, &methods, w] {
            trace::Tracer tracer;
            trace::ScopedThreadTracer scoped(tracer, 0);
            gas::BuiltRuntime built = gas::makeRuntime(recipe);
            gas::GlobalArray a = built.runtime->allocate(1024);
            gas::Handle h = built.runtime->rput(a.on(1), a.on(0),
                                               1024);
            methods[static_cast<std::size_t>(w)] = h.method;
            ends[static_cast<std::size_t>(w)] =
                built.runtime->barrier();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int w = 1; w < kWorkers; ++w) {
        EXPECT_EQ(ends[w], ends[0]);
        EXPECT_EQ(methods[w], methods[0]);
    }
    EXPECT_GT(ends[0], 0);
}

/** A planner option whose surface predicts @p mbs everywhere. */
core::PlanOption
flatOption(const std::string &label, remote::TransferMethod method,
           double mbs)
{
    core::Surface s(label, {1_KiB, 1_MiB}, {1, 8, 64});
    for (std::uint64_t ws : s.workingSets())
        for (std::uint64_t st : s.strides())
            s.set(ws, st, mbs);
    return {label, method, true, std::move(s), 0};
}

TEST(GasRuntime, AutoSkipsOptionsTheMachineCannotRun)
{
    // A planner loaded from another machine's directory: the coherent
    // pull predicts fastest but the T3E has no such engine, so Auto
    // takes the best option it can execute.
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    core::TransferPlanner planner;
    planner.addOption(
        flatOption("pull", remote::TransferMethod::CoherentPull, 300));
    planner.addOption(
        flatOption("deposit", remote::TransferMethod::Deposit, 100));
    planner.addOption(
        flatOption("fetch", remote::TransferMethod::Fetch, 200));
    rt.setPlanner(std::move(planner));
    GlobalArray a = rt.allocate(64);
    const gas::Handle h = rt.rput(a.on(0), a.on(1), 64, Method::Auto);
    EXPECT_EQ(h.method, remote::TransferMethod::Fetch);
}

TEST(GasRuntime, PlannerWithNoSupportedOptionIsAClearError)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    core::TransferPlanner planner;
    planner.addOption(
        flatOption("pull", remote::TransferMethod::CoherentPull, 300));
    EXPECT_EXIT(rt.setPlanner(std::move(planner)),
                ::testing::ExitedWithCode(1),
                "planner has no option the Cray T3E supports");
}

TEST(GasRuntime, FenceWithNoOutstandingOpsIsANoOp)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    const Tick idle = rt.fence();
    EXPECT_EQ(rt.fence(), idle);
    EXPECT_EQ(rt.fence(), idle);
    // And after real work the same holds for back-to-back fences.
    GlobalArray a = rt.allocate(64);
    rt.rput(a.on(0), a.on(1), 64);
    const Tick after = rt.fence();
    EXPECT_GE(after, idle);
    EXPECT_EQ(rt.fence(), after);
}

TEST(GasRuntime, DoubleWaitOnACompletedHandleIsSafe)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 2);
    Runtime rt(m);
    GlobalArray a = rt.allocate(64);
    a.data(0)[0] = 9;
    gas::Handle h = rt.rput(a.on(0), a.on(1), 64);
    const Tick first = rt.wait(h);
    EXPECT_EQ(rt.wait(h), first);
    EXPECT_EQ(rt.wait(h), first);
    EXPECT_EQ(a.data(1)[0], 9);
}

} // namespace
