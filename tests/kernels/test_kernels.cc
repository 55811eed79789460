/**
 * @file
 * Unit and property tests for the micro-benchmark kernels.
 */

#include <gtest/gtest.h>

#include "kernels/kernels.hh"
#include "kernels/remote_kernels.hh"
#include "machine/configs.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::kernels;

TEST(Kernels, EffectiveWorkingSetCapsOnlyHugeSets)
{
    mem::MemoryHierarchy m(machine::crayT3dNode());
    KernelParams p;
    p.wsBytes = 64_KiB;
    p.stride = 4;
    EXPECT_EQ(effectiveWorkingSet(m, p), 64_KiB);
    p.wsBytes = 128_MiB;
    const std::uint64_t eff = effectiveWorkingSet(m, p);
    EXPECT_LT(eff, 128_MiB);
    EXPECT_GE(eff, 4 * 8_KiB); // far beyond every cache
    EXPECT_EQ(eff % (p.stride * 8), 0u);
}

TEST(Kernels, CappedAndUncappedAgreeInCapacityMissRegime)
{
    // The documented invariant behind the simulation cap: once every
    // working set is deep in the capacity-miss regime, bandwidth no
    // longer depends on the set size.
    mem::MemoryHierarchy m(machine::crayT3eNode());
    KernelParams a;
    a.wsBytes = 2_MiB;
    a.capBytes = 2_MiB;
    a.stride = 8;
    KernelParams b = a;
    b.wsBytes = 8_MiB;
    b.capBytes = 8_MiB; // simulated in full
    const double mbs_a = loadSum(m, a).mbs;
    const double mbs_b = loadSum(m, b).mbs;
    EXPECT_NEAR(mbs_a, mbs_b, 0.02 * mbs_b);
}

TEST(Kernels, LoadSumCountsEachWordOnce)
{
    mem::MemoryHierarchy m(machine::crayT3dNode());
    KernelParams p;
    p.wsBytes = 32_KiB;
    p.stride = 3;
    auto r = loadSum(m, p);
    EXPECT_EQ(r.accesses, 32_KiB / 8);
    EXPECT_EQ(r.bytes, 32_KiB);
    EXPECT_GT(r.mbs, 0);
}

TEST(Kernels, PrimingMakesCacheResidentSetsFast)
{
    mem::MemoryHierarchy m(machine::crayT3eNode());
    KernelParams p;
    p.wsBytes = 4_KiB; // fits L1
    p.stride = 1;
    p.prime = true;
    const double primed = loadSum(m, p).mbs;
    p.prime = false;
    const double cold = loadSum(m, p).mbs;
    EXPECT_GT(primed, cold);
}

TEST(Kernels, StoreConstantRunsOnAllMachines)
{
    for (auto kind :
         {machine::SystemKind::Dec8400, machine::SystemKind::CrayT3D,
          machine::SystemKind::CrayT3E}) {
        mem::MemoryHierarchy m(machine::nodeConfig(kind, "n"));
        KernelParams p;
        p.wsBytes = 256_KiB;
        p.stride = 2;
        auto r = storeConstant(m, p);
        EXPECT_GT(r.mbs, 0) << machine::systemName(kind);
    }
}

TEST(Kernels, CopyVariantsMoveTheWholeRegion)
{
    mem::MemoryHierarchy m(machine::crayT3dNode());
    KernelParams p;
    p.wsBytes = 128_KiB;
    p.stride = 8;
    auto a = copy(m, p, CopyVariant::StridedLoads, 1ull << 30);
    auto b = copy(m, p, CopyVariant::StridedStores, 1ull << 30);
    EXPECT_EQ(a.bytes, 128_KiB);
    EXPECT_EQ(b.bytes, 128_KiB);
    EXPECT_EQ(a.accesses, 2 * (128_KiB / 8));
}

TEST(Kernels, T3dStridedStoresBeatStridedLoads)
{
    // Figure 10: the write-back queue makes strided stores much
    // faster than strided loads on the T3D.
    mem::MemoryHierarchy m(machine::crayT3dNode());
    KernelParams p;
    p.wsBytes = 16_MiB;
    p.stride = 16;
    const double sloads =
        copy(m, p, CopyVariant::StridedLoads, 1ull << 30).mbs;
    const double sstores =
        copy(m, p, CopyVariant::StridedStores, 1ull << 30).mbs;
    EXPECT_GT(sstores, sloads * 1.3);
}

TEST(MachineKernels, LoadSumOnMatchesStandaloneHierarchyForCrays)
{
    // Cray nodes have private memories: the machine path must agree
    // with the standalone hierarchy.
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    mem::MemoryHierarchy solo(machine::crayT3eNode("node0"));
    KernelParams p;
    p.wsBytes = 1_MiB;
    p.stride = 4;
    const double on_machine = loadSumOn(m, 0, p).mbs;
    const double standalone = loadSum(solo, p).mbs;
    EXPECT_NEAR(on_machine, standalone, 0.01 * standalone);
}

TEST(MachineKernels, LoadedMachineSlowerThanIdle)
{
    // Paper Section 5.1: with all four processors accessing DRAM the
    // bandwidth drops (about 8% contiguous, 25% strided).
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    KernelParams p;
    p.wsBytes = 8_MiB;
    p.stride = 16;
    p.capBytes = 8_MiB;
    const double idle = loadSumOn(m, 0, p).mbs;
    const double loaded = loadSumLoaded(m, p).mbs;
    EXPECT_LT(loaded, idle);
    EXPECT_GT(loaded, 0.4 * idle);
}

TEST(MachineKernels, StoreConstantOnIsMeasuredCold)
{
    // The store rule: the machine entry (behind the store surfaces)
    // runs unprimed whatever KernelParams::prime says; the node entry
    // primes, which a cache-resident set benefits from.
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    mem::MemoryHierarchy solo(machine::crayT3eNode("node0"));
    KernelParams primed;
    primed.wsBytes = 2_KiB;
    primed.stride = 1;
    primed.prime = true;
    KernelParams cold = primed;
    cold.prime = false;
    const KernelResult on = storeConstantOn(m, 0, primed);
    EXPECT_EQ(on.elapsed, storeConstantOn(m, 0, cold).elapsed);
    EXPECT_EQ(on.elapsed, storeConstant(solo, cold).elapsed);
    EXPECT_GT(storeConstant(solo, primed).mbs, 1.5 * on.mbs);
}

TEST(MachineKernels, CopyOnMatchesStandaloneHierarchyForCrays)
{
    // copy and copyOn share one body; on a private-memory node only
    // the reset scope differs, so both variants must agree.
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    mem::MemoryHierarchy solo(machine::crayT3dNode("node0"));
    KernelParams p;
    p.wsBytes = 128_KiB;
    p.stride = 8;
    for (auto variant :
         {CopyVariant::StridedLoads, CopyVariant::StridedStores}) {
        const KernelResult on = copyOn(m, 0, p, variant, 1ull << 30);
        const KernelResult standalone =
            copy(solo, p, variant, 1ull << 30);
        EXPECT_EQ(on.accesses, standalone.accesses);
        EXPECT_EQ(on.bytes, standalone.bytes);
        EXPECT_NEAR(on.mbs, standalone.mbs, 0.01 * standalone.mbs);
    }
}

TEST(MachineKernels, EntriesCountWordsLikeNodeEntries)
{
    // Machine entries report the words moved, as the node entries do:
    // one access per word, two per copied word.
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    mem::MemoryHierarchy solo(machine::dec8400Node("node0"));
    KernelParams p;
    p.wsBytes = 24_KiB;
    p.stride = 3;
    const std::uint64_t words = 24_KiB / 8;
    for (const KernelResult &r :
         {loadSumOn(m, 1, p), storeConstantOn(m, 1, p),
          loadSum(solo, p), storeConstant(solo, p)}) {
        EXPECT_EQ(r.bytes, 24_KiB);
        EXPECT_EQ(r.accesses, words);
        EXPECT_GT(r.elapsed, 0u);
    }
    const KernelResult c =
        copyOn(m, 1, p, CopyVariant::StridedStores, 1ull << 30);
    EXPECT_EQ(c.bytes, 24_KiB);
    EXPECT_EQ(c.accesses, 2 * words);
}

TEST(MachineKernels, LoadedMachinePrimesCacheableSets)
{
    // loadSumLoaded primes every node's cacheable working set like the
    // idle kernel does, and counts every processor's accesses.
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    KernelParams p;
    p.wsBytes = 4_KiB;
    p.stride = 1;
    const KernelResult primed = loadSumLoaded(m, p);
    p.prime = false;
    const KernelResult cold = loadSumLoaded(m, p);
    EXPECT_GT(primed.mbs, cold.mbs);
    EXPECT_EQ(primed.bytes, 4_KiB);
    EXPECT_EQ(primed.accesses, 4 * (4_KiB / 8));
}

TEST(RemoteKernels, TransfersAllBytesAndReportsBandwidth)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    RemoteParams p;
    p.src = 1;
    p.dst = 0;
    p.wsBytes = 512_KiB;
    p.stride = 4;
    p.method = remote::TransferMethod::Fetch;
    auto r = remoteTransfer(m, p);
    EXPECT_EQ(r.bytes, 512_KiB);
    EXPECT_GT(r.mbs, 0);
}

class RemoteStrideSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RemoteStrideSweep, T3eDepositEvenOddRipple)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    const std::uint64_t even = GetParam();
    RemoteParams p;
    p.src = 1;
    p.dst = 0;
    p.wsBytes = 1_MiB;
    p.strideOnSource = false; // strided remote stores
    p.method = remote::TransferMethod::Deposit;

    p.stride = even;
    const double even_mbs = remoteTransfer(m, p).mbs;
    p.stride = even + 1;
    const double odd_mbs = remoteTransfer(m, p).mbs;
    // Figure 8: odd strides avoid the destination bank conflicts.
    EXPECT_GT(odd_mbs, even_mbs * 1.4) << "even stride " << even;
}

INSTANTIATE_TEST_SUITE_P(EvenStrides, RemoteStrideSweep,
                         ::testing::Values(2, 4, 6, 16));

} // namespace
