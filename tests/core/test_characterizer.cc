/**
 * @file
 * Tests for the characterizer — the benchmark driver of the extended
 * copy-transfer model — on reduced grids so they run quickly.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/characterizer.hh"
#include "core/planner.hh"
#include "core/surface_io.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::core;

CharacterizeConfig
tinyGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {4_KiB, 64_KiB, 2_MiB};
    cfg.strides = {1, 8, 64};
    cfg.capBytes = 2_MiB;
    return cfg;
}

TEST(Characterizer, PaperGridsMatchTheFigures)
{
    const auto strides = paperStrides();
    EXPECT_EQ(strides.front(), 1u);
    EXPECT_EQ(strides.back(), 192u);
    EXPECT_NE(std::find(strides.begin(), strides.end(), 31),
              strides.end());
    const auto ws = paperWorkingSets(8_MiB);
    EXPECT_EQ(ws.front(), 512u);   // ".5k"
    EXPECT_EQ(ws.back(), 8_MiB);
    EXPECT_EQ(ws.size(), 15u);     // powers of two
}

TEST(Characterizer, LocalLoadSurfaceIsCompleteAndPlateaued)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Characterizer c(m);
    Surface s = c.run(SweepSpec::localLoads(0), tinyGrid());
    EXPECT_TRUE(s.complete());
    // Cache plateau above DRAM plateau, contiguous above strided.
    EXPECT_GT(s.at(4_KiB, 8), s.at(2_MiB, 8));
    EXPECT_GT(s.at(2_MiB, 1), s.at(2_MiB, 64));
}

TEST(Characterizer, LocalStoreSurfaceComplete)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    Characterizer c(m);
    Surface s = c.run(SweepSpec::localStores(0), tinyGrid());
    EXPECT_TRUE(s.complete());
    EXPECT_GT(s.at(2_MiB, 1), 0);
}

TEST(Characterizer, CopySurfacesReflectVariantAsymmetry)
{
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    Characterizer c(m);
    CharacterizeConfig cfg;
    cfg.workingSets = {2_MiB};
    cfg.strides = {1, 16};
    cfg.capBytes = 2_MiB;
    Surface sload = c.run(
        SweepSpec::localCopy(kernels::CopyVariant::StridedLoads), cfg);
    Surface sstore = c.run(
        SweepSpec::localCopy(kernels::CopyVariant::StridedStores), cfg);
    // T3D: strided stores (WBQ) beat strided loads (Figure 10).
    EXPECT_GT(sstore.at(2_MiB, 16), sload.at(2_MiB, 16));
    // Contiguous copies agree (same access pattern).
    EXPECT_NEAR(sstore.at(2_MiB, 1), sload.at(2_MiB, 1),
                0.05 * sload.at(2_MiB, 1));
}

TEST(Characterizer, RemoteSurfaceUsesTheRequestedMethod)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Characterizer c(m);
    CharacterizeConfig cfg;
    cfg.workingSets = {256_KiB};
    cfg.strides = {1, 2, 3};
    cfg.capBytes = 256_KiB;
    Surface dep = c.run(
        SweepSpec::remote(remote::TransferMethod::Deposit, false), cfg);
    EXPECT_TRUE(dep.complete());
    // Figure 8 ripple: odd stride beats even stride.
    EXPECT_GT(dep.at(256_KiB, 3), 1.4 * dep.at(256_KiB, 2));
}

TEST(SweepSpec, FromNameDecodesTheCharacterizeBenchmarks)
{
    using machine::SystemKind;
    using remote::TransferMethod;
    EXPECT_EQ(SweepSpec::fromName(SystemKind::CrayT3E, "loads")->kind,
              SweepSpec::Kind::LocalLoads);
    EXPECT_EQ(SweepSpec::fromName(SystemKind::CrayT3E, "stores")->kind,
              SweepSpec::Kind::LocalStores);
    const auto copy = SweepSpec::fromName(SystemKind::Dec8400, "copy-sstore");
    EXPECT_EQ(copy->kind, SweepSpec::Kind::LocalCopy);
    EXPECT_EQ(copy->variant, kernels::CopyVariant::StridedStores);
    EXPECT_EQ(copy->node, 0u);

    // Remote names: the T3D moves data between distinct network nodes
    // (0 -> 2), the other machines from node 1 to node 0.
    const auto t3d = SweepSpec::fromName(SystemKind::CrayT3D, "fetch-sload");
    EXPECT_EQ(t3d->kind, SweepSpec::Kind::Remote);
    EXPECT_EQ(t3d->method, TransferMethod::Fetch);
    EXPECT_TRUE(t3d->strideOnSource);
    EXPECT_EQ(t3d->src, 0u);
    EXPECT_EQ(t3d->dst, 2u);
    const auto dec = SweepSpec::fromName(SystemKind::Dec8400, "pull");
    EXPECT_EQ(dec->method, TransferMethod::CoherentPull);
    EXPECT_EQ(dec->src, 1u);
    EXPECT_EQ(dec->dst, 0u);
    const auto t3e = SweepSpec::fromName(SystemKind::CrayT3E, "deposit-sstore");
    EXPECT_EQ(t3e->method, TransferMethod::Deposit);
    EXPECT_FALSE(t3e->strideOnSource);

    EXPECT_FALSE(SweepSpec::fromName(SystemKind::CrayT3E, "flops"));
    EXPECT_FALSE(SweepSpec::fromName(SystemKind::CrayT3E, ""));
}

TEST(Characterizer, RunIsOneGridLoopOverMeasure)
{
    // run() is surface() plus measure()/setPoint() at every grid
    // point: a hand-written loop over them gives the same surface,
    // attribution rows included, for every kind of sweep.
    CharacterizeConfig cfg;
    cfg.workingSets = {2_KiB, 32_KiB, 1_MiB};
    cfg.strides = {1, 3, 32};
    cfg.capBytes = 256_KiB;
    const std::vector<SweepSpec> specs = {
        SweepSpec::localLoads(1), SweepSpec::localStores(0),
        SweepSpec::localCopy(kernels::CopyVariant::StridedLoads, 0),
        SweepSpec::localCopy(kernels::CopyVariant::StridedStores, 2),
        SweepSpec::remote(remote::TransferMethod::Fetch, true, 1, 0),
        SweepSpec::remote(remote::TransferMethod::Deposit, false, 0, 3)};
    machine::SystemConfig sys;
    sys.kind = machine::SystemKind::CrayT3D;
    sys.attribution = true;
    machine::Machine a(sys);
    machine::Machine b(sys);
    Characterizer by_run(a);
    Characterizer by_point(b);
    for (const SweepSpec &spec : specs) {
        const Surface want = by_run.run(spec, cfg);
        Surface got =
            by_point.surface(spec, cfg.workingSets, cfg.strides);
        EXPECT_EQ(got.name(), sweepName(sys.kind, spec));
        EXPECT_TRUE(got.hasAttribution());
        EXPECT_FALSE(got.complete());
        for (std::uint64_t w : cfg.workingSets)
            for (std::uint64_t st : cfg.strides)
                setPoint(got, w, st,
                         by_point.measure(spec, w, st, cfg.capBytes));
        std::ostringstream want_text, got_text;
        saveSurface(want, want_text);
        saveSurface(got, got_text);
        EXPECT_EQ(got_text.str(), want_text.str()) << got.name();
    }
}

TEST(Characterizer, MeasureCountsOnePointAndItsAccesses)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Characterizer c(m);
    const SweepPoint loads =
        c.measure(SweepSpec::localLoads(0), 64_KiB, 4, 0);
    EXPECT_EQ(loads.result.accesses, 64_KiB / 8);
    EXPECT_GT(loads.result.mbs, 0);
    // No ledger on this machine: no attribution.
    EXPECT_TRUE(loads.attribution.attributed.empty());
    const SweepPoint copy = c.measure(
        SweepSpec::localCopy(kernels::CopyVariant::StridedStores, 0),
        64_KiB, 4, 0);
    EXPECT_EQ(copy.result.accesses, 2 * (64_KiB / 8));
}

TEST(Characterizer, MeasureRecordsOnePointEventAtTimeZero)
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(
        tracer, static_cast<std::uint32_t>(trace::Category::Sim));
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Characterizer c(m);
    const SweepPoint p =
        c.measure(SweepSpec::localStores(0), 8_KiB, 2, 0);
    std::size_t points = 0;
    for (const trace::Event &e : tracer.events()) {
        if (tracer.trackName(e.track) != characterizerTrackName)
            continue;
        ++points;
        EXPECT_STREQ(e.name, "point.stores");
        EXPECT_EQ(e.start, 0u);
        EXPECT_EQ(e.dur, p.result.elapsed);
        EXPECT_STREQ(e.key0, "ws");
        EXPECT_EQ(e.val0, 8_KiB);
        EXPECT_STREQ(e.key1, "stride");
        EXPECT_EQ(e.val1, 2u);
    }
    EXPECT_EQ(points, 1u);
}

TEST(Characterizer, SurfacesFeedThePlannerEndToEnd)
{
    // The paper's use case: characterize, then let the compiler pick.
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    Characterizer c(m);
    CharacterizeConfig cfg;
    cfg.workingSets = {512_KiB};
    cfg.strides = {1, 2, 4};
    cfg.capBytes = 512_KiB;

    TransferPlanner planner;
    planner.addOption(
        {"iget (strided loads)", remote::TransferMethod::Fetch, true,
         c.run(SweepSpec::remote(remote::TransferMethod::Fetch, true),
               cfg)});
    planner.addOption(
        {"iput (strided stores)", remote::TransferMethod::Deposit,
         false,
         c.run(SweepSpec::remote(remote::TransferMethod::Deposit, false),
               cfg)});

    // "Fetches are more advantageous for even strides" (Section 5.6).
    TransferQuery q;
    q.wsBytes = 512_KiB;
    q.stride = 2;
    EXPECT_EQ(planner.best(q).method, remote::TransferMethod::Fetch);
}

} // namespace
