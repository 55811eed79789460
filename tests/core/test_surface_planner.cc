/**
 * @file
 * Unit tests for the characterization surface and transfer planner.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/planner.hh"
#include "core/surface.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::core;

Surface
rampSurface(const std::string &name, double base)
{
    Surface s(name, {1_KiB, 1_MiB}, {1, 8, 64});
    for (std::uint64_t ws : s.workingSets())
        for (std::uint64_t st : s.strides())
            s.set(ws, st, base / static_cast<double>(st));
    return s;
}

TEST(Surface, SetAtRoundTrips)
{
    Surface s("t", {512, 1_KiB}, {1, 2});
    EXPECT_FALSE(s.complete());
    s.set(512, 1, 100);
    s.set(512, 2, 50);
    s.set(1_KiB, 1, 80);
    s.set(1_KiB, 2, 40);
    EXPECT_TRUE(s.complete());
    EXPECT_DOUBLE_EQ(s.at(512, 2), 50);
    EXPECT_DOUBLE_EQ(s.at(1_KiB, 1), 80);
}

TEST(Surface, InterpolationIsExactOnGridPoints)
{
    Surface s = rampSurface("r", 800);
    for (std::uint64_t ws : s.workingSets())
        for (std::uint64_t st : s.strides())
            EXPECT_DOUBLE_EQ(s.interpolate(
                                 static_cast<double>(ws),
                                 static_cast<double>(st)),
                             s.at(ws, st));
}

TEST(Surface, InterpolationBetweenPointsIsBounded)
{
    Surface s = rampSurface("r", 800);
    const double mid = s.interpolate(64_KiB, 4); // between grid pts
    EXPECT_GT(mid, 100);  // 800/8
    EXPECT_LT(mid, 800);  // 800/1
}

TEST(Surface, InterpolationClampsOutsideGrid)
{
    Surface s = rampSurface("r", 800);
    EXPECT_DOUBLE_EQ(s.interpolate(1, 1), 800);
    EXPECT_DOUBLE_EQ(s.interpolate(1e12, 1000), 800.0 / 64);
}

TEST(Surface, PointsEnumeratesRowMajor)
{
    Surface s = rampSurface("r", 640);
    auto pts = s.points();
    ASSERT_EQ(pts.size(), 6u);
    EXPECT_EQ(pts[0].wsBytes, 1_KiB);
    EXPECT_EQ(pts[0].stride, 1u);
    EXPECT_EQ(pts[5].wsBytes, 1_MiB);
    EXPECT_EQ(pts[5].stride, 64u);
}

TEST(Surface, PrintProducesPaperStyleTable)
{
    Surface s = rampSurface("My Machine", 640);
    std::ostringstream os;
    s.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("My Machine"), std::string::npos);
    EXPECT_NE(out.find("1k"), std::string::npos);
    EXPECT_NE(out.find("640"), std::string::npos);
}

TEST(Surface, TransferSecondsInvertsBandwidth)
{
    Surface s = rampSurface("r", 100); // 100 MB/s at stride 1
    EXPECT_NEAR(s.transferSeconds(100 * 1000 * 1000, 1_KiB, 1), 1.0,
                1e-9);
}

TEST(Planner, PicksHighestBandwidthOption)
{
    TransferPlanner p;
    p.addOption({"slow", remote::TransferMethod::Fetch, true,
                 rampSurface("slow", 100)});
    p.addOption({"fast", remote::TransferMethod::Deposit, false,
                 rampSurface("fast", 200)});
    TransferQuery q;
    q.bytes = 1 << 20;
    q.wsBytes = 1_MiB;
    q.stride = 8;
    const Plan plan = p.best(q);
    EXPECT_EQ(plan.label, "fast");
    EXPECT_EQ(plan.method, remote::TransferMethod::Deposit);
    EXPECT_DOUBLE_EQ(plan.predictedMBs, 25.0);
    EXPECT_NEAR(plan.predictedSeconds,
                (1 << 20) / (25.0 * 1e6), 1e-9);
}

TEST(Planner, ChoiceMayDependOnStride)
{
    // fetch wins at high strides, deposit at low strides — the T3E
    // even-stride situation in miniature.
    Surface fetch("fetch", {1_MiB}, {1, 8, 64});
    fetch.set(1_MiB, 1, 300);
    fetch.set(1_MiB, 8, 140);
    fetch.set(1_MiB, 64, 140);
    Surface deposit("deposit", {1_MiB}, {1, 8, 64});
    deposit.set(1_MiB, 1, 350);
    deposit.set(1_MiB, 8, 70);
    deposit.set(1_MiB, 64, 70);

    TransferPlanner p;
    p.addOption({"fetch", remote::TransferMethod::Fetch, true, fetch});
    p.addOption({"deposit", remote::TransferMethod::Deposit, false,
                 deposit});

    TransferQuery q;
    q.wsBytes = 1_MiB;
    q.stride = 1;
    EXPECT_EQ(p.best(q).label, "deposit");
    q.stride = 8;
    EXPECT_EQ(p.best(q).label, "fetch");
}

TEST(Planner, PredictAllReportsEveryOption)
{
    TransferPlanner p;
    p.addOption({"a", remote::TransferMethod::Fetch, true,
                 rampSurface("a", 100)});
    p.addOption({"b", remote::TransferMethod::Deposit, true,
                 rampSurface("b", 50)});
    TransferQuery q;
    q.wsBytes = 1_KiB;
    q.stride = 1;
    auto all = p.predictAll(q);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_DOUBLE_EQ(all[0], 100);
    EXPECT_DOUBLE_EQ(all[1], 50);
}

} // namespace

namespace blocked_options {

using namespace gasnub;
using namespace gasnub::core;

TEST(Planner, BlockedOptionUsesCappedWorkingSet)
{
    // A surface that is much faster at small working sets (cache
    // resident) than at large ones — the 8400 pull shape.
    Surface s("pull", {1_MiB, 64_MiB}, {1, 16});
    s.set(1_MiB, 1, 150);
    s.set(1_MiB, 16, 75);
    s.set(64_MiB, 1, 140);
    s.set(64_MiB, 16, 22);

    TransferPlanner p;
    PlanOption direct{"direct pull",
                      remote::TransferMethod::CoherentPull, true, s,
                      0};
    PlanOption blocked{"L3-blocked pull",
                       remote::TransferMethod::CoherentPull, true, s,
                       1_MiB};
    p.addOption(direct);
    p.addOption(blocked);

    TransferQuery q;
    q.bytes = 64_MiB;
    q.wsBytes = 64_MiB;
    q.stride = 16;
    // Section 9: "if a global communication operation can be
    // partitioned into sub-blocks, cache to cache transfers might
    // perform better than remote memory copies."
    const Plan plan = p.best(q);
    EXPECT_EQ(plan.label, "L3-blocked pull");
    EXPECT_DOUBLE_EQ(plan.predictedMBs, 75);
    // Contiguous data does not need the blocking.
    q.stride = 1;
    EXPECT_DOUBLE_EQ(p.best(q).predictedMBs, 150);
}

} // namespace blocked_options

namespace grid_cells {

using namespace gasnub;
using namespace gasnub::core;

/** Bandwidth that varies along both axes, so a wrong row or column
 *  changes the answer. */
Surface
slopedSurface(const std::string &name,
              std::vector<std::uint64_t> working_sets,
              std::vector<std::uint64_t> strides, double base)
{
    Surface s(name, std::move(working_sets), std::move(strides));
    double row = 1;
    for (std::uint64_t ws : s.workingSets()) {
        for (std::uint64_t st : s.strides())
            s.set(ws, st, base * row / static_cast<double>(st));
        row += 0.75;
    }
    return s;
}

TEST(Surface, LocateFindsTheBracketingCellAndLogWeights)
{
    Surface s = slopedSurface("s", {1_KiB, 1_MiB}, {1, 8, 64}, 800);
    GridCell cell = s.locate(32_KiB, 4);
    EXPECT_EQ(cell.r, 0u);
    EXPECT_EQ(cell.c, 0u);
    EXPECT_DOUBLE_EQ(cell.wr, 0.5);       // log2: 15 between 10, 20
    EXPECT_DOUBLE_EQ(cell.wc, 2.0 / 3.0); // log2: 2 between 0, 3
    cell = s.locate(32_KiB, 16);
    EXPECT_EQ(cell.c, 1u);
    EXPECT_DOUBLE_EQ(cell.wc, 1.0 / 3.0); // log2: 4 between 3, 6
}

TEST(Surface, LocateClampsOutsideTheGrid)
{
    Surface s = slopedSurface("s", {1_KiB, 64_KiB, 1_MiB},
                              {1, 8, 64}, 800);
    GridCell low = s.locate(0, 0);
    EXPECT_EQ(low.r, 0u);
    EXPECT_EQ(low.c, 0u);
    EXPECT_EQ(low.wr, 0.0);
    EXPECT_EQ(low.wc, 0.0);

    // At and beyond the last grid point: the last interior cell,
    // fully weighted toward its upper corner.
    for (const double ws : {static_cast<double>(1_MiB), 1e12}) {
        const GridCell high = s.locate(ws, ws > 1e9 ? 1000 : 64);
        EXPECT_EQ(high.r, 1u);
        EXPECT_EQ(high.c, 1u);
        EXPECT_EQ(high.wr, 1.0);
        EXPECT_EQ(high.wc, 1.0);
        EXPECT_EQ(s.interpolateAt(high), s.at(1_MiB, 64));
    }
}

TEST(Surface, InterpolateAtAgreesWithInterpolate)
{
    Surface s = slopedSurface("s", {1_KiB, 64_KiB, 1_MiB},
                              {1, 2, 8, 64}, 640);
    for (const double ws : {0.0, 1.0, 512.0, 1024.0, 3000.0, 32768.0,
                            65536.0, 1048575.0, 1048576.0, 4e6})
        for (const double st : {0.0, 1.0, 2.0, 3.0, 8.0, 9.0, 63.0,
                                64.0, 100.0})
            EXPECT_EQ(s.interpolateAt(s.locate(ws, st)),
                      s.interpolate(ws, st))
                << "ws " << ws << " stride " << st;
}

TEST(Surface, SingleRowAndSingleColumnSurfacesLocateOnTheirOnlyAxis)
{
    Surface row = slopedSurface("row", {1_MiB}, {1, 8, 64}, 800);
    GridCell cell = row.locate(1_KiB, 8);
    EXPECT_EQ(cell.r, 0u);
    EXPECT_EQ(cell.wr, 0.0);
    EXPECT_EQ(cell.c, 1u);
    EXPECT_EQ(cell.wc, 0.0);
    EXPECT_EQ(row.interpolateAt(cell), row.at(1_MiB, 8));
    EXPECT_EQ(row.interpolate(1e9, 8), row.at(1_MiB, 8));

    Surface col = slopedSurface("col", {1_KiB, 1_MiB}, {8}, 800);
    cell = col.locate(1_MiB, 1000);
    EXPECT_EQ(cell.r, 0u);
    EXPECT_EQ(cell.wr, 1.0);
    EXPECT_EQ(cell.c, 0u);
    EXPECT_EQ(cell.wc, 0.0);
    EXPECT_EQ(col.interpolateAt(cell), col.at(1_MiB, 8));

    Surface point = slopedSurface("point", {1_MiB}, {8}, 800);
    EXPECT_EQ(point.interpolate(3, 3), point.at(1_MiB, 8));
}

TEST(Surface, SameAxesComparesBothGrids)
{
    const Surface a = slopedSurface("a", {1_KiB, 1_MiB}, {1, 8}, 100);
    EXPECT_TRUE(a.sameAxes(
        slopedSurface("b", {1_KiB, 1_MiB}, {1, 8}, 300)));
    EXPECT_FALSE(a.sameAxes(
        slopedSurface("c", {1_KiB, 2_MiB}, {1, 8}, 100)));
    EXPECT_FALSE(a.sameAxes(
        slopedSurface("d", {1_KiB, 1_MiB}, {1, 16}, 100)));
    EXPECT_FALSE(a.sameAxes(
        slopedSurface("e", {1_KiB, 1_MiB}, {1, 8, 64}, 100)));
}

TEST(SurfaceDeath, InterpolatingAnIncompleteSurfaceIsFatal)
{
    Surface s("partial", {1_KiB, 1_MiB}, {1, 8});
    s.set(1_KiB, 1, 100);
    EXPECT_DEATH(s.interpolate(1_KiB, 1), "surface incomplete");
}

PlanOption
evalOption(const std::string &label, Surface s,
           std::uint64_t block_bytes = 0)
{
    return {label, remote::TransferMethod::Fetch, true, std::move(s),
            block_bytes};
}

// Options on one grid share a cell; a blocked option and an option on
// another grid sit between them, so the loop must re-locate both for
// them and again for the grid-mates that follow.
TEST(OptionEvaluator, PredictEachMatchesEveryOptionsOwnLocate)
{
    const std::vector<std::uint64_t> ws_a = {1_KiB, 64_KiB, 1_MiB};
    const std::vector<std::uint64_t> st_a = {1, 8, 64};
    OptionEvaluator ev;
    ev.add(evalOption("a0", slopedSurface("a0", ws_a, st_a, 100)));
    ev.add(evalOption("a1 blocked",
                      slopedSurface("a1", ws_a, st_a, 120), 32_KiB));
    ev.add(evalOption("a2", slopedSurface("a2", ws_a, st_a, 90)));
    ev.add(evalOption("b", slopedSurface("b", {4_KiB, 256_KiB},
                                         {1, 2, 16}, 70)));
    ev.add(evalOption("a3", slopedSurface("a3", ws_a, st_a, 110)));
    ASSERT_EQ(ev.size(), 5u);

    for (const double ws : {512.0, 4096.0, 32768.0, 50000.0, 1e6, 8e6})
        for (const std::uint64_t st : {1u, 3u, 8u, 20u, 64u, 500u}) {
            std::size_t seen = 0;
            ev.predictEach(ws, st, [&](std::size_t i, double mbs) {
                ASSERT_EQ(i, seen++);
                const PlanOption &o = ev[i];
                EXPECT_EQ(mbs, o.surface->interpolate(
                                   effectiveWorkingSet(o, ws),
                                   static_cast<double>(st)))
                    << o.label << " ws " << ws << " stride " << st;
            });
            EXPECT_EQ(seen, ev.size());
        }
}

TEST(OptionEvaluator, BestSkipsMarkedOptions)
{
    OptionEvaluator ev;
    ev.add(evalOption("slow", slopedSurface("s", {1_KiB}, {1}, 100)));
    ev.add(evalOption("fast", slopedSurface("f", {1_KiB}, {1}, 300)));
    ev.add(evalOption("mid", slopedSurface("m", {1_KiB}, {1}, 200)));

    OptionEvaluator::Choice c = ev.best(1_KiB, 1);
    EXPECT_EQ(c.index, 1u);
    EXPECT_EQ(c.mbs, 300.0);

    const char none[] = {0, 0, 0};
    c = ev.best(1_KiB, 1, none);
    EXPECT_EQ(c.index, 1u);

    const char skip_fast[] = {0, 1, 0};
    c = ev.best(1_KiB, 1, skip_fast);
    EXPECT_EQ(c.index, 2u);
    EXPECT_EQ(c.mbs, 200.0);

    const char only_slow[] = {0, 1, 1};
    EXPECT_EQ(ev.best(1_KiB, 1, only_slow).index, 0u);
}

TEST(OptionEvaluator, WorkingSetAndSecondsHelpers)
{
    TransferQuery q;
    q.bytes = 2_MiB;
    EXPECT_EQ(planQueryWorkingSet(q), static_cast<double>(2_MiB));
    q.wsBytes = 64_KiB;
    EXPECT_EQ(planQueryWorkingSet(q), static_cast<double>(64_KiB));

    Surface s = slopedSurface("s", {1_KiB, 1_MiB}, {1}, 100);
    const PlanOption direct = evalOption("direct", s);
    const PlanOption blocked = evalOption("blocked", s, 32_KiB);
    EXPECT_EQ(effectiveWorkingSet(direct, 1e6), 1e6);
    EXPECT_EQ(effectiveWorkingSet(blocked, 1e6),
              static_cast<double>(32_KiB));
    EXPECT_EQ(effectiveWorkingSet(blocked, 32768.0), 32768.0);
    EXPECT_EQ(effectiveWorkingSet(blocked, 4096.0), 4096.0);

    q.bytes = 100 * 1000 * 1000;
    EXPECT_DOUBLE_EQ(planSeconds(q, 100), 1.0);
    q.bytes = 0;
    EXPECT_EQ(planSeconds(q, 100), 0.0);
}

TEST(OptionEvaluatorDeath, AddRejectsAnOptionWithoutASurface)
{
    OptionEvaluator ev;
    PlanOption bare;
    bare.label = "bare";
    EXPECT_DEATH(ev.add(bare), "'bare' has no surface");
}

TEST(OptionEvaluatorDeath, AddRejectsAnIncompleteSurface)
{
    OptionEvaluator ev;
    Surface s("partial", {1_KiB, 1_MiB}, {1, 8});
    s.set(1_KiB, 1, 100);
    EXPECT_DEATH(ev.add(evalOption("partial", s)),
                 "'partial' has an incomplete surface");
}

TEST(OptionEvaluatorDeath, SkippingEveryOptionIsFatal)
{
    OptionEvaluator ev;
    ev.add(evalOption("a", slopedSurface("a", {1_KiB}, {1}, 100)));
    ev.add(evalOption("b", slopedSurface("b", {1_KiB}, {1}, 200)));
    const char all[] = {1, 1};
    EXPECT_DEATH(ev.best(1_KiB, 1, all),
                 "every planner option is skipped");
}

} // namespace grid_cells
