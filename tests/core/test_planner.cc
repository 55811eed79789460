/**
 * @file
 * Hardening tests for the transfer planner: defined, diagnosable
 * behaviour on degenerate queries, blockBytes blocking, stable
 * tie-breaking and the skip mask.
 */

#include <gtest/gtest.h>

#include "core/planner.hh"
#include "core/surface.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::core;

/** A flat surface: the same bandwidth everywhere. */
Surface
flatSurface(const std::string &name, double mbs)
{
    Surface s(name, {1_KiB, 1_MiB}, {1, 8, 64});
    for (std::uint64_t ws : s.workingSets())
        for (std::uint64_t st : s.strides())
            s.set(ws, st, mbs);
    return s;
}

/** Bandwidth falls with working set (cache-friendly option). */
Surface
fallingSurface(const std::string &name, double small_mbs,
               double big_mbs)
{
    Surface s(name, {1_KiB, 1_MiB}, {1, 8, 64});
    for (std::uint64_t ws : s.workingSets())
        for (std::uint64_t st : s.strides())
            s.set(ws, st, ws <= 1_KiB ? small_mbs : big_mbs);
    return s;
}

PlanOption
option(const std::string &label, double mbs,
       std::uint64_t block_bytes = 0)
{
    return {label, remote::TransferMethod::Fetch, true,
            flatSurface(label, mbs), block_bytes};
}

TransferQuery
query(std::uint64_t bytes, std::uint64_t stride = 8)
{
    TransferQuery q;
    q.bytes = bytes;
    q.wsBytes = bytes;
    q.stride = stride;
    return q;
}

TEST(PlannerHardening, EmptyPlannerIsAClearError)
{
    TransferPlanner p;
    EXPECT_EXIT(p.best(query(1_MiB)),
                ::testing::ExitedWithCode(1), "no registered options");
    EXPECT_EXIT(p.predictAll(query(1_MiB)),
                ::testing::ExitedWithCode(1), "no registered options");
}

TEST(PlannerHardening, ZeroWordQueryIsAClearError)
{
    TransferPlanner p;
    p.addOption(option("only", 100));
    TransferQuery q; // bytes == 0 && wsBytes == 0
    q.stride = 8;
    EXPECT_EXIT(p.best(q), ::testing::ExitedWithCode(1),
                "zero words");
}

TEST(PlannerHardening, ZeroStrideIsAClearError)
{
    TransferPlanner p;
    p.addOption(option("only", 100));
    TransferQuery q = query(1_MiB);
    q.stride = 0;
    EXPECT_EXIT(p.best(q), ::testing::ExitedWithCode(1), "stride 0");
}

// wsBytes-only queries (bytes == 0) are legal: the working set alone
// places the query on the surface; only predictedSeconds needs bytes.
TEST(PlannerHardening, WorkingSetOnlyQueryIsLegal)
{
    TransferPlanner p;
    p.addOption(option("only", 100));
    TransferQuery q;
    q.wsBytes = 1_MiB;
    q.stride = 8;
    const Plan plan = p.best(q);
    EXPECT_EQ(plan.label, "only");
    EXPECT_DOUBLE_EQ(plan.predictedSeconds, 0.0);
}

TEST(PlannerBlocking, BlockBytesCapsTheEffectiveWorkingSet)
{
    TransferPlanner p;
    // Unblocked, the falling option drops to 10 MB/s at 1 MiB; with
    // blockBytes = 1 KiB it keeps its cache-resident 500 MB/s row.
    PlanOption blocked{"blocked", remote::TransferMethod::Fetch, true,
                       fallingSurface("blocked", 500, 10), 1_KiB};
    p.addOption(blocked);
    p.addOption(option("flat", 100));

    const std::vector<double> mbs = p.predictAll(query(1_MiB));
    EXPECT_DOUBLE_EQ(mbs[0], 500); // capped at the 1 KiB row
    EXPECT_DOUBLE_EQ(mbs[1], 100);
    EXPECT_EQ(p.best(query(1_MiB)).label, "blocked");

    // Without blocking the same surface loses.
    TransferPlanner q;
    q.addOption({"unblocked", remote::TransferMethod::Fetch, true,
                 fallingSurface("unblocked", 500, 10), 0});
    q.addOption(option("flat", 100));
    EXPECT_EQ(q.best(query(1_MiB)).label, "flat");
}

TEST(PlannerTieBreaking, FirstRegisteredOptionWinsTies)
{
    TransferPlanner p;
    p.addOption(option("first", 100));
    p.addOption(option("second", 100));
    p.addOption(option("third", 100));
    const Plan plan = p.best(query(1_MiB));
    EXPECT_EQ(plan.optionIndex, 0u);
    EXPECT_EQ(plan.label, "first");

    // A strictly better later option still wins.
    p.addOption(option("fourth", 101));
    EXPECT_EQ(p.best(query(1_MiB)).label, "fourth");
}

TEST(PlannerTieBreaking, OrderIndependentOfEqualTrailingOptions)
{
    // The winner must not depend on how many equal options follow.
    for (int extra = 0; extra < 3; ++extra) {
        TransferPlanner p;
        p.addOption(option("winner", 200));
        for (int i = 0; i < extra; ++i)
            p.addOption(option("tied", 200));
        EXPECT_EQ(p.best(query(1_MiB)).label, "winner");
    }
}

TEST(PlannerSkip, SkippedOptionsNeverWin)
{
    TransferPlanner p;
    p.addOption(option("fast", 200));
    p.addOption(option("slow", 100));
    p.addOption(option("mid", 150));
    const char skip_fast[] = {1, 0, 0};
    const Plan plan = p.best(query(1_MiB), skip_fast);
    EXPECT_EQ(plan.optionIndex, 2u);
    EXPECT_EQ(plan.label, "mid");
    EXPECT_DOUBLE_EQ(plan.predictedMBs, 150);
    const char none[] = {0, 0, 0};
    EXPECT_EQ(p.best(query(1_MiB), none).label, "fast");
}

} // namespace
