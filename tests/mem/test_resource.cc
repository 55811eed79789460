/**
 * @file
 * Unit tests for the calendar Resource and the OutstandingWindow.
 */

#include <gtest/gtest.h>

#include "mem/resource.hh"

namespace {

using namespace gasnub;
using gasnub::mem::OutstandingWindow;
using gasnub::mem::Resource;

TEST(Resource, ServesImmediatelyWhenFree)
{
    Resource r;
    EXPECT_EQ(r.acquire(100, 50), 100u);
    EXPECT_EQ(r.freeAt(), 150u);
}

TEST(Resource, QueuesBehindEarlierReservation)
{
    Resource r;
    r.acquire(0, 100);
    EXPECT_EQ(r.acquire(10, 5), 100u);
    EXPECT_EQ(r.freeAt(), 105u);
}

TEST(Resource, WithoutBackfillLateCallsCannotUseGaps)
{
    Resource r;
    r.acquire(0, 10);
    r.acquire(100, 10); // leaves gap [10, 100)
    // A request that could fit in the gap still queues at the end.
    EXPECT_EQ(r.acquire(20, 10), 110u);
}

TEST(Resource, BackfillUsesGaps)
{
    Resource r;
    r.enableBackfill();
    r.acquire(0, 10);
    r.acquire(100, 10); // gap [10, 100)
    EXPECT_EQ(r.acquire(20, 10), 20u);  // fits inside the gap
    EXPECT_EQ(r.acquire(20, 10), 30u);  // remaining gap piece
    EXPECT_EQ(r.acquire(0, 10), 10u);   // head piece
    // Gap now [40, 100): a request too long for it queues at the end.
    EXPECT_EQ(r.acquire(50, 70), 110u);
}

TEST(Resource, BackfillSplitKeepsBothPieces)
{
    Resource r;
    r.enableBackfill();
    r.acquire(0, 10);
    r.acquire(1000, 10); // gap [10, 1000)
    EXPECT_EQ(r.acquire(500, 10), 500u); // splits the gap
    EXPECT_EQ(r.acquire(0, 10), 10u);    // head piece still there
    EXPECT_EQ(r.acquire(600, 10), 600u); // tail piece still there
}

TEST(Resource, BackfillPreservesSingleFlowBehaviour)
{
    Resource plain, calendar;
    calendar.enableBackfill();
    Tick t = 0;
    for (int i = 0; i < 1000; ++i) {
        // Monotone single flow with irregular spacing.
        t += (i * 7) % 90;
        EXPECT_EQ(plain.acquire(t, 13), calendar.acquire(t, 13));
    }
}

TEST(Resource, BackfillCapDropsOldestGap)
{
    Resource r;
    r.enableBackfill(2);
    r.acquire(0, 10);
    r.acquire(20, 10); // gap [10, 20)
    r.acquire(40, 10); // gap [30, 40)
    r.acquire(60, 10); // gap [50, 60): the third gap drops [10, 20)
    EXPECT_EQ(r.acquire(10, 10), 30u); // the oldest gap is gone
    EXPECT_EQ(r.acquire(50, 10), 50u); // the newest is still there
}

TEST(Resource, BackfillSplitPastCapWaitsForNextAppend)
{
    Resource r;
    r.enableBackfill(2);
    r.acquire(0, 10);
    r.acquire(20, 10); // gap [10, 20)
    r.acquire(40, 10); // gap [30, 40): two gaps, at the cap
    // Splitting [10, 20) leaves three gaps, one past the cap.
    EXPECT_EQ(r.acquire(14, 2), 14u);
    // An occupancy-0 request at a gap's start claims nothing, so it
    // probes which gap is the first live one at or after a tick.
    EXPECT_EQ(r.acquire(10, 0), 10u); // claims never drop gaps
    r.acquire(60, 10); // gap [50, 60): four gaps, drop exactly one
    EXPECT_EQ(r.acquire(10, 0), 16u); // [10, 14) dropped, [16, 20) kept
    r.acquire(80, 10); // gap [70, 80): again exactly one dropped
    EXPECT_EQ(r.acquire(10, 0), 30u); // [16, 20) dropped, [30, 40) kept
}

TEST(Resource, ResetClearsEverything)
{
    Resource r;
    r.enableBackfill();
    r.acquire(0, 10);
    r.acquire(100, 10);
    r.reset();
    EXPECT_EQ(r.freeAt(), 0u);
    EXPECT_EQ(r.acquire(0, 5), 0u);
}

TEST(OutstandingWindow, DepthOneSerializesOnCompletion)
{
    OutstandingWindow w(1);
    EXPECT_EQ(w.admit(0), 0u);
    w.complete(100);
    EXPECT_EQ(w.admit(10), 100u); // waits for the outstanding op
    w.complete(200);
    EXPECT_EQ(w.admit(300), 300u); // already retired
}

TEST(OutstandingWindow, DeeperWindowAllowsOverlap)
{
    OutstandingWindow w(2);
    EXPECT_EQ(w.admit(0), 0u);
    w.complete(100);
    EXPECT_EQ(w.admit(10), 10u); // one slot still free
    w.complete(110);
    EXPECT_EQ(w.admit(20), 100u); // oldest must retire first
}

TEST(OutstandingWindow, SteadyStateThroughputIsLatencyOverDepth)
{
    // latency 400, depth 4 -> average steady interval 100.
    OutstandingWindow w(4);
    Tick want = 0;
    Tick first = 0;
    Tick last = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        const Tick issue = w.admit(want);
        w.complete(issue + 400);
        if (i == 0)
            first = issue;
        last = issue;
        want = issue; // back-to-back issue attempts
    }
    const double avg =
        static_cast<double>(last - first) / (n - 1);
    EXPECT_NEAR(avg, 100.0, 2.0);
}

TEST(OutstandingWindow, ResetForgetsInflight)
{
    OutstandingWindow w(1);
    w.admit(0);
    w.complete(1000);
    w.reset();
    EXPECT_EQ(w.admit(5), 5u);
}

} // namespace
