/**
 * @file
 * Unit tests for the per-resource time account and its stats view:
 * resource registration, cumulative busy/stall counters, the armed
 * point window, merging by name, and the ledger's text and JSON dumps.
 * The layered attribution of busy points is covered with the machines
 * in tests/core/test_attribution.cc.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/time_account.hh"

namespace {

using namespace gasnub;
using sim::TimeAccount;
using sim::TimeAccountStat;

TEST(TimeAccount, OverheadIsTheFirstResource)
{
    TimeAccount acct;
    ASSERT_EQ(acct.names().size(), 1u);
    EXPECT_EQ(acct.names()[TimeAccount::overheadRes], "sw.overhead");
    EXPECT_EQ(acct.resource("sw.overhead"), TimeAccount::overheadRes);
}

TEST(TimeAccount, ResourceLookupIsIdempotentAndOrdered)
{
    TimeAccount acct;
    const auto link = acct.resource("noc.link");
    const auto bank = acct.resource("dram.bank");
    EXPECT_EQ(link, 1u);
    EXPECT_EQ(bank, 2u);
    EXPECT_EQ(acct.resource("noc.link"), link);
    EXPECT_EQ(acct.names(),
              (std::vector<std::string>{"sw.overhead", "noc.link",
                                        "dram.bank"}));
}

TEST(TimeAccount, EmptyAndInvertedChargesAreIgnored)
{
    TimeAccount acct;
    const auto r = acct.resource("bus.addr");
    acct.arm();
    acct.charge(r, 50, 50);
    acct.charge(r, 80, 20);
    EXPECT_EQ(acct.busyTicks(r), 0u);
    const TimeAccount::PointAttribution p = acct.finishPoint(100);
    EXPECT_EQ(p.busy[r], 0u);
    EXPECT_EQ(p.attributed[TimeAccount::overheadRes], 100u);
}

TEST(TimeAccount, UnarmedChargesFeedOnlyTheCumulativeCounters)
{
    TimeAccount acct;
    const auto r = acct.resource("engine");
    EXPECT_FALSE(acct.armed());
    acct.charge(r, 0, 40); // before the point: cumulative only
    acct.arm();
    EXPECT_TRUE(acct.armed());
    acct.charge(r, 10, 30);
    EXPECT_EQ(acct.busyTicks(r), 60u);
    const TimeAccount::PointAttribution p = acct.finishPoint(100);
    EXPECT_EQ(p.busy[r], 20u);
    EXPECT_EQ(p.attributed[r], 20u);
    EXPECT_EQ(p.attributed[TimeAccount::overheadRes], 80u);
}

TEST(TimeAccount, IdlePointIsAllOverheadAndDisarms)
{
    TimeAccount acct;
    const auto r = acct.resource("wbq");
    acct.arm();
    const TimeAccount::PointAttribution p = acct.finishPoint(250);
    EXPECT_FALSE(acct.armed());
    EXPECT_EQ(p.elapsed, 250u);
    ASSERT_EQ(p.attributed.size(), 2u);
    EXPECT_EQ(p.attributed[TimeAccount::overheadRes], 250u);
    EXPECT_EQ(p.attributed[r], 0u);

    // A disarmed account captures no intervals for the next point.
    acct.charge(r, 0, 100);
    acct.arm();
    const TimeAccount::PointAttribution q = acct.finishPoint(100);
    EXPECT_EQ(q.busy[r], 0u);
}

TEST(TimeAccount, EqualBusyTiesBreakOnRegistrationOrder)
{
    // Two resources busy over the same window: the one registered
    // first claims it, the other is entirely hidden.
    TimeAccount acct;
    const auto first = acct.resource("dram.bank");
    const auto second = acct.resource("dram.chan");
    acct.arm();
    acct.charge(second, 10, 60);
    acct.charge(first, 10, 60);
    const TimeAccount::PointAttribution p = acct.finishPoint(100);
    EXPECT_EQ(p.busy[first], 50u);
    EXPECT_EQ(p.busy[second], 50u);
    EXPECT_EQ(p.attributed[first], 50u);
    EXPECT_EQ(p.attributed[second], 0u);
    EXPECT_EQ(p.attributed[TimeAccount::overheadRes], 50u);
}

TEST(TimeAccount, StallsAccumulateAndUnknownNamesReadZero)
{
    TimeAccount acct;
    const auto r = acct.resource("cache.port");
    acct.stall(r, 7);
    acct.stall(r, 5);
    EXPECT_EQ(acct.stallTicks(r), 12u);
    EXPECT_EQ(acct.stallTicks("cache.port"), 12u);
    EXPECT_EQ(acct.busyTicks("cache.port"), 0u);
    EXPECT_EQ(acct.stallTicks("no.such"), 0u);
    EXPECT_EQ(acct.busyTicks("no.such"), 0u);
    // Reading an unknown name registers nothing.
    EXPECT_EQ(acct.names().size(), 2u);
}

TEST(TimeAccount, ResetCumulativeKeepsTheResources)
{
    TimeAccount acct;
    const auto r = acct.resource("stream");
    acct.charge(r, 0, 30);
    acct.stall(r, 4);
    acct.resetCumulative();
    EXPECT_EQ(acct.busyTicks(r), 0u);
    EXPECT_EQ(acct.stallTicks(r), 0u);
    EXPECT_EQ(acct.resource("stream"), r);
    EXPECT_EQ(acct.names().size(), 2u);
}

TEST(TimeAccount, MergeFromFoldsByNameAndAddsUnknownNames)
{
    TimeAccount a;
    const auto a_link = a.resource("noc.link");
    a.charge(a_link, 0, 10);

    // Registered in another order, plus a name @a a lacks.
    TimeAccount b;
    const auto b_nic = b.resource("noc.nic");
    const auto b_link = b.resource("noc.link");
    b.charge(b_link, 0, 5);
    b.stall(b_link, 3);
    b.charge(b_nic, 0, 8);

    a.mergeFrom(b);
    EXPECT_EQ(a.busyTicks("noc.link"), 15u);
    EXPECT_EQ(a.stallTicks("noc.link"), 3u);
    EXPECT_EQ(a.busyTicks("noc.nic"), 8u);
    EXPECT_EQ(a.names(),
              (std::vector<std::string>{"sw.overhead", "noc.link",
                                        "noc.nic"}));
    // The source is left as it was.
    EXPECT_EQ(b.busyTicks("noc.link"), 5u);
}

TEST(TimeAccountStat, JsonListsEveryResourceInRegistrationOrder)
{
    stats::Group g("m");
    TimeAccount acct;
    const auto link = acct.resource("noc.link");
    acct.resource("noc.nic");
    acct.charge(link, 0, 9);
    acct.stall(link, 2);
    TimeAccountStat stat(&g, "m.timeAccount", "ledger", &acct);

    std::ostringstream os;
    stat.printJson(os);
    EXPECT_EQ(os.str(),
              "{\"name\":\"m.timeAccount\",\"type\":\"timeAccount\","
              "\"desc\":\"ledger\",\"resources\":["
              "{\"name\":\"sw.overhead\",\"busyTicks\":0,"
              "\"stallTicks\":0},"
              "{\"name\":\"noc.link\",\"busyTicks\":9,"
              "\"stallTicks\":2},"
              "{\"name\":\"noc.nic\",\"busyTicks\":0,"
              "\"stallTicks\":0}]}");
}

TEST(TimeAccountStat, TextDumpSkipsIdleResources)
{
    stats::Group g("m");
    TimeAccount acct;
    const auto bank = acct.resource("dram.bank");
    acct.resource("dram.chan");
    acct.charge(bank, 0, 11);
    TimeAccountStat stat(&g, "m.timeAccount", "ledger", &acct);

    std::ostringstream os;
    stat.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("m.timeAccount[dram.bank] busy=11 stall=0"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("dram.chan"), std::string::npos) << text;
    EXPECT_EQ(text.find("sw.overhead"), std::string::npos) << text;
}

TEST(TimeAccountStat, ResetAndMergeReachTheAccount)
{
    stats::Group ga("a");
    stats::Group gb("b");
    TimeAccount a;
    TimeAccount b;
    a.charge(a.resource("engine"), 0, 6);
    b.charge(b.resource("engine"), 0, 4);
    TimeAccountStat sa(&ga, "a.timeAccount", "ledger", &a);
    TimeAccountStat sb(&gb, "b.timeAccount", "ledger", &b);

    sa.mergeFrom(sb);
    EXPECT_EQ(a.busyTicks("engine"), 10u);
    sa.reset();
    EXPECT_EQ(a.busyTicks("engine"), 0u);
    EXPECT_EQ(b.busyTicks("engine"), 4u);
}

} // namespace
