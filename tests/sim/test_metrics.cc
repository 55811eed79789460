/**
 * @file
 * Tests for the live-telemetry registry (sim/metrics.hh): counter and
 * gauge semantics, histogram percentile parity with stats::Histogram,
 * rolling-window rotation driven on a synthetic seconds axis, name
 * interning, and both exposition formats.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace {

using namespace gasnub;

TEST(MetricsCounter, AddsAreExactAcrossThreads)
{
    metrics::Registry reg;
    metrics::Counter &c = reg.counter("t.counter", "test");
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPer = 50000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPer; ++i)
                c.add(1);
        });
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPer);
}

TEST(MetricsGauge, SetAndAddAreLastValueSemantics)
{
    metrics::Registry reg;
    metrics::Gauge &g = reg.gauge("t.gauge", "test");
    EXPECT_EQ(g.value(), 0);
    g.set(42);
    EXPECT_EQ(g.value(), 42);
    g.add(-50);
    EXPECT_EQ(g.value(), -8);
    g.set(7);
    EXPECT_EQ(g.value(), 7);
}

TEST(MetricsRegistry, InternsByNameAndCounts)
{
    metrics::Registry reg;
    metrics::Counter &a = reg.counter("x", "first");
    metrics::Counter &b = reg.counter("x", "second registration");
    EXPECT_EQ(&a, &b);
    reg.gauge("y", "a gauge");
    reg.histogram("z", "a histogram");
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_NE(reg.find("x"), nullptr);
    EXPECT_EQ(reg.find("x")->name(), "x");
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(MetricsRegistryDeath, KindCollisionIsFatal)
{
    metrics::Registry reg;
    reg.counter("dual", "a counter");
    EXPECT_EXIT(reg.gauge("dual", "now a gauge"),
                ::testing::ExitedWithCode(1), "dual");
}

/**
 * The histogram must agree with stats::Histogram's percentile model
 * (same log2 buckets, same interpolation, same [min, max] clamp) so
 * dashboards and end-of-run stats never disagree about a quantile;
 * its windows use the same model unclamped.
 */
TEST(MetricsHistogram, PercentileMatchesStatsHistogram)
{
    metrics::Registry reg;
    metrics::Histogram &mh = reg.histogram("h", "test");
    stats::Histogram sh(nullptr, "h", "reference");
    const std::uint64_t samples[] = {0,  1,   3,    7,     8,
                                     17, 100, 1000, 65536, 1000000};
    for (std::uint64_t v : samples) {
        mh.sample(v, 0);
        sh.sample(v);
    }
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(mh.percentile(p), sh.percentile(p))
            << "p=" << p;
    EXPECT_EQ(mh.count(), 10u);
    EXPECT_EQ(mh.minSeen(), 0u);
    EXPECT_EQ(mh.maxSeen(), 1000000u);

    const metrics::Histogram::Window w = mh.window(1, 0);
    EXPECT_EQ(w.count, 10u);
    const auto unclamped = [&](double p) {
        return stats::Histogram::interpolate(sh.buckets(), sh.zeros(),
                                             sh.count(), p);
    };
    EXPECT_DOUBLE_EQ(w.p50, unclamped(0.50));
    EXPECT_DOUBLE_EQ(w.p95, unclamped(0.95));
    EXPECT_DOUBLE_EQ(w.p99, unclamped(0.99));
    // p99 falls in the top sample's bucket [2^19, 2^20), whose
    // interpolation runs past the 1000000 maximum: windows do not
    // clamp, the cumulative percentile does.
    EXPECT_GT(w.p99, 1000000.0);
    EXPECT_DOUBLE_EQ(mh.percentile(0.99), 1000000.0);
}

TEST(MetricsHistogram, EmptyAndEndpointEdgeCases)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("h", "test");
    EXPECT_EQ(h.percentile(0.5), 0.0);
    h.sample(100, 0);
    EXPECT_EQ(h.percentile(0.0), 100.0);
    EXPECT_EQ(h.percentile(0.5), 100.0);
    EXPECT_EQ(h.percentile(1.0), 100.0);
}

TEST(MetricsHistogram, WindowsRotateOnTheSecondsAxis)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("h", "test");
    // Three seconds of traffic: 10 samples at t=100, 20 at t=101,
    // 40 at t=102.
    for (int i = 0; i < 10; ++i)
        h.sample(8, 100);
    for (int i = 0; i < 20; ++i)
        h.sample(8, 101);
    for (int i = 0; i < 40; ++i)
        h.sample(8, 102);

    const metrics::Histogram::Window w1 = h.window(1, 102);
    EXPECT_EQ(w1.count, 40u);
    EXPECT_DOUBLE_EQ(w1.rate, 40.0);

    const metrics::Histogram::Window w10 = h.window(10, 102);
    EXPECT_EQ(w10.count, 70u);
    EXPECT_DOUBLE_EQ(w10.rate, 7.0);

    // A window ending before the traffic sees none of it.
    EXPECT_EQ(h.window(1, 99).count, 0u);
    // Cumulative totals never roll off.
    EXPECT_EQ(h.count(), 70u);
}

TEST(MetricsHistogram, OldSlotsExpireFromWindows)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("h", "test");
    h.sample(5, 0);
    EXPECT_EQ(h.window(1, 0).count, 1u);
    // Far in the future the ring has wrapped past second 0; the slot
    // stamp no longer matches, so the window is empty but the
    // cumulative count survives.
    EXPECT_EQ(h.window(1, 1000).count, 0u);
    EXPECT_EQ(h.window(60, 1000).count, 0u);
    EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsHistogram, SlotReuseClearsTheOldSecond)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("h", "test");
    h.sample(5, 3);
    // Second 3 + kSlots lands on the same ring slot; its counts must
    // not leak into the new second.
    const std::int64_t later =
        3 + static_cast<std::int64_t>(metrics::Histogram::kSlots);
    h.sample(5, later);
    h.sample(5, later);
    EXPECT_EQ(h.window(1, later).count, 2u);
}

TEST(MetricsPrometheus, NameSanitization)
{
    EXPECT_EQ(metrics::prometheusName("serve.cache.hits"),
              "gasnub_serve_cache_hits");
    EXPECT_EQ(metrics::prometheusName("a-b c/d"), "gasnub_a_b_c_d");
    EXPECT_EQ(metrics::prometheusName("ok_name9"),
              "gasnub_ok_name9");
}

TEST(MetricsPrometheus, ExpositionHasHelpTypeAndValues)
{
    metrics::Registry reg;
    reg.counter("req", "requests").add(5);
    reg.gauge("depth", "queue depth").set(-2);
    metrics::Histogram &h = reg.histogram("lat", "latency");
    h.sample(10, 0);
    std::ostringstream os;
    reg.exportPrometheus(os, 0);
    const std::string text = os.str();
    EXPECT_NE(text.find("# HELP gasnub_req requests"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gasnub_req counter"),
              std::string::npos);
    EXPECT_NE(text.find("gasnub_req 5"), std::string::npos);
    EXPECT_NE(text.find("gasnub_depth -2"), std::string::npos);
    EXPECT_NE(text.find("# TYPE gasnub_lat summary"),
              std::string::npos);
    EXPECT_NE(text.find("gasnub_lat{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("gasnub_lat_count 1"), std::string::npos);
    EXPECT_NE(text.find("gasnub_lat_window{window=\"10s\","
                        "stat=\"p99\"}"),
              std::string::npos);
}

TEST(MetricsJson, ExpositionIsOneObjectAndCompactIsOneLine)
{
    metrics::Registry reg;
    reg.counter("req", "requests").add(3);
    reg.histogram("lat", "latency").sample(7, 0);
    reg.gauge("quote", "a \"quoted\"\nword");
    std::ostringstream pretty, compact;
    reg.exportJson(pretty, 0);
    reg.exportJson(compact, 0, true);
    EXPECT_NE(pretty.str().find("\"name\": \"req\""),
              std::string::npos);
    EXPECT_NE(pretty.str().find("\"value\": 3"), std::string::npos);
    EXPECT_NE(pretty.str().find("\"windows\""), std::string::npos);
    // Names and descriptions go through the shared JSON writer.
    EXPECT_NE(
        pretty.str().find("\"desc\": \"a \\\"quoted\\\"\\nword\""),
        std::string::npos);
    // Compact form is a single line (the serve control-stream dump).
    const std::string c = compact.str();
    EXPECT_EQ(c.find('\n'), std::string::npos);
    EXPECT_EQ(c.front(), '{');
    EXPECT_EQ(c.back(), '}');
}

TEST(MetricsHistogram, ConcurrentSamplingKeepsTotalsExact)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("h", "test");
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPer = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&h, t] {
            for (std::uint64_t i = 0; i < kPer; ++i)
                h.sample(i % 1024, t);
        });
    for (std::thread &t : pool)
        t.join();
    // Accounting-grade totals: exact regardless of scheduling.
    EXPECT_EQ(h.count(), kThreads * kPer);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kPer; ++i)
        sum += i % 1024;
    EXPECT_EQ(h.sum(), kThreads * sum);
}

} // namespace
