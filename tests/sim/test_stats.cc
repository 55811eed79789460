/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace {

using namespace gasnub::stats;
namespace json = gasnub::json;

TEST(Scalar, CountsAndResets)
{
    Group g("test");
    Scalar s(&g, "test.counter", "a counter");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    ++s;
    s += 3;
    EXPECT_EQ(s.value(), 5.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
    s = 42;
    EXPECT_EQ(s.value(), 42.0);
}

TEST(Group, DumpContainsNamesValuesAndDescriptions)
{
    Group g("grp");
    Scalar s(&g, "grp.hits", "hit count");
    s += 7;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("grp.hits"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("hit count"), std::string::npos);
}

TEST(Group, NestedGroupsDumpAndReset)
{
    Group parent("parent");
    Group child("child");
    parent.addChild(&child);
    Scalar s(&child, "child.n", "nested");
    s += 3;
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("child.n"), std::string::npos);
    parent.resetAll();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Group, FindLocatesStatsRecursively)
{
    Group parent("parent");
    Group child("child");
    parent.addChild(&child);
    Scalar a(&parent, "a", "top");
    Scalar b(&child, "b", "nested");
    EXPECT_EQ(parent.find("a"), &a);
    EXPECT_EQ(parent.find("b"), &b);
    EXPECT_EQ(parent.find("missing"), nullptr);
}

TEST(Group, RemoveDeregistersStat)
{
    Group g("g");
    Scalar s(&g, "s", "d");
    g.remove(&s);
    EXPECT_EQ(g.find("s"), nullptr);
}

TEST(Vector, ElementsSubnamesAndTotal)
{
    Group g("g");
    Vector v(&g, "g.banks", "per-bank accesses", 4);
    EXPECT_EQ(v.size(), 4u);
    v[0] += 1;
    v[2] += 2.5;
    v[3] += 1;
    EXPECT_DOUBLE_EQ(v.value(2), 2.5);
    EXPECT_DOUBLE_EQ(v.total(), 4.5);
    v.subname(2, "bank2");
    std::ostringstream os;
    v.print(os);
    EXPECT_NE(os.str().find("bank2"), std::string::npos);
    v.reset();
    EXPECT_DOUBLE_EQ(v.total(), 0.0);
}

TEST(Formula, EvaluatesLazily)
{
    Group g("g");
    Scalar hits(&g, "g.hits", "hits");
    Scalar misses(&g, "g.misses", "misses");
    Formula rate(&g, "g.hitRate", "hit rate", [&] {
        const double n = hits.value() + misses.value();
        return n > 0 ? hits.value() / n : 0.0;
    });
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);
    hits += 3;
    misses += 1;
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);
    // reset() on a formula is a no-op; the inputs carry the state.
    rate.reset();
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);
}

TEST(IntervalBandwidth, BucketsByTime)
{
    Group g("g");
    // 1024-tick buckets (already a power of two).
    IntervalBandwidth bw(&g, "g.bw", "bytes per bucket", 1024, 16);
    EXPECT_EQ(bw.bucketTicks(), 1024u);
    bw.addBytes(0, 100);
    bw.addBytes(1023, 28);
    bw.addBytes(1024, 64);
    EXPECT_EQ(bw.buckets(), 2u);
    EXPECT_EQ(bw.bucketBytes(0), 128u);
    EXPECT_EQ(bw.bucketBytes(1), 64u);
    EXPECT_EQ(bw.bucketBytes(5), 0u);
    EXPECT_EQ(bw.totalBytes(), 192u);
    EXPECT_EQ(bw.clamped(), 0u);
}

TEST(IntervalBandwidth, RoundsBucketWidthUpToPow2)
{
    Group g("g");
    IntervalBandwidth bw(&g, "g.bw", "d", 1000, 16);
    EXPECT_EQ(bw.bucketTicks(), 1024u);
}

TEST(IntervalBandwidth, ClampsToSeriesBound)
{
    Group g("g");
    IntervalBandwidth bw(&g, "g.bw", "d", 1024, 4);
    bw.addBytes(100 * 1024, 8); // far past the last bucket
    bw.addBytes(200 * 1024, 8);
    EXPECT_EQ(bw.buckets(), 4u);
    EXPECT_EQ(bw.bucketBytes(3), 16u);
    EXPECT_EQ(bw.clamped(), 2u);
    bw.reset();
    EXPECT_EQ(bw.totalBytes(), 0u);
    EXPECT_EQ(bw.clamped(), 0u);
    EXPECT_EQ(bw.buckets(), 0u);
}

TEST(Group, DumpJsonIsWellFormedAndStable)
{
    Group parent("machine");
    Group child("node0");
    parent.addChild(&child);
    Scalar s(&parent, "machine.runs", "runs");
    s += 2;
    Vector v(&child, "node0.banks", "banks", 2);
    v[1] += 5;
    Formula f(&child, "node0.ratio", "ratio", [] { return 0.5; });
    IntervalBandwidth bw(&child, "node0.bw", "bw", 1024, 8);
    bw.addBytes(10, 64);

    auto dump = [&] {
        std::ostringstream os;
        parent.dumpJson(os);
        return os.str();
    };
    const std::string out = dump();
    EXPECT_NE(out.find("\"name\":\"machine\""), std::string::npos);
    EXPECT_NE(out.find("\"machine.runs\""), std::string::npos);
    EXPECT_NE(out.find("\"node0.banks\""), std::string::npos);
    EXPECT_NE(out.find("\"node0.ratio\""), std::string::npos);
    EXPECT_NE(out.find("\"node0.bw\""), std::string::npos);
    EXPECT_NE(out.find("\"groups\""), std::string::npos);
    // Balanced braces and brackets (cheap well-formedness check —
    // the exporter emits no strings containing these characters here).
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
    // Byte-stable across identical dumps.
    EXPECT_EQ(out, dump());
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlBytes)
{
    std::ostringstream os;
    os << json::quoted("a\"b\\c\nd\te\rf\x01g");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"");
}

TEST(JsonWriter, NumbersAreIntegersNullOrRoundTripFractions)
{
    auto text = [](double v) {
        std::ostringstream os;
        os << json::number(v);
        return os.str();
    };
    EXPECT_EQ(text(42.0), "42");
    EXPECT_EQ(text(-3.0), "-3");
    EXPECT_EQ(text(1e15), "1000000000000000");
    EXPECT_EQ(text(std::nan("")), "null");
    EXPECT_EQ(text(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(text(-std::numeric_limits<double>::infinity()), "null");
    for (const double v : {0.1, 2.0 / 3.0, -1e-300, 123456.789}) {
        const std::string t = text(v);
        EXPECT_EQ(std::stod(t), v) << t;
    }
    // The caller's stream formatting survives a number.
    std::ostringstream os;
    os.precision(3);
    os << json::number(0.1) << ' ' << 0.123456;
    EXPECT_EQ(os.str(), "0.10000000000000001 0.123");
}

TEST(Histogram, BucketBoundariesArePowersOfTwo)
{
    // Bucket i holds [2^i, 2^(i+1)): 1 is alone in bucket 0; 2 and 3
    // share bucket 1; 4..7 share bucket 2.
    EXPECT_EQ(Histogram::bucketOf(1), 0u);
    EXPECT_EQ(Histogram::bucketOf(2), 1u);
    EXPECT_EQ(Histogram::bucketOf(3), 1u);
    EXPECT_EQ(Histogram::bucketOf(4), 2u);
    EXPECT_EQ(Histogram::bucketOf(7), 2u);
    EXPECT_EQ(Histogram::bucketOf(8), 3u);
    EXPECT_EQ(Histogram::bucketOf((std::uint64_t(1) << 40) - 1), 39u);
    EXPECT_EQ(Histogram::bucketOf(std::uint64_t(1) << 40), 40u);

    Group g("g");
    Histogram h(&g, "g.h", "d");
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(0, 4); // zeros are counted apart, not in bucket 0
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), 6u);
    EXPECT_EQ(h.zeros(), 4u);
    EXPECT_EQ(h.minSeen(), 0u);
    EXPECT_EQ(h.maxSeen(), 3u);
    ASSERT_EQ(h.buckets().size(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
}

TEST(Histogram, EmptyJsonShape)
{
    Group g("g");
    Histogram h(&g, "g.h", "d");
    std::ostringstream os;
    h.printJson(os);
    EXPECT_EQ(os.str(),
              "{\"name\":\"g.h\",\"type\":\"histogram\","
              "\"desc\":\"d\",\"count\":0,\"sum\":0,\"min\":0,"
              "\"max\":0,\"zeros\":0,\"buckets\":[]}");
}

TEST(Histogram, ResetClearsEverything)
{
    Group g("g");
    Histogram h(&g, "g.h", "d");
    h.sample(100, 3);
    h.sample(0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.zeros(), 0u);
    EXPECT_TRUE(h.buckets().empty());
    // Same JSON shape as a never-sampled histogram.
    std::ostringstream after;
    h.printJson(after);
    EXPECT_NE(after.str().find("\"count\":0"), std::string::npos);
    EXPECT_NE(after.str().find("\"buckets\":[]"), std::string::npos);
}

namespace {

/** JSON of a histogram built by merging @p parts in the given order. */
std::string
mergedJson(const std::vector<std::vector<std::uint64_t>> &parts,
           const std::vector<std::size_t> &order)
{
    Group g("g");
    Histogram acc(&g, "g.h", "d");
    std::vector<std::unique_ptr<Histogram>> hs;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        hs.push_back(std::make_unique<Histogram>(
            &g, "g.h", "d"));
        for (std::uint64_t v : parts[i])
            hs.back()->sample(v);
    }
    for (std::size_t i : order)
        acc.mergeFrom(*hs[i]);
    std::ostringstream os;
    acc.printJson(os);
    return os.str();
}

} // namespace

TEST(Histogram, MergeIsOrderIndependentByteForByte)
{
    const std::vector<std::vector<std::uint64_t>> parts = {
        {1, 5, 1000, 0},
        {},
        {7, 7, 7, 123456789},
        {2},
    };
    const std::string a = mergedJson(parts, {0, 1, 2, 3});
    const std::string b = mergedJson(parts, {3, 2, 1, 0});
    const std::string c = mergedJson(parts, {2, 0, 3, 1});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    // And associativity: ((p0+p1)+p2)+p3 vs p0+((p1+p2)+p3) by
    // pre-merging pairs.
    Group g("g");
    Histogram left(&g, "g.h", "d"), right(&g, "g.h", "d");
    Histogram p01(&g, "g.h", "d"), p123(&g, "g.h", "d");
    std::vector<std::unique_ptr<Histogram>> hs;
    for (const auto &p : parts) {
        hs.push_back(std::make_unique<Histogram>(&g, "g.h", "d"));
        for (std::uint64_t v : p)
            hs.back()->sample(v);
    }
    p01.mergeFrom(*hs[0]);
    p01.mergeFrom(*hs[1]);
    left.mergeFrom(p01);
    left.mergeFrom(*hs[2]);
    left.mergeFrom(*hs[3]);
    p123.mergeFrom(*hs[1]);
    p123.mergeFrom(*hs[2]);
    p123.mergeFrom(*hs[3]);
    right.mergeFrom(*hs[0]);
    right.mergeFrom(p123);
    std::ostringstream osl, osr;
    left.printJson(osl);
    right.printJson(osr);
    EXPECT_EQ(osl.str(), osr.str());
    EXPECT_EQ(osl.str(), a);
}

TEST(HistogramPercentile, EmptyHistogramIsZero)
{
    Histogram h(nullptr, "h", "d");
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramPercentile, EndpointsClampToMinAndMax)
{
    Histogram h(nullptr, "h", "d");
    h.sample(100);
    h.sample(1000);
    h.sample(40000);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 40000.0);
}

TEST(HistogramPercentile, SingleSampleIsThatSampleAtAnyP)
{
    Histogram h(nullptr, "h", "d");
    h.sample(777);
    for (double p : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 777.0) << p;
}

TEST(HistogramPercentile, ZerosOccupyTheLowRanks)
{
    Histogram h(nullptr, "h", "d");
    h.sample(0, 90);
    h.sample(1 << 20, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_GT(h.percentile(0.95), 0.0);
}

TEST(HistogramPercentile, InterpolatesWithinALog2Bucket)
{
    // 100 samples in [1024, 2048): rank p=0.5 lands mid-bucket, and
    // the linear model puts it near 1024 + 0.5*1024.  The estimate is
    // a model, not the sample — assert the bucket bound and
    // monotonicity, which is what tail reporting relies on.
    Histogram h(nullptr, "h", "d");
    for (int i = 0; i < 100; ++i)
        h.sample(1024 + 10 * static_cast<std::uint64_t>(i));
    const double p50 = h.percentile(0.50);
    EXPECT_GE(p50, 1024.0);
    EXPECT_LT(p50, 2048.0);
    double last = 0;
    for (double p : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, last) << p;
        last = v;
    }
}

TEST(HistogramPercentile, EndpointsWithZeroSamples)
{
    // p=0 must report the true minimum even when that minimum is a
    // zero-valued sample (zeros live outside the log2 buckets).
    Histogram h(nullptr, "h", "d");
    h.sample(0);
    h.sample(500);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 500.0);
}

TEST(HistogramPercentile, SurvivesAMergeExactly)
{
    // Merged per-thread histograms must report the same percentiles
    // as one histogram fed everything — the loadgen contract.
    Histogram all(nullptr, "h", "d");
    Histogram a(nullptr, "h", "d"), b(nullptr, "h", "d");
    for (std::uint64_t v = 1; v <= 2000; ++v) {
        all.sample(v * 3);
        (v % 2 ? a : b).sample(v * 3);
    }
    Histogram merged(nullptr, "h", "d");
    merged.mergeFrom(a);
    merged.mergeFrom(b);
    for (double p : {0.5, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(merged.percentile(p), all.percentile(p))
            << p;
}

} // namespace
