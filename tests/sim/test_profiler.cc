/**
 * @file
 * Tests for the host-side scoped profiler (sim/profiler.hh): the
 * self/total nesting invariant, deterministic cross-thread merging
 * through a ThreadPool, zero side effects when disabled, and the
 * exporter formats.  The Profiler is a process singleton, so every
 * test uses zone names unique to itself and resets counters first.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/pool.hh"
#include "sim/profiler.hh"

namespace {

using namespace gasnub;

/** Spin for roughly @p us of wall time (zones need nonzero spans). */
void
spin(unsigned us)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
}

const prof::ZoneStats *
findZone(const std::vector<prof::ZoneStats> &zones,
         const std::string &path)
{
    for (const prof::ZoneStats &z : zones)
        if (z.path == path)
            return &z;
    return nullptr;
}

/** Enable around a test body; leave the profiler off afterwards. */
struct ScopedProfiling
{
    ScopedProfiling()
    {
        prof::Profiler::enable(true);
        prof::Profiler::instance().reset();
    }
    ~ScopedProfiling() { prof::Profiler::enable(false); }
};

TEST(Profiler, DisabledRecordsNothing)
{
    prof::Profiler::enable(false);
    prof::Profiler::instance().reset();
    const std::vector<prof::ZoneStats> before =
        prof::Profiler::instance().merged();
    {
        GASNUB_PROF_ZONE("off.outer");
        GASNUB_PROF_ZONE("off.inner");
        spin(50);
    }
    const std::vector<prof::ZoneStats> after =
        prof::Profiler::instance().merged();
    // No new zones, no new counts: the disabled path must not touch
    // the registry at all (one atomic load per zone).
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].path, after[i].path);
        EXPECT_EQ(before[i].calls, after[i].calls);
        EXPECT_EQ(before[i].totalNs, after[i].totalNs);
    }
    EXPECT_EQ(findZone(after, "off.outer"), nullptr);
}

TEST(Profiler, NestingSelfTotalInvariant)
{
    ScopedProfiling on;
    {
        GASNUB_PROF_ZONE("nest.outer");
        spin(200);
        for (int i = 0; i < 3; ++i) {
            GASNUB_PROF_ZONE("nest.inner");
            spin(100);
        }
    }
    const std::vector<prof::ZoneStats> zones =
        prof::Profiler::instance().merged();
    const prof::ZoneStats *outer = findZone(zones, "nest.outer");
    const prof::ZoneStats *inner =
        findZone(zones, "nest.outer;nest.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(inner->calls, 3u);
    EXPECT_EQ(outer->depth, 0u);
    EXPECT_EQ(inner->depth, 1u);
    // A leaf's self time is its total; a parent's self time is its
    // total minus the children's totals, never negative.
    EXPECT_EQ(inner->selfNs, inner->totalNs);
    EXPECT_GE(outer->totalNs, inner->totalNs);
    EXPECT_EQ(outer->selfNs, outer->totalNs - inner->totalNs);
    EXPECT_GT(outer->selfNs, 0u);
}

TEST(Profiler, SiblingZonesFoldByName)
{
    ScopedProfiling on;
    for (int i = 0; i < 5; ++i) {
        GASNUB_PROF_ZONE("fold.same");
        spin(20);
    }
    const std::vector<prof::ZoneStats> zones =
        prof::Profiler::instance().merged();
    const prof::ZoneStats *z = findZone(zones, "fold.same");
    ASSERT_NE(z, nullptr);
    EXPECT_EQ(z->calls, 5u);
}

TEST(Profiler, CrossThreadMergeIsExactAndDeterministic)
{
    ScopedProfiling on;
    constexpr std::size_t kJobs = 64;
    {
        sim::ThreadPool pool(4);
        pool.parallelFor(kJobs, [](int, std::size_t) {
            GASNUB_PROF_ZONE("mt.job");
            {
                GASNUB_PROF_ZONE("mt.leaf");
                spin(10);
            }
            {
                GASNUB_PROF_ZONE("mt.leaf");
                spin(10);
            }
        });
    }
    // The report's per-thread lines sum each thread's top-level zones;
    // here those are the mt.job zones, so every job is accounted to
    // exactly one thread, stolen or not.
    std::ostringstream text;
    prof::Profiler::instance().report(text);
    std::istringstream lines(text.str());
    std::string line;
    std::uint64_t jobs = 0;
    int busyThreads = 0;
    while (std::getline(lines, line)) {
        double seconds = 0;
        unsigned long long calls = 0;
        unsigned thread = 0;
        if (std::sscanf(line.c_str(), "%lf %llu thread %u", &seconds,
                        &calls, &thread) != 3)
            continue;
        jobs += calls;
        busyThreads += calls > 0;
    }
    EXPECT_EQ(jobs, kJobs);
    EXPECT_GE(busyThreads, 1);
    EXPECT_LE(busyThreads, 4);
    const std::vector<prof::ZoneStats> zones =
        prof::Profiler::instance().merged();
    const prof::ZoneStats *job = findZone(zones, "mt.job");
    const prof::ZoneStats *leaf = findZone(zones, "mt.job;mt.leaf");
    ASSERT_NE(job, nullptr);
    ASSERT_NE(leaf, nullptr);
    // However the pool scheduled (or stole) the jobs, the merged call
    // counts are exact.
    EXPECT_EQ(job->calls, kJobs);
    EXPECT_EQ(leaf->calls, 2 * kJobs);
    EXPECT_GE(job->totalNs, leaf->totalNs);

    // Merging is a pure fold: a second merged() pass is identical.
    const std::vector<prof::ZoneStats> again =
        prof::Profiler::instance().merged();
    ASSERT_EQ(zones.size(), again.size());
    for (std::size_t i = 0; i < zones.size(); ++i) {
        EXPECT_EQ(zones[i].path, again[i].path);
        EXPECT_EQ(zones[i].calls, again[i].calls);
        EXPECT_EQ(zones[i].totalNs, again[i].totalNs);
        EXPECT_EQ(zones[i].selfNs, again[i].selfNs);
    }
}

TEST(Profiler, ResetZeroesCounters)
{
    ScopedProfiling on;
    {
        GASNUB_PROF_ZONE("reset.zone");
        spin(20);
    }
    ASSERT_NE(findZone(prof::Profiler::instance().merged(),
                       "reset.zone"),
              nullptr);
    prof::Profiler::instance().reset();
    for (const prof::ZoneStats &z :
         prof::Profiler::instance().merged()) {
        EXPECT_EQ(z.calls, 0u);
        EXPECT_EQ(z.totalNs, 0u);
    }
}

TEST(Profiler, Exporters)
{
    ScopedProfiling on;
    {
        GASNUB_PROF_ZONE("exp.outer");
        GASNUB_PROF_ZONE("exp.leaf");
        spin(1200);
    }
    const prof::Profiler &p = prof::Profiler::instance();

    std::ostringstream text;
    p.report(text);
    EXPECT_NE(text.str().find("== profile:"), std::string::npos);
    EXPECT_NE(text.str().find("exp.outer;exp.leaf"),
              std::string::npos);

    std::ostringstream json;
    p.reportJson(json);
    EXPECT_EQ(json.str().find("\"schema\":\"gasnub-profile-1\""), 1u);
    EXPECT_NE(json.str().find("\"path\":\"exp.outer;exp.leaf\""),
              std::string::npos);

    // Folded stacks: "path;sub;leaf <self-us>" lines, leaf spun for
    // >= 1 ms so its self time survives the µs rounding.
    std::ostringstream folded;
    p.reportFolded(folded);
    EXPECT_NE(folded.str().find("exp.outer;exp.leaf "),
              std::string::npos);
}

/** One "total calls thread N" line of the text report. */
struct ThreadLine
{
    double seconds = 0;
    unsigned long long calls = 0;
    unsigned thread = 0;
};

std::vector<ThreadLine>
threadLines(const std::string &report)
{
    std::vector<ThreadLine> out;
    std::istringstream lines(report);
    std::string line;
    while (std::getline(lines, line)) {
        ThreadLine t;
        if (std::sscanf(line.c_str(), "%lf %llu thread %u", &t.seconds,
                        &t.calls, &t.thread) == 3)
            out.push_back(t);
    }
    return out;
}

std::string
textReport()
{
    std::ostringstream os;
    prof::Profiler::instance().report(os);
    return os.str();
}

TEST(Profiler, ReportListsEveryRegisteredThreadOnce)
{
    ScopedProfiling on;
    {
        GASNUB_PROF_ZONE("list.main");
        spin(10);
    }
    for (int i = 0; i < 2; ++i) {
        std::thread t([] {
            GASNUB_PROF_ZONE("list.side");
            spin(10);
        });
        t.join();
    }
    // Exited threads keep their lines: the registry owns their trees.
    const std::vector<ThreadLine> lines = threadLines(textReport());
    ASSERT_EQ(lines.size(), prof::Profiler::instance().threads());
    ASSERT_GE(lines.size(), 3u);
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i].thread, i);
}

TEST(Profiler, ThreadLineSumsTopLevelZonesOnly)
{
    ScopedProfiling on;
    // A fresh thread registers last, so its line is the report's last.
    std::thread t([] {
        {
            GASNUB_PROF_ZONE("top.a");
            for (int i = 0; i < 3; ++i) {
                GASNUB_PROF_ZONE("top.a.child");
                spin(100);
            }
        }
        for (int i = 0; i < 2; ++i) {
            GASNUB_PROF_ZONE("top.b");
            spin(100);
        }
    });
    t.join();
    const std::vector<ThreadLine> lines = threadLines(textReport());
    ASSERT_FALSE(lines.empty());
    const ThreadLine &mine = lines.back();
    // Nested zones are inside their parent's time: 1 + 2 calls, not 6.
    EXPECT_EQ(mine.calls, 3u);
    const std::vector<prof::ZoneStats> zones =
        prof::Profiler::instance().merged();
    const prof::ZoneStats *a = findZone(zones, "top.a");
    const prof::ZoneStats *b = findZone(zones, "top.b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // Printed with six decimals: equal to the zones' sum within
    // rounding.
    EXPECT_NEAR(mine.seconds,
                static_cast<double>(a->totalNs + b->totalNs) / 1e9,
                1e-6);
    EXPECT_GT(mine.seconds, 0.0);
}

TEST(Profiler, ResetZeroesThreadLines)
{
    ScopedProfiling on;
    {
        GASNUB_PROF_ZONE("zero.zone");
        spin(20);
    }
    prof::Profiler::instance().reset();
    const std::vector<ThreadLine> lines = threadLines(textReport());
    ASSERT_FALSE(lines.empty());
    for (const ThreadLine &t : lines) {
        EXPECT_EQ(t.calls, 0u) << "thread " << t.thread;
        EXPECT_EQ(t.seconds, 0.0) << "thread " << t.thread;
    }
}

TEST(Profiler, DisabledThreadsNeverRegister)
{
    prof::Profiler::enable(false);
    const std::size_t before = prof::Profiler::instance().threads();
    std::thread t([] {
        GASNUB_PROF_ZONE("unregistered.zone");
        spin(10);
    });
    t.join();
    {
        sim::ThreadPool pool(3);
        pool.parallelFor(16, [](int, std::size_t) {
            GASNUB_PROF_ZONE("unregistered.job");
        });
    }
    // No thread-local tree, hence no report line, without profiling.
    EXPECT_EQ(prof::Profiler::instance().threads(), before);
    EXPECT_EQ(threadLines(textReport()).size(), before);
}

TEST(Profiler, MachineReadableExportsCarryNoThreadLines)
{
    ScopedProfiling on;
    std::thread t([] {
        GASNUB_PROF_ZONE("plain.zone");
        spin(1200);
    });
    t.join();
    const prof::Profiler &p = prof::Profiler::instance();

    // The per-thread lines belong to the text report alone; the JSON
    // keeps the gasnub-profile-1 shape perfbench parses.
    std::ostringstream json;
    p.reportJson(json);
    const std::string head = "{\"schema\":\"gasnub-profile-1\","
                             "\"threads\":" +
                             std::to_string(p.threads()) +
                             ",\"zones\":[{\"path\":";
    EXPECT_EQ(json.str().substr(0, head.size()), head);
    EXPECT_EQ(json.str().substr(json.str().size() - 3), "]}\n");
    EXPECT_EQ(json.str().find("thread "), std::string::npos);

    std::ostringstream folded;
    p.reportFolded(folded);
    std::istringstream lines(folded.str());
    std::string line;
    bool sawPlain = false;
    while (std::getline(lines, line)) {
        // "path <self-us>": one space, a positive integer after it.
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_EQ(line.find("thread"), std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u) << line;
        sawPlain = sawPlain || line.substr(0, sp) == "plain.zone";
    }
    EXPECT_TRUE(sawPlain);
}

TEST(Profiler, EnableFromEnvRespectsValue)
{
    prof::Profiler::enable(false);
    setenv("GASNUB_PROFILE", "0", 1);
    prof::Profiler::enableFromEnv();
    EXPECT_FALSE(prof::enabled());
    setenv("GASNUB_PROFILE", "1", 1);
    prof::Profiler::enableFromEnv();
    EXPECT_TRUE(prof::enabled());
    unsetenv("GASNUB_PROFILE");
    prof::Profiler::enable(false);
}

} // namespace
