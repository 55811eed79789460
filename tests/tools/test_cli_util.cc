/**
 * @file
 * Tests for the tools' shared output writers (tools/cli_util.hh):
 * --trace-out picks CSV or Chrome JSON by suffix and notes dropped
 * events, --stats-json writes the stats tree exactly as dumpJson
 * does, and an unwritable path fails loudly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_util.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace {

using namespace gasnub;
namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Route this thread's tracer to a private one holding a few events. */
struct TracedThread
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped{tracer, trace::allCategories};

    explicit TracedThread(std::size_t events, std::size_t capacity = 64)
    {
        tracer.setCapacity(capacity);
        const trace::TrackId tr = tracer.track("cli-track");
        for (Tick i = 0; i < events; ++i)
            tracer.record(trace::Category::Remote, tr, "pull", 10 * i,
                          10 * i + 5, "words", i);
    }

    std::string
    csv() const
    {
        std::ostringstream os;
        tracer.exportCsv(os);
        return os.str();
    }

    std::string
    chromeJson() const
    {
        std::ostringstream os;
        tracer.exportChromeJson(os);
        return os.str();
    }
};

TEST(WriteTrace, CsvSuffixWritesCsv)
{
    TracedThread traced(3);
    const fs::path path = fs::path(::testing::TempDir()) / "cli.csv";
    ::testing::internal::CaptureStderr();
    toolcli::writeTrace(path.string());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(slurp(path), traced.csv());
    EXPECT_EQ(err, "trace: 3 events to " + path.string() + "\n");
    fs::remove(path);
}

TEST(WriteTrace, OtherSuffixesWriteChromeJson)
{
    TracedThread traced(3);
    for (const char *name : {"cli.json", "cli.csv.json", "cli.CSV"}) {
        const fs::path path = fs::path(::testing::TempDir()) / name;
        ::testing::internal::CaptureStderr();
        toolcli::writeTrace(path.string());
        ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(slurp(path), traced.chromeJson()) << name;
        fs::remove(path);
    }
}

TEST(WriteTrace, NotesDroppedEvents)
{
    // Ten events into a four-event buffer: four kept, six dropped.
    TracedThread traced(10, 4);
    const fs::path path = fs::path(::testing::TempDir()) / "drop.csv";
    ::testing::internal::CaptureStderr();
    toolcli::writeTrace(path.string());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err,
              "trace: 4 events to " + path.string() + " (6 dropped)\n");
    fs::remove(path);
}

TEST(WriteStatsJson, WritesTheDumpAndANewline)
{
    stats::Group root("root");
    stats::Group child("child");
    root.addChild(&child);
    stats::Scalar hits(&root, "hits", "hit count");
    stats::Scalar misses(&child, "misses", "miss count");
    hits += 7;
    misses += 2;
    const fs::path path = fs::path(::testing::TempDir()) / "cli.json";
    ::testing::internal::CaptureStderr();
    toolcli::writeStatsJson(root, path.string());
    const std::string err = ::testing::internal::GetCapturedStderr();
    std::ostringstream want;
    root.dumpJson(want);
    EXPECT_EQ(slurp(path), want.str() + "\n");
    EXPECT_EQ(err, "stats: " + path.string() + "\n");
    fs::remove(path);
}

TEST(WriterDeath, UnwritablePathsAreFatal)
{
    const std::string bad = "/nonexistent-dir/out.json";
    EXPECT_EXIT(
        {
            TracedThread traced(1);
            toolcli::writeTrace(bad);
        },
        ::testing::ExitedWithCode(1), "cannot open /nonexistent-dir");
    stats::Group root("root");
    EXPECT_EXIT(toolcli::writeStatsJson(root, bad),
                ::testing::ExitedWithCode(1),
                "cannot open /nonexistent-dir");
}

} // namespace
