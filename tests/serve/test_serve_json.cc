/**
 * @file
 * serve's JSON wire codec (tools/serve_json.hh) against the code it
 * replaced: answer lines must match the old snprintf("%.17g") format
 * byte for byte, and decodeQuery() must read every well-formed line
 * as the old parse() tree + find() lookup did.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/planner_io.hh"
#include "json_util.hh"
#include "serve/planner_index.hh"
#include "serve_json.hh"
#include "sim/rng.hh"

namespace {

using namespace gasnub;
namespace fs = std::filesystem;

/** The answer line as serve printed it before the codec. */
std::string
snprintfAnswer(const std::string &machine, const serve::PlanAnswer &a)
{
    char buf[512];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "{\"machine\": \"%s\", \"option\": \"%.*s\", "
        "\"method\": \"%s\", \"strideOnSource\": %s, "
        "\"mbs\": %.17g, \"seconds\": %.17g}\n",
        machine.c_str(), static_cast<int>(a.label.size()),
        a.label.data(), remote::methodName(a.method),
        a.strideOnSource ? "true" : "false", a.predictedMBs,
        a.predictedSeconds);
    return std::string(buf, static_cast<std::size_t>(n));
}

std::string
codecAnswer(const std::string &machine, const serve::PlanAnswer &a)
{
    const std::string m = servejson::quotedJson(machine);
    const std::string l = servejson::quotedJson(a.label);
    std::vector<char> buf(servejson::kAnswerFixedBytes + m.size() +
                          l.size());
    char *end = servejson::encodeAnswer(buf.data(), m, l, a);
    return std::string(buf.data(), end);
}

/** tests/tools/test_serve_cli.sh's demo pack, built in process. */
serve::PlannerIndex
demoIndex()
{
    const fs::path dir = fs::path(::testing::TempDir()) / "serve_json_demo";
    fs::create_directories(dir);
    std::ofstream(dir / "pull.surface") << "gasnub-surface 1\n"
                                           "name demo pull\n"
                                           "workingsets 2 1024 1048576\n"
                                           "strides 3 1 8 64\n"
                                           "data\n"
                                           "120.5 80.25 60.125\n"
                                           "110.5 70.25 50.125\n"
                                           "end\n";
    std::ofstream(dir / "fetch-sload.surface")
        << "gasnub-surface 1\n"
           "name demo fetch\n"
           "workingsets 2 1024 1048576\n"
           "strides 3 1 8 64\n"
           "data\n"
           "300.5 150.25 90.125\n"
           "280.5 140.25 80.125\n"
           "end\n";
    serve::MachinePack pack;
    pack.machine = "demo";
    pack.options = core::loadPlanOptionsDir(dir.string());
    std::vector<serve::MachinePack> packs;
    packs.push_back(std::move(pack));
    return serve::PlannerIndex(std::move(packs));
}

/** Every query the CLI test sends the demo pack. */
std::vector<core::TransferQuery>
demoQueries()
{
    std::vector<core::TransferQuery> qs = {
        {1048576, 1048576, 8}, {2048, 1024, 1}, {4096, 0, 2}, {8, 8, 1}};
    for (std::uint64_t ws : {512, 1024, 3000, 65536, 1048576, 4194304})
        for (std::uint64_t st : {1, 2, 8, 20, 64, 100})
            qs.push_back({ws * 2, ws, st});
    return qs;
}

TEST(ServeJsonEncode, MatchesSnprintfOnEveryDemoAnswer)
{
    const serve::PlannerIndex index = demoIndex();
    for (const core::TransferQuery &q : demoQueries()) {
        const serve::PlanAnswer a = index.plan(0, q);
        EXPECT_EQ(codecAnswer("demo", a), snprintfAnswer("demo", a))
            << "bytes " << q.bytes << " ws " << q.wsBytes << " stride "
            << q.stride;
    }
}

TEST(ServeJsonEncode, MatchesSnprintfOnEdgeAndRandomDoubles)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        DBL_MAX,
        -DBL_MAX,
        DBL_MIN,
        DBL_TRUE_MIN,
        -DBL_TRUE_MIN,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),
        1.0,
        154.2,
        0.0068,
        1e-4,
        9.9999999999999991e-5,
        1e16,
        1e17,
        123456789012345678.0,
        0.1 + 0.2,
    };
    sim::Rng rng(19);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng.next();
        values.push_back(std::bit_cast<double>(bits));
        // Subnormals: a zero exponent field.
        values.push_back(
            std::bit_cast<double>(bits & 0x800fffffffffffffULL));
        // Magnitudes a planner answer can take.
        values.push_back(std::ldexp(rng.real(), static_cast<int>(
                                                    rng.below(80)) -
                                                    40));
    }
    const remote::TransferMethod methods[] = {
        remote::TransferMethod::CoherentPull,
        remote::TransferMethod::Fetch, remote::TransferMethod::Deposit};
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        serve::PlanAnswer a;
        a.method = methods[i % 3];
        a.strideOnSource = i % 2 == 0;
        a.label = i % 2 ? "fetch-sload" : "deposit-sstore";
        a.predictedMBs = values[i];
        a.predictedSeconds = values[values.size() - 1 - i];
        const std::string want = snprintfAnswer("t3e", a);
        const std::string got = codecAnswer("t3e", a);
        if (got != want && ++diffs <= 5)
            ADD_FAILURE() << "codec: " << got << "printf: " << want;
    }
    EXPECT_EQ(diffs, 0u);
}

/** writeG17()'s output for @p x. */
std::string
g17(double x)
{
    char buf[servejson::kDoubleRoom];
    return std::string(buf, servejson::writeG17(buf, x));
}

/** printf's "%.17g" of @p x. */
std::string
printfG17(double x)
{
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", x);
    return std::string(buf, static_cast<std::size_t>(n));
}

TEST(ServeJsonEncode, TiesAtTheSeventeenthDigitRoundToEven)
{
    // Both lie exactly halfway between two 17-digit decimals.
    EXPECT_EQ(g17(2251799813685247.75), "2251799813685247.8");
    EXPECT_EQ(g17(2251799813685246.25), "2251799813685246.2");
    EXPECT_EQ(g17(2251799813685247.75), printfG17(2251799813685247.75));
    EXPECT_EQ(g17(2251799813685246.25), printfG17(2251799813685246.25));
}

TEST(ServeJsonEncode, SixteenDigitCarryKeepsTheExponent)
{
    // The double nearest 1e-7 lies just below it: its 17 digits do
    // not carry into 1e-07, though 16 would.
    EXPECT_EQ(g17(1e-7), "9.9999999999999995e-08");
    EXPECT_EQ(g17(1e-7), printfG17(1e-7));
}

TEST(ServeJsonEncode, PowersOfTenAndTheirNeighboursMatchPrintf)
{
    std::vector<double> values = {1e-11, 1e17};
    for (int e = -11; e <= 17; ++e) {
        const double p = std::stod("1e" + std::to_string(e));
        values.push_back(p);
        values.push_back(std::nextafter(p, 0.0));
        values.push_back(std::nextafter(p, 1e300));
    }
    // The edges of the integer formatter's range, and the doubles
    // either side of each edge.
    for (double edge : {1e-11, 1e17}) {
        double below = edge, above = edge;
        for (int i = 0; i < 4; ++i) {
            below = std::nextafter(below, 0.0);
            above = std::nextafter(above, 1e300);
            values.push_back(below);
            values.push_back(above);
        }
    }
    for (double x : values)
        EXPECT_EQ(g17(x), printfG17(x)) << std::hexfloat << x;
}

TEST(ServeJsonEncode, NamesAndLabelsAreEscapedOnce)
{
    const serve::PlannerIndex index = demoIndex();
    const servejson::WireNames names(index);
    EXPECT_EQ(names.machine(0), "\"demo\"");
    for (std::size_t o = 0; o < index.numOptions(0); ++o)
        EXPECT_EQ(names.label(0, o),
                  "\"" + index.option(0, o).label + "\"");

    // Quotes, backslashes and control bytes survive a round trip
    // through the reader.
    const std::string machine = "a\"b\\c\n\x01";
    serve::PlanAnswer a;
    a.label = "x\"y";
    a.predictedMBs = 1.5;
    const std::string line = codecAnswer(machine, a);
    tooljson::JsonParser parser(line, "answer");
    const tooljson::JsonValue v = parser.parse();
    EXPECT_EQ(v.find("machine")->string, machine);
    EXPECT_EQ(v.find("option")->string, "x\"y");
    EXPECT_EQ(v.find("mbs")->number, 1.5);
}

/** The query as the old decode read it: a parse() tree and find(). */
servejson::QueryLine
treeDecode(const std::string &line, const serve::PlannerIndex &index)
{
    tooljson::JsonParser parser(line, "tree");
    const tooljson::JsonValue v = parser.parse();
    servejson::QueryLine q;
    if (v.find("cmd")) {
        q.metrics = true;
        return q;
    }
    q.machine =
        static_cast<std::size_t>(index.machineId(v.find("machine")->string));
    q.query.bytes = static_cast<std::uint64_t>(v.find("bytes")->number);
    q.query.wsBytes = static_cast<std::uint64_t>(v.find("ws")->number);
    q.query.stride = static_cast<std::uint64_t>(v.find("stride")->number);
    return q;
}

TEST(ServeJsonDecode, ReadsEverySpellingAsTheTreeDid)
{
    const serve::PlannerIndex index = demoIndex();
    const std::vector<std::string> lines = {
        R"({"machine": "demo", "bytes": 1048576, "ws": 1048576, "stride": 8})",
        R"({"stride":8,"ws":1048576,"bytes":1048576,"machine":"demo"})",
        " \t{ \"machine\" : \"demo\" , \"bytes\" : 2048 ,"
        " \"ws\" : 1024 , \"stride\" : 1 } \r",
        R"({"machine": "demo", "tag": {"a": [1, {"b": null}], "c": "x"},)"
        R"( "bytes": 2048, "list": [true, false, -0.5e-3], "ws": 1024,)"
        R"( "stride": 1})",
        R"({"machine": "d\u0065mo", "by\u0074es": 2048, "ws": 1024,)"
        R"( "stride": 1})",
        R"({"machine": "demo", "bytes": 1e3, "ws": 4096.0, "stride": 0})",
        R"({"machine": "demo", "bytes": 7, "bytes": 9, "ws": 1,)"
        R"( "stride": 2, "machine": "nope"})",
        R"({"machine": "demo", "bytes": 7, "bytes": "x", "ws": -0, "stride": 2})",
        R"({"cmd": "metrics"})",
        R"({"bytes": 1, "cmd": "metrics", "cmd": 5})",
    };
    for (const std::string &line : lines) {
        const servejson::QueryLine want = treeDecode(line, index);
        const servejson::QueryLine got =
            servejson::decodeQuery(line, 1, index);
        EXPECT_EQ(got.metrics, want.metrics) << line;
        EXPECT_EQ(got.machine, want.machine) << line;
        EXPECT_EQ(got.query.bytes, want.query.bytes) << line;
        EXPECT_EQ(got.query.wsBytes, want.query.wsBytes) << line;
        EXPECT_EQ(got.query.stride, want.query.stride) << line;
    }
}

/** The number a one-member object's "n" holds, through members(). */
double
membersNumber(const std::string &text)
{
    double n = -1;
    tooljson::JsonParser parser(text, "number");
    parser.members(
        [&](std::string_view key, const tooljson::JsonFieldView &v) {
            if (key == "n")
                n = v.number;
        });
    return n;
}

/** The same, through the parse() tree. */
double
treeNumber(const std::string &text)
{
    tooljson::JsonParser parser(text, "number");
    return parser.parse().find("n")->number;
}

TEST(ServeJsonDecode, IntegerFastPathAgreesWithTheTree)
{
    const std::vector<std::string> tokens = {
        "7",
        "123456789012345",   // 15 digits: the fast path's longest
        "1234567890123456",  // 16: from_chars
        "12345678901234567", // 17: rounds to a double
        "999999999999999",
        "9999999999999999",
        "0",
        "-0",
        "-15",
        "12.5",
        "12.0",
        "12e3",
        "12E-1",
        "100000000000000",
    };
    for (const std::string &t : tokens) {
        for (const std::string &text :
             {"{\"n\": " + t + "}", "{\"n\":" + t + ",\"m\":1}",
              "{\"n\": " + t + " }"}) {
            const double got = membersNumber(text);
            const double want = treeNumber(text);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want))
                << text;
            EXPECT_EQ(got, std::strtod(t.c_str(), nullptr)) << text;
        }
    }
}

TEST(ServeJsonReader, SplitsLinesAcrossReadsAndNeverWaitsPastOne)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    auto send = [&](const std::string &bytes) {
        ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    };
    // A 4-byte block: lines span reads and grow the buffer.
    servejson::LineReader reader(fds[0], 4);
    std::string_view line;

    // The pipe stays open: a reader that waited for more than the
    // current line would hang here.
    send("first\nsec");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "first");

    const std::string longest(100, 'x');
    send("ond\n\n\r\n" + longest);
    ::close(fds[1]);
    const std::vector<std::string> want = {"second", "", "\r", longest};
    for (const std::string &w : want) {
        ASSERT_TRUE(reader.next(line));
        EXPECT_EQ(line, w);
    }
    EXPECT_FALSE(reader.next(line));
    EXPECT_FALSE(reader.next(line));
    ::close(fds[0]);
}

using ServeJsonDeath = ::testing::Test;

TEST(ServeJsonDeath, MalformedNumbersFailAtTheSameByteEitherWay)
{
    struct Case
    {
        const char *text;
        const char *message;
    };
    const Case cases[] = {
        {R"({"n": 01})", "number: JSON error at byte 6: bad number"},
        {R"({"n": 12-3})", "number: JSON error at byte 6: bad number"},
        {R"({"n": 12.})", "number: JSON error at byte 6: bad number"},
        {R"({"n": 12e})", "number: JSON error at byte 6: bad number"},
        {R"({"n": 123456789012345-})",
         "number: JSON error at byte 6: bad number"},
        {R"({"n": 1234567890123456.})",
         "number: JSON error at byte 6: bad number"},
        {R"({"n": 12x})", "number: JSON error at byte 8: expected '}'"},
        {R"({"n": 12)", "number: JSON error at byte 8: unexpected end"},
    };
    for (const Case &c : cases) {
        EXPECT_EXIT(
            {
                membersNumber(c.text);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2), c.message)
            << c.text;
        EXPECT_EXIT(
            {
                treeNumber(c.text);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2), c.message)
            << c.text;
    }
}

TEST(ServeJsonDeath, ErrorsNameTheLine)
{
    const serve::PlannerIndex index = demoIndex();
    struct Case
    {
        const char *line;
        int code;
        const char *message;
    };
    const Case cases[] = {
        {R"({"machine": "demo", "bytes": 1-2, "ws": 1, "stride": 1})", 2,
         "serve: query line 12: JSON error at byte 29: bad number"},
        {R"({"machine": "demo", "bytes": 2, "ws": 1, "stride": 1)", 2,
         "serve: query line 12: JSON error at byte 52: unexpected end"},
        {R"({"machine": "dem0", "bytes": 2, "ws": 1, "stride": 1})", 1,
         "serve: query line 12: unknown machine 'dem0'"},
        // U+016F, not 'o': once only the escape's low byte was kept.
        {R"({"machine": "dem\u016f", "bytes": 2, "ws": 1, "stride": 1})",
         1, "serve: query line 12: unknown machine 'dem"},
        {R"({"machine": 5, "bytes": 2, "ws": 1, "stride": 1})", 1,
         "serve: query line 12: missing or bad 'machine'"},
        {R"({"machine": "demo", "ws": 1, "stride": 1})", 1,
         "serve: query line 12: missing or bad 'bytes'"},
        {R"({"machine": "demo", "bytes": 2, "ws": 1.5, "stride": 1})", 1,
         "serve: query line 12: 'ws' is 1.5, not an integer"},
        {R"({"cmd": "stats"})", 1,
         "serve: query line 12: unknown control command"},
    };
    for (const Case &c : cases) {
        EXPECT_EXIT(
            {
                servejson::decodeQuery(c.line, 12, index);
                std::exit(0);
            },
            ::testing::ExitedWithCode(c.code), c.message)
            << c.line;
    }
}

} // namespace
