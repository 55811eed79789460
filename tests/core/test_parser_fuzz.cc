/**
 * @file
 * Property and fuzz tests for the two on-disk text formats: surface
 * files (surface_io, v1 and v2) and the tools' JSON reader
 * (tools/json_util.hh).
 *
 * Two properties under test, both driven by the seeded deterministic
 * sim::Rng so failures replay exactly:
 *  - round trip: save -> load -> save is a byte fixpoint for any
 *    well-formed surface (the writer prints max_digits10);
 *  - malformed input dies cleanly: truncation, NaN/inf, duplicate
 *    keys, deep nesting and random byte mutations either parse or
 *    exit with the documented code (1 for GASNUB_FATAL in the surface
 *    loader, 2 for the JSON reader) — never a signal.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/surface_io.hh"
#include "json_util.hh"
#include "sim/rng.hh"

namespace {

using namespace gasnub;
using namespace gasnub::core;
using gasnub::tooljson::JsonParser;
using gasnub::tooljson::JsonValue;

/** A random complete surface; @p attribution selects format v2. */
Surface
randomSurface(sim::Rng &rng, bool attribution)
{
    const std::size_t nws = 1 + rng.below(4);
    const std::size_t nst = 1 + rng.below(4);
    std::vector<std::uint64_t> ws, strides;
    std::uint64_t w = 1024;
    for (std::size_t i = 0; i < nws; ++i) {
        w += 1024 * (1 + rng.below(1000));
        ws.push_back(w);
    }
    std::uint64_t st = 0;
    for (std::size_t i = 0; i < nst; ++i) {
        st += 1 + rng.below(64);
        strides.push_back(st);
    }
    Surface s("fuzz surface " + std::to_string(rng.below(1000)), ws,
              strides);
    if (attribution)
        s.enableAttribution({"cpu.issue", "dram.bank", "bus.data"});
    for (std::uint64_t wv : ws) {
        for (std::uint64_t sv : strides) {
            s.set(wv, sv, rng.real() * 5000.0);
            if (attribution) {
                const Tick elapsed = 1 + rng.below(1'000'000'000'000);
                const Tick a = rng.below(elapsed + 1);
                const Tick b = rng.below(elapsed - a + 1);
                s.setAttribution(wv, sv, elapsed,
                                 {a, b, elapsed - a - b});
            }
        }
    }
    return s;
}

std::string
bytes(const Surface &s)
{
    std::ostringstream out;
    saveSurface(s, out);
    return out.str();
}

TEST(SurfaceFuzz, RoundTripV1IsAByteFixpoint)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Rng rng(seed);
        const std::string saved = bytes(randomSurface(rng, false));
        std::istringstream in(saved);
        EXPECT_EQ(bytes(loadSurface(in, "fuzz-v1")), saved)
            << "seed " << seed;
    }
}

TEST(SurfaceFuzz, RoundTripV2IsAByteFixpoint)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Rng rng(seed);
        const std::string saved = bytes(randomSurface(rng, true));
        std::istringstream in(saved);
        EXPECT_EQ(bytes(loadSurface(in, "fuzz-v2")), saved)
            << "seed " << seed;
    }
}

using SurfaceDeath = ::testing::Test;

TEST(SurfaceDeath, AnyTruncationIsFatal)
{
    sim::Rng rng(42);
    const std::string full = bytes(randomSurface(rng, true));
    // Every strict prefix is missing at least the trailing "end"
    // marker, so the loader must die with exit 1 — never crash, never
    // return a partial surface.
    for (int i = 0; i < 6; ++i) {
        const std::size_t cut = rng.below(full.size() - 4);
        const std::string prefix = full.substr(0, cut);
        EXPECT_EXIT(
            {
                std::istringstream in(prefix);
                loadSurface(in, "truncated");
                std::exit(0);
            },
            ::testing::ExitedWithCode(1), "")
            << "cut at byte " << cut;
    }
}

TEST(SurfaceDeath, RejectsNonFiniteAndNegativeBandwidth)
{
    for (const char *bad : {"nan", "inf", "-inf", "-1", "12x"}) {
        const std::string text =
            std::string("gasnub-surface 1\nname t\nworkingsets 1 "
                        "4096\nstrides 1 1\ndata\n") +
            bad + "\nend\n";
        EXPECT_EXIT(
            {
                std::istringstream in(text);
                loadSurface(in, "bad-value");
                std::exit(0);
            },
            ::testing::ExitedWithCode(1), "bad bandwidth value")
            << "value " << bad;
    }
}

TEST(SurfaceDeath, MismatchedAttributionSumIsFatal)
{
    // Shares must decompose elapsed exactly; 90 + 20 != 100.
    const std::string text =
        "gasnub-surface 2\nname t\nworkingsets 1 4096\n"
        "strides 1 1\ndata\n100\n"
        "attribution 2 cpu dram\n100 90 20\nend\n";
    EXPECT_EXIT(
        {
            std::istringstream in(text);
            loadSurface(in, "bad-sum");
            std::exit(0);
        },
        ::testing::ExitedWithCode(1), "sum to");
}

JsonValue
parseJson(const std::string &text)
{
    JsonParser p(text, "test");
    return p.parse();
}

TEST(JsonFuzz, ParsesWriterStyleOutput)
{
    const JsonValue v = parseJson(
        "{\"name\": \"bench\", \"pi\": 3.25, \"neg\": -1e3,\n"
        " \"esc\": \"a\\nb\\u0007c\", \"ok\": true, \"nil\": null,\n"
        " \"arr\": [1, 2, {\"k\": []}]}");
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.find("name")->string, "bench");
    EXPECT_DOUBLE_EQ(v.find("pi")->number, 3.25);
    EXPECT_DOUBLE_EQ(v.find("neg")->number, -1000.0);
    EXPECT_EQ(v.find("esc")->string, std::string("a\nb\ac"));
    EXPECT_TRUE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("nil")->kind, JsonValue::Kind::Null);
    ASSERT_EQ(v.find("arr")->array.size(), 3u);
}

TEST(JsonFuzz, DuplicateKeysKeepBothFindReturnsFirst)
{
    const JsonValue v = parseJson("{\"k\": 1, \"k\": 2}");
    ASSERT_EQ(v.object.size(), 2u);
    EXPECT_DOUBLE_EQ(v.find("k")->number, 1.0);
}

TEST(JsonFuzz, NestingWithinTheBoundParses)
{
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += '[';
    deep += "1";
    for (int i = 0; i < 64; ++i)
        deep += ']';
    EXPECT_EQ(parseJson(deep).kind, JsonValue::Kind::Array);
}

TEST(JsonFuzz, NumbersFollowRfc8259AndRoundLikeStrtod)
{
    for (const char *good :
         {"0", "-0", "12", "-3.25", "1e3", "1E+3", "2.5e-3", "0.1",
          "123456789012345678901234567890", "4.9e-324", "1e400",
          "-1e400", "1e-400", "2.2250738585072011e-308"}) {
        const JsonValue v =
            parseJson(std::string("{\"x\": ") + good + "}");
        const double want = std::strtod(good, nullptr);
        EXPECT_EQ(std::memcmp(&v.find("x")->number, &want, sizeof want),
                  0)
            << good;
    }
}

TEST(JsonFuzz, MembersWalksOneObjectWithoutATree)
{
    const std::string text =
        "{\"a\": 1, \"k\\u0065y\": \"v\\u0061l\", \"n\": {\"d\": [1, "
        "{\"x\": \"y\\n\"}]}, \"a\": true, \"l\": [], \"z\": null}";
    std::vector<std::string> seen;
    JsonParser p(text, "test");
    p.members([&](std::string_view key, const tooljson::JsonFieldView &v) {
        std::string s(key);
        switch (v.kind) {
          case JsonValue::Kind::Number:
            s += "=" + std::to_string(v.number);
            break;
          case JsonValue::Kind::String:
            s += "=\"" + std::string(v.string) + "\"";
            break;
          case JsonValue::Kind::Bool:
            s += v.boolean ? "=true" : "=false";
            break;
          case JsonValue::Kind::Null: s += "=null"; break;
          case JsonValue::Kind::Array: s += "=[]"; break;
          case JsonValue::Kind::Object: s += "={}"; break;
        }
        seen.push_back(s);
    });
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "a=1.000000", "key=\"val\"", "n={}", "a=true",
                        "l=[]", "z=null"}));

    // A non-object has no members, as find() on its tree finds none.
    const std::string array = "[1, {\"a\": 2}]";
    JsonParser q(array, "test");
    int calls = 0;
    q.members([&](std::string_view, const tooljson::JsonFieldView &) {
        ++calls;
    });
    EXPECT_EQ(calls, 0);
}

TEST(JsonFuzz, UnicodeEscapesDecodeToUtf8)
{
    // Once only the low byte was kept: "t3\u0165" read as "t3e".
    const struct
    {
        const char *escaped;
        const char *utf8;
    } cases[] = {
        {"t3\\u0165", "t3\xc5\xa5"},
        {"\\u0007", "\a"},
        {"\\u007f", "\x7f"},
        {"\\u0080", "\xc2\x80"},
        {"\\u00e9", "\xc3\xa9"},
        {"\\u07FF", "\xdf\xbf"},
        {"\\u0800", "\xe0\xa0\x80"},
        {"\\u20ac", "\xe2\x82\xac"},
        {"\\uffff", "\xef\xbf\xbf"},
        {"\\ud800\\udc00", "\xf0\x90\x80\x80"},
        {"x\\ud83d\\ude00y", "x\xf0\x9f\x98\x80y"},
        {"\\udbff\\udfff", "\xf4\x8f\xbf\xbf"},
    };
    for (const auto &c : cases) {
        const std::string text =
            std::string("{\"") + c.escaped + "\": \"" + c.escaped + "\"}";
        const JsonValue v = parseJson(text);
        ASSERT_EQ(v.object.size(), 1u) << text;
        EXPECT_EQ(v.object[0].first, c.utf8) << text;
        EXPECT_EQ(v.object[0].second.string, c.utf8) << text;
        JsonParser p(text, "test");
        p.members(
            [&](std::string_view key, const tooljson::JsonFieldView &f) {
                EXPECT_EQ(key, c.utf8) << text;
                EXPECT_EQ(f.string, c.utf8) << text;
            });
    }
}

using JsonDeath = ::testing::Test;

TEST(JsonDeath, LoneSurrogatesAreFatalAtTheirBackslash)
{
    // The escape starts at byte 9 of each input.
    for (const char *bad :
         {"{\"x\": \"ab\\ud800\"}", "{\"x\": \"ab\\udbffz\"}",
          "{\"x\": \"ab\\udc00\"}", "{\"x\": \"ab\\udfff\\ud800\"}",
          "{\"x\": \"ab\\ud800\\u0041\"}",
          "{\"x\": \"ab\\ud800\\ud800\"}"}) {
        EXPECT_EXIT(
            {
                parseJson(bad);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2),
            "test: JSON error at byte 9: lone surrogate")
            << "input " << bad;
    }
}

TEST(JsonDeath, MalformedNumbersAreFatalAtTheirFirstByte)
{
    // Each of these once read as the value of its longest strtod
    // prefix ("1-2" as 1, "-" as 0).
    for (const char *bad : {"1-2", "-", "+7", "1.2.3", "01", "-01", "1.",
                            ".5", "-.5", "1e", "1e+", "--1", "1.e3",
                            "2e3.5", "1ee2"}) {
        EXPECT_EXIT(
            {
                parseJson(std::string("{\"x\": ") + bad + "}");
                std::exit(0);
            },
            ::testing::ExitedWithCode(2),
            "test: JSON error at byte 6: bad number")
            << "input " << bad;
    }
}

TEST(JsonDeath, MisspelledLiteralsAreFatal)
{
    // Literals were once skipped by length, unread.
    for (const char *bad : {"{\"x\": trux}", "{\"x\": nulL}", "[fAlse]"}) {
        EXPECT_EXIT(
            {
                parseJson(bad);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2), "bad literal")
            << "input " << bad;
    }
}

TEST(JsonDeath, TruncationIsFatal)
{
    for (const char *bad :
         {"{\"a\": [1, 2", "{\"a\"", "[1,", "\"unterminated", "{",
          "{\"a\": \"x\\"}) {
        EXPECT_EXIT(
            {
                parseJson(bad);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2), "JSON error")
            << "input " << bad;
    }
}

TEST(JsonDeath, NonFiniteLiteralsAreFatal)
{
    for (const char *bad : {"{\"x\": nan}", "{\"x\": inf}", "{\"x\": "
                                                            "Infinity"
                                                            "}"}) {
        EXPECT_EXIT(
            {
                parseJson(bad);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2), "")
            << "input " << bad;
    }
}

TEST(JsonDeath, DeepNestingIsFatalNotAStackOverflow)
{
    std::string bombs[2];
    for (int i = 0; i < 300; ++i) {
        bombs[0] += '[';
        bombs[1] += '[';
    }
    bombs[1] += "1";
    for (int i = 0; i < 300; ++i)
        bombs[1] += ']';
    for (const std::string &bomb : bombs) {
        EXPECT_EXIT(
            {
                parseJson(bomb);
                std::exit(0);
            },
            ::testing::ExitedWithCode(2), "nesting too deep");
    }
}

TEST(JsonDeath, BadUnicodeEscapeIsFatal)
{
    EXPECT_EXIT(
        {
            parseJson("{\"k\": \"\\uzzzz\"}");
            std::exit(0);
        },
        ::testing::ExitedWithCode(2), "bad");
}

/** Accept a clean exit (0 = parsed, 2 = rejected); reject signals. */
bool
exitedCleanly(int status)
{
    return WIFEXITED(status) && (WEXITSTATUS(status) == 0 ||
                                 WEXITSTATUS(status) == 2);
}

TEST(JsonDeath, RandomMutationsNeverCrashTheParser)
{
    const std::string base =
        "{\"gasnub-bench\": 1, \"pr\": 7, \"scenarios\": ["
        "{\"name\": \"dec8400.local.loads\", \"points_per_sec\": "
        "1241.8, \"repeats\": 5}, {\"name\": \"t3e.local.loads\", "
        "\"points_per_sec\": 1483.72, \"repeats\": 5}]}";
    sim::Rng rng(7);
    for (int i = 0; i < 24; ++i) {
        std::string doc = base;
        const std::size_t pos = rng.below(doc.size());
        if (rng.below(2))
            doc.erase(pos, 1);
        else
            doc[pos] = static_cast<char>(32 + rng.below(95));
        EXPECT_EXIT(
            {
                parseJson(doc);
                std::exit(0);
            },
            exitedCleanly, "")
            << "mutation " << i << ": " << doc;
    }
}

} // namespace
