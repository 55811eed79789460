/**
 * @file
 * Integration tests: the simulated machines must land on the paper's
 * reported numbers.  One case per row of bench/paper_claims.hh
 * measures the row, asserts its bound and checks that EXPERIMENTS.md
 * records it; the remaining cases keep the table's other copies
 * honest: EXPERIMENTS.md's claim tables, perfbench's reference points
 * and a figure bench's comparison block.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "json_util.hh"
#include "paper_claims.hh"

namespace gasnub::bench {

/** gtest prints a failing case's row by its key. */
void
PrintTo(const PaperClaim &c, std::ostream *os)
{
    *os << c.key;
}

} // namespace gasnub::bench

namespace {

using namespace gasnub;
using bench::PaperClaim;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Header of the claim tables in EXPERIMENTS.md. */
constexpr const char *kClaimHeader =
    "| Figure | reference point | paper | model | ratio |";

/** Every line of EXPERIMENTS.md's claim tables, separators excluded. */
std::vector<std::string>
claimTableLines()
{
    std::istringstream in(readFile(GASNUB_SOURCE_DIR "/EXPERIMENTS.md"));
    std::vector<std::string> out;
    bool inTable = false;
    for (std::string line; std::getline(in, line);) {
        if (line == kClaimHeader)
            inTable = true;
        else if (line.empty() || line[0] != '|')
            inTable = false;
        else if (inTable && line.rfind("|---", 0) != 0)
            out.push_back(line);
    }
    return out;
}

/** "| figure | row |": the part of a claim line that names the row. */
std::string
linePrefix(int figure, const std::string &row)
{
    return "| " + std::to_string(figure) + " | " + row + " |";
}

/**
 * The EXPERIMENTS.md line of @p c measured at @p model: the paper
 * value, the model value rounded (to two decimals for ratio rows),
 * and model / paper.
 */
std::string
experimentsLine(const PaperClaim &c, double model)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, " %g | %.*f | %.2f |", c.paper,
                  c.kind == PaperClaim::Kind::Ratio ? 2 : 0, model,
                  model / c.paper);
    return linePrefix(c.figure, c.row) + buf;
}

class PaperClaimTest : public ::testing::TestWithParam<PaperClaim>
{
};

TEST_P(PaperClaimTest, WithinBoundAndRecorded)
{
    const PaperClaim &c = GetParam();
    const double v = bench::measureClaim(c);
    EXPECT_GE(v, c.lo) << c.key;
    EXPECT_LE(v, c.hi) << c.key;
    EXPECT_EQ(c.deviation,
              std::fabs(v / c.paper - 1) > bench::deviationBand)
        << c.key << ": model " << v << " vs paper " << c.paper
        << "; a row this far off the paper is a deviation";

    const std::string want = experimentsLine(c, v);
    const std::string prefix = linePrefix(c.figure, c.row);
    std::vector<std::string> found;
    for (const std::string &line : claimTableLines())
        if (line.rfind(prefix, 0) == 0)
            found.push_back(line);
    EXPECT_EQ(found, std::vector<std::string>{want})
        << "EXPERIMENTS.md needs exactly one claim line\n  " << want;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperClaimTest, ::testing::ValuesIn(bench::paperClaims),
    [](const ::testing::TestParamInfo<PaperClaim> &info) {
        return std::string(info.param.key);
    });

TEST(PaperClaims, TableIsWellFormed)
{
    std::set<std::string> keys;
    std::set<std::pair<int, std::string>> rows;
    for (const PaperClaim &c : bench::paperClaims) {
        EXPECT_TRUE(keys.insert(c.key).second) << "duplicate " << c.key;
        EXPECT_TRUE(rows.insert({c.figure, c.row}).second)
            << "duplicate row " << c.figure << " " << c.row;
        EXPECT_LT(c.lo, c.hi) << c.key;
        EXPECT_GT(c.paper, 0) << c.key;
        switch (c.kind) {
          case PaperClaim::Kind::Bandwidth:
            EXPECT_TRUE(core::SweepSpec::fromName(c.machine, c.benchmark))
                << c.key;
            break;
          case PaperClaim::Kind::FftOverall:
          case PaperClaim::Kind::FftCompute:
            EXPECT_GT(c.n, 0u) << c.key;
            break;
          case PaperClaim::Kind::Ratio:
            for (const char *operand : {c.num, c.den})
                EXPECT_NE(bench::findClaim(operand).kind,
                          PaperClaim::Kind::Ratio)
                    << c.key;
            break;
        }
    }
}

TEST(PaperClaims, EveryExperimentsClaimLineIsARow)
{
    const std::vector<std::string> lines = claimTableLines();
    EXPECT_FALSE(lines.empty());
    for (const std::string &line : lines) {
        bool known = false;
        for (const PaperClaim &c : bench::paperClaims)
            known |= line.rfind(linePrefix(c.figure, c.row), 0) == 0;
        EXPECT_TRUE(known) << "EXPERIMENTS.md claim line with no row in "
                              "bench/paper_claims.hh:\n  "
                           << line;
    }
}

TEST(PaperClaims, PerfbenchPaperPointsAreRows)
{
    const std::string text =
        readFile(GASNUB_SOURCE_DIR "/perfbench/paper_points.json");
    const tooljson::JsonValue doc =
        tooljson::JsonParser(text, "paper_points.json").parse();
    const tooljson::JsonValue *points = doc.find("points");
    ASSERT_NE(points, nullptr);
    EXPECT_FALSE(points->array.empty());
    const auto cliName = [](machine::SystemKind kind) {
        return kind == machine::SystemKind::Dec8400 ? "dec8400"
               : kind == machine::SystemKind::CrayT3D ? "t3d"
                                                      : "t3e";
    };
    for (const tooljson::JsonValue &p : points->array) {
        const std::string machine = p.find("machine")->string;
        const std::string benchmark = p.find("benchmark")->string;
        const std::uint64_t ws = parseSize(p.find("ws")->string);
        const double stride = p.find("stride")->number;
        const double paper = p.find("paper")->number;
        const PaperClaim *match = nullptr;
        for (const PaperClaim &c : bench::paperClaims)
            if (c.kind == PaperClaim::Kind::Bandwidth &&
                machine == cliName(c.machine) && benchmark == c.benchmark &&
                ws == c.ws && stride == double(c.stride) &&
                paper == c.paper)
                match = &c;
        ASSERT_NE(match, nullptr)
            << "no row for " << machine << " " << benchmark << " "
            << p.find("ws")->string << " stride " << stride;
        EXPECT_EQ(match->figure, p.find("figure")->number) << match->key;
        EXPECT_EQ(match->row, p.find("row")->string) << match->key;
    }
}

TEST(PaperClaims, Fig05BenchComparesTheTableRows)
{
    std::FILE *pipe = popen("'" GASNUB_FIG05_BENCH "' --jobs=1", "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    while (const std::size_t n = std::fread(buf, 1, sizeof buf, pipe))
        out.append(buf, n);
    ASSERT_EQ(pclose(pipe), 0);

    std::vector<std::string> block;
    std::istringstream in(out);
    bool inBlock = false;
    for (std::string line; std::getline(in, line);) {
        if (line == bench::compareHeader)
            inBlock = true;
        else if (line.empty())
            inBlock = false;
        else if (inBlock)
            block.push_back(line);
    }
    std::vector<std::string> want;
    for (const PaperClaim &c : bench::paperClaims)
        if (c.figure == 5)
            want.push_back(bench::compareLine(c.row, c.paper,
                                              bench::measureClaim(c)));
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(block, want);
}

} // namespace
