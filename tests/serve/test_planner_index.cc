/**
 * @file
 * The serving layer's keystone contract: serve::PlannerIndex answers
 * plan queries byte-identically to core::TransferPlanner over the
 * same options — for all three characterized machines' golden
 * surfaces, through a pack file round-trip.  Both consumers share
 * one evaluator, so both are also checked against a frozen oracle: a
 * verbatim copy of the original per-option bilinear interpolation,
 * which located every query once per option.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/planner.hh"
#include "core/surface_io.hh"
#include "serve/pack.hh"
#include "serve/planner_index.hh"
#include "sim/rng.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::serve;
namespace fs = std::filesystem;

struct GoldenMachine
{
    const char *name;
    const char *primary;   ///< golden surface for the remote method
    const char *secondary; ///< golden surface standing in as "pull"
};

// Each machine gets two options built from its checked-in golden
// surfaces, so the differential runs over real measured shapes (cache
// plateaus, stride cliffs), not synthetic flats.
const GoldenMachine kMachines[] = {
    {"t3e", "golden_t3e_fetch.surf", "golden_t3e_loads.surf"},
    {"t3d", "golden_t3d_deposit.surf", "golden_t3d_loads.surf"},
    {"dec8400", "golden_dec8400_pull.surf",
     "golden_dec8400_loads.surf"},
};

core::Surface
golden(const char *file)
{
    return core::loadSurfaceFile(
        std::string(GASNUB_TESTS_DATA_DIR) + "/" + file);
}

std::vector<core::PlanOption>
goldenOptions(const GoldenMachine &m)
{
    std::vector<core::PlanOption> options;
    options.emplace_back("pull",
                         remote::TransferMethod::CoherentPull, true,
                         golden(m.secondary));
    options.emplace_back("fetch-sload",
                         remote::TransferMethod::Fetch, true,
                         golden(m.primary), std::uint64_t(256) * 1024);
    return options;
}

/**
 * Four options on the golden loads grid (4K..2M x 1..64), one of them
 * blocked inside that grid, with an option on the fetch grid
 * (64K..256K x 1..8) placed between them: the evaluator's shared cell
 * must be re-located after the blocked option when the query working
 * set is above the block, and after the grid change.
 */
std::vector<core::PlanOption>
sharedGridOptions()
{
    using remote::TransferMethod;
    std::vector<core::PlanOption> options;
    options.emplace_back("t3e-loads", TransferMethod::Fetch, true,
                         golden("golden_t3e_loads.surf"));
    options.emplace_back("t3d-loads-blocked", TransferMethod::Deposit,
                         true, golden("golden_t3d_loads.surf"),
                         std::uint64_t(256) * 1024);
    options.emplace_back("dec8400-loads",
                         TransferMethod::CoherentPull, true,
                         golden("golden_dec8400_loads.surf"));
    options.emplace_back("t3e-fetch", TransferMethod::Fetch, false,
                         golden("golden_t3e_fetch.surf"));
    options.emplace_back("t3d-loads", TransferMethod::Deposit, false,
                         golden("golden_t3d_loads.surf"));
    return options;
}

/** A surface with values that vary along every axis it has. */
core::Surface
synthetic(const char *name, std::vector<std::uint64_t> ws,
          std::vector<std::uint64_t> strides)
{
    core::Surface s(name, ws, strides);
    double v = 37.5;
    for (const std::uint64_t w : ws)
        for (const std::uint64_t st : strides)
            s.set(w, st, v += 11.25 + static_cast<double>(w % 7));
    return s;
}

/** One-row, one-column and single-point surfaces. */
std::vector<core::PlanOption>
degenerateOptions()
{
    using remote::TransferMethod;
    std::vector<core::PlanOption> options;
    options.emplace_back("one-row", TransferMethod::Fetch, true,
                         synthetic("one row", {64_KiB}, {1, 2, 8, 64}));
    options.emplace_back(
        "one-column", TransferMethod::Deposit, true,
        synthetic("one column", {4_KiB, 64_KiB, 1_MiB}, {1}),
        std::uint64_t(128) * 1024);
    options.emplace_back("one-point", TransferMethod::CoherentPull,
                         true, synthetic("one point", {64_KiB}, {4}));
    return options;
}

/** Every machine the differential runs over, by name. */
struct TestMachine
{
    std::string name;
    std::vector<core::PlanOption> options;
};

std::vector<TestMachine>
testMachines()
{
    std::vector<TestMachine> machines;
    for (const GoldenMachine &m : kMachines)
        machines.push_back({m.name, goldenOptions(m)});
    machines.push_back({"shared-grid", sharedGridOptions()});
    machines.push_back({"degenerate", degenerateOptions()});
    return machines;
}

std::vector<MachinePack>
testPacks()
{
    std::vector<MachinePack> packs;
    for (TestMachine &m : testMachines()) {
        MachinePack p;
        p.machine = m.name;
        p.options = std::move(m.options);
        packs.push_back(std::move(p));
    }
    return packs;
}

// ----------------------------------------------------------------
// The frozen oracle: the original Surface::interpolate, cellBelow and
// logWeight, copied verbatim (reading the grid through the public
// accessors), plus the original per-option working-set rule and
// strict-> selection.  Nothing here is shared with the code under
// test, so a change to the evaluator cannot move both sides at once.

namespace oracle {

/** Index of the grid cell containing @p v, clamped to the interior. */
std::size_t
cellBelow(const std::vector<std::uint64_t> &grid, double v)
{
    if (v <= static_cast<double>(grid.front()))
        return 0;
    for (std::size_t i = grid.size() - 1; i > 0; --i)
        if (static_cast<double>(grid[i]) <= v)
            return std::min(i, grid.size() - 2);
    return 0;
}

/** Interpolation weight of @p v between grid[i] and grid[i+1]. */
double
logWeight(const std::vector<std::uint64_t> &grid, std::size_t i,
          double v)
{
    if (grid.size() == 1)
        return 0.0;
    const double lo = std::log2(static_cast<double>(grid[i]));
    const double hi = std::log2(static_cast<double>(grid[i + 1]));
    const double x = std::log2(std::max(v, 1.0));
    if (x <= lo)
        return 0.0;
    if (x >= hi)
        return 1.0;
    return (x - lo) / (hi - lo);
}

double
interpolate(const core::Surface &s, double ws_bytes, double stride)
{
    const std::vector<std::uint64_t> &_workingSets = s.workingSets();
    const std::vector<std::uint64_t> &_strides = s.strides();
    const std::vector<core::SurfacePoint> points = s.points();
    const std::size_t nr = _workingSets.size();
    const std::size_t nc = _strides.size();
    const std::size_t r = nr == 1 ? 0 : cellBelow(_workingSets,
                                                  ws_bytes);
    const std::size_t c = nc == 1 ? 0 : cellBelow(_strides, stride);
    const double wr = nr == 1 ? 0 : logWeight(_workingSets, r,
                                              ws_bytes);
    const double wc = nc == 1 ? 0 : logWeight(_strides, c, stride);

    auto at_rc = [&](std::size_t rr, std::size_t cc) {
        rr = std::min(rr, nr - 1);
        cc = std::min(cc, nc - 1);
        return points[rr * nc + cc].mbs;
    };
    const double v00 = at_rc(r, c);
    const double v01 = at_rc(r, c + 1);
    const double v10 = at_rc(r + 1, c);
    const double v11 = at_rc(r + 1, c + 1);
    return (1 - wr) * ((1 - wc) * v00 + wc * v01) +
           wr * ((1 - wc) * v10 + wc * v11);
}

double
predictOptionMBs(const core::PlanOption &option, double ws,
                 std::uint64_t stride)
{
    const double eff_ws =
        option.blockBytes != 0 &&
                static_cast<double>(option.blockBytes) < ws
            ? static_cast<double>(option.blockBytes)
            : ws;
    return interpolate(*option.surface, eff_ws,
                       static_cast<double>(stride));
}

std::vector<double>
predictAll(const std::vector<core::PlanOption> &options,
           const core::TransferQuery &query)
{
    const double ws = query.wsBytes != 0
                          ? static_cast<double>(query.wsBytes)
                          : static_cast<double>(query.bytes);
    std::vector<double> out;
    for (const core::PlanOption &o : options)
        out.push_back(predictOptionMBs(o, ws, query.stride));
    return out;
}

core::Plan
best(const std::vector<core::PlanOption> &options,
     const core::TransferQuery &query)
{
    const std::vector<double> mbs = predictAll(options, query);
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < mbs.size(); ++i)
        if (mbs[i] > mbs[best_i])
            best_i = i;
    const core::PlanOption &o = options[best_i];
    core::Plan p;
    p.optionIndex = best_i;
    p.label = o.label;
    p.method = o.method;
    p.strideOnSource = o.strideOnSource;
    p.predictedMBs = mbs[best_i];
    p.predictedSeconds =
        query.bytes > 0
            ? static_cast<double>(query.bytes) / (mbs[best_i] * 1e6)
            : 0.0;
    return p;
}

} // namespace oracle

/**
 * The query corpus: a grid around the surfaces' own axes (on-grid,
 * off-grid, above, below) plus seeded random queries.  Deterministic,
 * so failures reproduce.
 */
std::vector<core::TransferQuery>
corpus()
{
    std::vector<core::TransferQuery> qs;
    for (std::uint64_t ws :
         {std::uint64_t(512), std::uint64_t(1_KiB),
          std::uint64_t(3000), std::uint64_t(4_KiB),
          std::uint64_t(64_KiB), std::uint64_t(100000),
          std::uint64_t(128_KiB), std::uint64_t(262143),
          std::uint64_t(262144), std::uint64_t(262145),
          std::uint64_t(1_MiB), std::uint64_t(2_MiB),
          std::uint64_t(32_MiB)}) {
        for (std::uint64_t st : {std::uint64_t(1), std::uint64_t(2),
                                 std::uint64_t(3), std::uint64_t(4),
                                 std::uint64_t(5), std::uint64_t(8),
                                 std::uint64_t(64),
                                 std::uint64_t(100)}) {
            qs.push_back({ws, ws, st});
            qs.push_back({4 * ws, ws, st}); // bytes != ws
            qs.push_back({ws, 0, st});      // ws defaults to bytes
        }
    }
    sim::Rng rng(42);
    for (int i = 0; i < 400; ++i) {
        core::TransferQuery q;
        q.bytes = 8 + 8 * rng.below(1 << 20);
        q.wsBytes = rng.below(2) ? q.bytes : 8 + 8 * rng.below(1 << 18);
        q.stride = 1 + rng.below(100);
        qs.push_back(q);
    }
    return qs;
}

/** Bitwise double equality: the contract is byte-identity, not
 *  within-epsilon agreement. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectIdentical(const core::Plan &want, const core::Plan &got,
                const char *machine, const core::TransferQuery &q)
{
    EXPECT_EQ(want.optionIndex, got.optionIndex)
        << machine << " bytes=" << q.bytes << " ws=" << q.wsBytes
        << " stride=" << q.stride;
    EXPECT_EQ(want.label, got.label);
    EXPECT_EQ(want.method, got.method);
    EXPECT_EQ(want.strideOnSource, got.strideOnSource);
    EXPECT_TRUE(sameBits(want.predictedMBs, got.predictedMBs))
        << machine << ": " << want.predictedMBs
        << " != " << got.predictedMBs << " at bytes=" << q.bytes
        << " ws=" << q.wsBytes << " stride=" << q.stride;
    EXPECT_TRUE(
        sameBits(want.predictedSeconds, got.predictedSeconds));
}

void
runDifferential(const PlannerIndex &index)
{
    const std::vector<core::TransferQuery> qs = corpus();
    for (const TestMachine &m : testMachines()) {
        core::TransferPlanner planner;
        for (const core::PlanOption &o : m.options)
            planner.addOption(o);
        const int id = index.machineId(m.name);
        ASSERT_GE(id, 0) << m.name;
        for (const core::TransferQuery &q : qs) {
            const core::Plan want = oracle::best(m.options, q);
            expectIdentical(want, planner.best(q), m.name.c_str(), q);
            expectIdentical(
                want, index.planFull(static_cast<std::size_t>(id), q),
                m.name.c_str(), q);
        }
    }
}

TEST(PlannerIndexDifferential, MatchesThePlannerAndTheFrozenOracle)
{
    runDifferential(PlannerIndex(testPacks()));
}

TEST(PlannerIndexDifferential, SurvivesAPackFileRoundTrip)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "index_packs";
    fs::create_directories(dir);
    std::vector<std::string> paths;
    for (const MachinePack &p : testPacks()) {
        const fs::path path = dir / (p.machine + ".pack");
        savePackFile(p, path.string());
        paths.push_back(path.string());
    }
    runDifferential(PlannerIndex::fromPackFiles(paths));
    fs::remove_all(dir);
}

TEST(PlannerIndexDifferential, SurfaceInterpolationMatchesTheOracle)
{
    // Every option surface, one query at a time (no shared cell),
    // including fractional coordinates between and beyond the axes.
    std::vector<double> coords = {0.5, 1, 1.5, 3, 1000, 4096, 4097,
                                  65535.5, 65536, 70000, 262144,
                                  1e6, 2097152, 1e9};
    for (const TestMachine &m : testMachines()) {
        for (const core::PlanOption &o : m.options) {
            for (const double ws : coords) {
                for (const double st : coords) {
                    const double want =
                        oracle::interpolate(*o.surface, ws, st);
                    const double got = o.surface->interpolate(ws, st);
                    EXPECT_TRUE(sameBits(want, got))
                        << o.surface->name() << " at (" << ws << ", "
                        << st << "): " << want << " != " << got;
                }
            }
        }
    }
}

TEST(PlannerIndex, PlanAndPlanFullAgree)
{
    const PlannerIndex index(testPacks());
    for (const core::TransferQuery &q : corpus()) {
        const PlanAnswer a = index.plan(0, q);
        const core::Plan p = index.planFull(0, q);
        EXPECT_EQ(a.optionIndex, p.optionIndex);
        EXPECT_EQ(std::string(a.label), p.label);
        EXPECT_EQ(a.method, p.method);
        EXPECT_TRUE(sameBits(a.predictedMBs, p.predictedMBs));
        EXPECT_TRUE(
            sameBits(a.predictedSeconds, p.predictedSeconds));
    }
}

TEST(PlannerIndex, PredictAllMatchesThePlanner)
{
    const PlannerIndex index(testPacks());
    std::vector<double> got;
    for (const TestMachine &m : testMachines()) {
        core::TransferPlanner planner;
        for (const core::PlanOption &o : m.options)
            planner.addOption(o);
        const int id = index.machineId(m.name);
        for (const core::TransferQuery &q : corpus()) {
            const std::vector<double> want =
                oracle::predictAll(m.options, q);
            const std::vector<double> planned = planner.predictAll(q);
            index.predictAll(static_cast<std::size_t>(id), q, got);
            ASSERT_EQ(want.size(), planned.size());
            ASSERT_EQ(want.size(), got.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_TRUE(sameBits(want[i], planned[i]))
                    << m.name << " option " << i;
                EXPECT_TRUE(sameBits(want[i], got[i]))
                    << m.name << " option " << i;
            }
        }
    }
}

TEST(PlannerIndex, ConcurrentQueriesMatchSerialAnswers)
{
    // The index is immutable and lock-free: threads sharing it must
    // see exactly the serial answers (run under TSan in CI).
    const PlannerIndex index(testPacks());
    const std::vector<core::TransferQuery> qs = corpus();
    std::vector<double> want;
    for (std::size_t m = 0; m < index.numMachines(); ++m)
        for (const core::TransferQuery &q : qs)
            want.push_back(index.plan(m, q).predictedMBs);
    constexpr int kThreads = 4;
    std::vector<std::vector<double>> got(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t m = 0; m < index.numMachines(); ++m)
                for (const core::TransferQuery &q : qs)
                    got[t].push_back(index.plan(m, q).predictedMBs);
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_TRUE(sameBits(want[i], got[t][i])) << i;
    }
}

TEST(PlannerIndex, MachineLookupIsExact)
{
    const PlannerIndex index(testPacks());
    EXPECT_EQ(index.numMachines(), 5u);
    EXPECT_GE(index.machineId("t3e"), 0);
    EXPECT_GE(index.machineId("dec8400"), 0);
    EXPECT_EQ(index.machineId("sp2"), -1);
    EXPECT_EQ(index.machineId(""), -1);
    EXPECT_EQ(
        index.machineName(
            static_cast<std::size_t>(index.machineId("t3d"))),
        "t3d");
}

TEST(PlannerIndexDeath, DuplicateMachineNamesAreRejected)
{
    std::vector<MachinePack> packs = testPacks();
    packs[1].machine = packs[0].machine;
    EXPECT_EXIT(PlannerIndex{std::move(packs)},
                ::testing::ExitedWithCode(1), "duplicate machine");
}

TEST(PlannerIndexDeath, DegenerateQueriesDieLikeThePlanner)
{
    const PlannerIndex index(testPacks());
    EXPECT_EXIT(index.plan(99, {1_KiB, 1_KiB, 1}),
                ::testing::ExitedWithCode(1), "machine");
    EXPECT_EXIT(index.plan(0, {0, 0, 1}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(index.plan(0, {1_KiB, 1_KiB, 0}),
                ::testing::ExitedWithCode(1), "stride");
}

} // namespace
