/**
 * @file
 * Golden-surface regression tests: small characterization surfaces for
 * every machine, checked against files committed under tests/data/.
 * Any change to the timing model shows up here as a point-by-point
 * diff instead of a silently shifted figure.
 *
 * To regenerate the golden files after an *intentional* model change:
 *
 *     GASNUB_REGEN_GOLDEN=1 ./build/tests/test_core \
 *         --gtest_filter='GoldenSurfaces*'
 *
 * then review the diff of the .surf files under tests/data/ and
 * commit it together with the model change that explains it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "core/characterizer.hh"
#include "core/surface_io.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

#ifndef GASNUB_TESTS_DATA_DIR
#error "GASNUB_TESTS_DATA_DIR must point at tests/data"
#endif

namespace {

using namespace gasnub;
using namespace gasnub::core;

struct GoldenCase
{
    const char *file;            ///< file name under tests/data/
    machine::SystemKind kind;
    SweepSpec spec;
    CharacterizeConfig cfg;
};

CharacterizeConfig
localGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {4_KiB, 64_KiB, 2_MiB};
    cfg.strides = {1, 8, 64};
    cfg.capBytes = 2_MiB;
    return cfg;
}

CharacterizeConfig
remoteGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {64_KiB, 256_KiB};
    cfg.strides = {1, 2, 3, 8};
    cfg.capBytes = 256_KiB;
    return cfg;
}

std::vector<GoldenCase>
goldenCases()
{
    // One local-loads surface per machine plus one surface of each
    // machine's native remote method (8400 coherent pull, T3D deposit
    // between distinct NICs, T3E fetch).
    return {
        {"golden_dec8400_loads.surf", machine::SystemKind::Dec8400,
         SweepSpec::localLoads(0), localGrid()},
        {"golden_t3d_loads.surf", machine::SystemKind::CrayT3D,
         SweepSpec::localLoads(0), localGrid()},
        {"golden_t3e_loads.surf", machine::SystemKind::CrayT3E,
         SweepSpec::localLoads(0), localGrid()},
        {"golden_dec8400_pull.surf", machine::SystemKind::Dec8400,
         SweepSpec::remote(remote::TransferMethod::CoherentPull, true,
                           1, 0),
         remoteGrid()},
        {"golden_t3d_deposit.surf", machine::SystemKind::CrayT3D,
         SweepSpec::remote(remote::TransferMethod::Deposit, false, 0,
                           2),
         remoteGrid()},
        {"golden_t3e_fetch.surf", machine::SystemKind::CrayT3E,
         SweepSpec::remote(remote::TransferMethod::Fetch, true, 1, 0),
         remoteGrid()},
    };
}

Surface
compute(const GoldenCase &gc)
{
    machine::Machine m(gc.kind, 4);
    Characterizer c(m);
    return c.run(gc.spec, gc.cfg);
}

class GoldenSurfaces
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenSurfaces, MatchesCommittedFile)
{
    const GoldenCase gc = goldenCases()[GetParam()];
    const std::string path =
        std::string(GASNUB_TESTS_DATA_DIR) + "/" + gc.file;
    const Surface fresh = compute(gc);

    if (std::getenv("GASNUB_REGEN_GOLDEN")) {
        saveSurfaceFile(fresh, path);
        GTEST_SKIP() << "regenerated " << path;
    }

    const Surface golden = loadSurfaceFile(path);
    EXPECT_EQ(golden.name(), fresh.name());
    ASSERT_EQ(golden.workingSets(), fresh.workingSets());
    ASSERT_EQ(golden.strides(), fresh.strides());
    for (std::uint64_t ws : golden.workingSets()) {
        for (std::uint64_t st : golden.strides()) {
            const double want = golden.at(ws, st);
            const double got = fresh.at(ws, st);
            // The model is deterministic; the tolerance only absorbs
            // the text round-trip of the surface format.
            EXPECT_NEAR(got, want, 1e-6 * std::abs(want) + 1e-9)
                << gc.file << " ws=" << ws << " stride=" << st;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(All, GoldenSurfaces,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto &info) {
                             std::string n =
                                 goldenCases()[info.param].file;
                             n = n.substr(0, n.find('.'));
                             return n;
                         });

} // namespace
