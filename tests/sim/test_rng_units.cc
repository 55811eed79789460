/**
 * @file
 * Unit and property tests for the RNG and unit helpers.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using gasnub::sim::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng r(99);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Units, LiteralsAreBinary)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2097152u);
    EXPECT_EQ(1_GiB, 1073741824u);
}

TEST(Units, BandwidthMBsRoundTrip)
{
    // 1000 bytes in 1 us (1e6 ticks) = 1000 MB/s.
    EXPECT_DOUBLE_EQ(bandwidthMBs(1000, 1000000), 1000.0);
    // and the inverse:
    EXPECT_EQ(ticksForBytes(1000, 1000.0), 1000000u);
}

TEST(Units, TicksForBytesRoundsUp)
{
    // 1 byte at 3 MB/s = 333333.3 ps -> 333334.
    EXPECT_EQ(ticksForBytes(1, 3.0), 333334u);
}

TEST(Units, FormatSizeMatchesPaperAxisStyle)
{
    EXPECT_EQ(formatSize(512), ".5k");
    EXPECT_EQ(formatSize(64_KiB), "64k");
    EXPECT_EQ(formatSize(8_MiB), "8M");
    EXPECT_EQ(formatSize(1_GiB), "1G");
    EXPECT_EQ(formatSize(1000), "1000");
}

TEST(Units, ParseSizeAcceptsSuffixes)
{
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("64k"), 64_KiB);
    EXPECT_EQ(parseSize("64K"), 64_KiB);
    EXPECT_EQ(parseSize("8M"), 8_MiB);
    EXPECT_EQ(parseSize("1g"), 1_GiB);
    EXPECT_EQ(parseSize("2kb"), 2_KiB);
    EXPECT_EQ(parseSize(".5k"), 512u);
}

// Malformed sizes are user errors: fatal with exit code 1 and a
// message naming the input, never a silent zero or a truncation.
TEST(UnitsDeath, EmptySizeIsFatal)
{
    EXPECT_EXIT(parseSize(""), ::testing::ExitedWithCode(1),
                "empty size string");
}

TEST(UnitsDeath, NonNumericSizeIsFatal)
{
    EXPECT_EXIT(parseSize("big"), ::testing::ExitedWithCode(1),
                "malformed size: 'big'");
}

TEST(UnitsDeath, UnknownSuffixIsFatal)
{
    EXPECT_EXIT(parseSize("12q"), ::testing::ExitedWithCode(1),
                "unknown size suffix in '12q'");
}

TEST(UnitsDeath, TrailingJunkIsFatal)
{
    EXPECT_EXIT(parseSize("4kx"), ::testing::ExitedWithCode(1),
                "trailing junk in size '4kx'");
}

TEST(UnitsDeath, FractionalByteCountIsFatal)
{
    EXPECT_EXIT(parseSize("1.5"), ::testing::ExitedWithCode(1),
                "not a whole byte count: '1.5'");
    EXPECT_EXIT(parseSize("-2k"), ::testing::ExitedWithCode(1),
                "not a whole byte count: '-2k'");
}

class ParseFormatRoundTrip
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ParseFormatRoundTrip, FormatThenParseIsIdentity)
{
    const std::uint64_t bytes = GetParam();
    EXPECT_EQ(parseSize(formatSize(bytes)), bytes);
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkingSets, ParseFormatRoundTrip,
    ::testing::Values(512, 1_KiB, 2_KiB, 4_KiB, 8_KiB, 16_KiB, 32_KiB,
                      64_KiB, 128_KiB, 256_KiB, 512_KiB, 1_MiB, 2_MiB,
                      4_MiB, 8_MiB, 16_MiB, 32_MiB, 65_MiB, 128_MiB));

} // namespace
