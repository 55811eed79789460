/**
 * @file
 * Round-trip tests for the gas-pack-1 binary surface pack: what goes
 * in comes out bit-for-bit — labels, methods, blocking, grids,
 * bandwidth doubles, and v2 attribution — and re-serializing a loaded
 * pack reproduces the original file byte-for-byte.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/surface.hh"
#include "serve/pack.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::serve;
namespace fs = std::filesystem;

/** A surface with non-trivial doubles (irrational-ish values so a
 *  text round-trip would visibly differ from a binary one). */
core::Surface
bumpySurface(const std::string &name, double base)
{
    core::Surface s(name, {1_KiB, 64_KiB, 1_MiB}, {1, 2, 8, 64});
    double v = base;
    for (std::uint64_t ws : s.workingSets()) {
        for (std::uint64_t st : s.strides()) {
            v = v * 1.0000001 + 0.125;
            s.set(ws, st, v);
        }
    }
    return s;
}

core::Surface
attributedSurface(const std::string &name)
{
    core::Surface s = bumpySurface(name, 250.0);
    s.enableAttribution({"dram", "link"});
    std::uint64_t e = 1000;
    for (std::uint64_t ws : s.workingSets()) {
        for (std::uint64_t st : s.strides()) {
            e += 17;
            s.setAttribution(ws, st, static_cast<Tick>(e),
                             {static_cast<Tick>(e - 300),
                              static_cast<Tick>(300)});
        }
    }
    return s;
}

MachinePack
samplePack()
{
    MachinePack pack;
    pack.machine = "t3e";
    pack.options.emplace_back("pull",
                              remote::TransferMethod::CoherentPull,
                              true, bumpySurface("pull", 80.0));
    pack.options.emplace_back("fetch-sload",
                              remote::TransferMethod::Fetch, true,
                              attributedSurface("fetch"),
                              std::uint64_t(512) * 1024);
    pack.options.emplace_back("deposit-sstore",
                              remote::TransferMethod::Deposit, false,
                              bumpySurface("deposit", 310.0));
    return pack;
}

std::string
packBytes(const MachinePack &pack)
{
    std::ostringstream os;
    savePack(pack, os);
    return os.str();
}

MachinePack
reload(const std::string &bytes, const std::string &context)
{
    return parsePack(
        reinterpret_cast<const unsigned char *>(bytes.data()),
        bytes.size(), context);
}

/** Bit-exact double comparison (EXPECT_EQ conflates -0.0/0.0 and
 *  would accept a NaN != NaN miscompare path). */
void
expectSameBits(double a, double b)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, 8);
    std::memcpy(&bb, &b, 8);
    EXPECT_EQ(ab, bb);
}

TEST(PackRoundTrip, EveryFieldSurvives)
{
    const MachinePack in = samplePack();
    const MachinePack out = reload(packBytes(in), "mem");

    EXPECT_EQ(out.machine, "t3e");
    ASSERT_EQ(out.options.size(), in.options.size());
    for (std::size_t i = 0; i < in.options.size(); ++i) {
        const core::PlanOption &a = in.options[i];
        const core::PlanOption &b = out.options[i];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.method, b.method);
        EXPECT_EQ(a.strideOnSource, b.strideOnSource);
        EXPECT_EQ(a.blockBytes, b.blockBytes);
        const core::Surface &sa = *a.surface;
        const core::Surface &sb = *b.surface;
        EXPECT_EQ(sa.name(), sb.name());
        ASSERT_EQ(sa.workingSets(), sb.workingSets());
        ASSERT_EQ(sa.strides(), sb.strides());
        for (std::uint64_t ws : sa.workingSets())
            for (std::uint64_t st : sa.strides())
                expectSameBits(sa.at(ws, st), sb.at(ws, st));
    }
}

TEST(PackRoundTrip, AttributionSurvivesExactly)
{
    const MachinePack out = reload(packBytes(samplePack()), "mem");
    const core::Surface &s = *out.options[1].surface;
    ASSERT_TRUE(s.hasAttribution());
    ASSERT_EQ(s.attrResources(),
              (std::vector<std::string>{"dram", "link"}));
    const MachinePack original = samplePack();
    const core::Surface &in = *original.options[1].surface;
    for (std::uint64_t ws : s.workingSets()) {
        for (std::uint64_t st : s.strides()) {
            EXPECT_EQ(s.elapsedAt(ws, st), in.elapsedAt(ws, st));
            EXPECT_EQ(s.attributionAt(ws, st),
                      in.attributionAt(ws, st));
        }
    }
    EXPECT_FALSE(out.options[0].surface->hasAttribution());
}

TEST(PackRoundTrip, ReserializingReproducesTheFileBitForBit)
{
    // The acceptance bar: pack -> parse -> pack is the identity on
    // the byte stream, so packs can be diffed with cmp.
    const std::string first = packBytes(samplePack());
    const std::string second = packBytes(reload(first, "mem"));
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                             first.size()));
}

TEST(PackRoundTrip, WriterIsDeterministic)
{
    EXPECT_EQ(packBytes(samplePack()), packBytes(samplePack()));
}

TEST(PackRoundTrip, FileRoundTrip)
{
    const fs::path path =
        fs::path(::testing::TempDir()) / "roundtrip.pack";
    const MachinePack in = samplePack();
    savePackFile(in, path.string());
    const MachinePack out = loadPackFile(path.string());
    EXPECT_EQ(out.machine, in.machine);
    ASSERT_EQ(out.options.size(), in.options.size());
    const std::string again = packBytes(out);
    EXPECT_EQ(packBytes(in), again);
    fs::remove(path);
}

TEST(PackRoundTrip, PipeRoundTrip)
{
    // A pipe has no size to stat; the loader reads to end of file.
    // The writer thread feeds more than one pipe buffer's worth, so
    // the read loop must keep going past partial reads.
    std::vector<std::uint64_t> ws, strides;
    for (std::uint64_t i = 1; i <= 64; ++i) {
        ws.push_back(i * 1_KiB);
        strides.push_back(i);
    }
    MachinePack in = samplePack();
    for (int i = 0; i < 8; ++i) {
        core::Surface s("wide", ws, strides);
        for (std::uint64_t w : ws)
            for (std::uint64_t st : strides)
                s.set(w, st, 100.0 + i + 1e-3 * w / st);
        in.options.emplace_back("wide-" + std::to_string(i),
                                remote::TransferMethod::Deposit, false,
                                std::move(s));
    }
    const std::string bytes = packBytes(in);
    ASSERT_GT(bytes.size(), std::size_t(1) << 17);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::thread writer([&] {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::write(fds[1], bytes.data() + off,
                                      bytes.size() - off);
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        ::close(fds[1]);
    });
    const MachinePack out =
        loadPackFile("/dev/fd/" + std::to_string(fds[0]));
    writer.join();
    ::close(fds[0]);
    EXPECT_EQ(out.machine, in.machine);
    ASSERT_EQ(out.options.size(), in.options.size());
    EXPECT_EQ(packBytes(out), bytes);
}

TEST(PackFormat, EmptyFileIsDiagnosedAsTruncated)
{
    const fs::path path = fs::path(::testing::TempDir()) / "empty.pack";
    std::ofstream(path.string()).close();
    EXPECT_EXIT(loadPackFile(path.string()),
                ::testing::ExitedWithCode(1),
                "pack '.*empty\\.pack', offset 0: file is");
    fs::remove(path);
}

TEST(PackFormat, TruncatedFileNamesThePath)
{
    const fs::path path =
        fs::path(::testing::TempDir()) / "truncated.pack";
    const std::string bytes = packBytes(samplePack());
    {
        std::ofstream os(path.string(), std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() - 100));
    }
    EXPECT_EXIT(loadPackFile(path.string()),
                ::testing::ExitedWithCode(1),
                "pack '.*truncated\\.pack', offset ");
    fs::remove(path);
}

TEST(PackFormat, HeaderLayoutIsPinned)
{
    // The on-disk header is a compatibility contract; catch drive-by
    // format changes that forget to bump the version.
    const std::string bytes = packBytes(samplePack());
    ASSERT_GE(bytes.size(), 48u);
    EXPECT_EQ(0, std::memcmp(bytes.data(), "gaspack1", 8));
    std::uint32_t version, endian;
    std::memcpy(&version, bytes.data() + 8, 4);
    std::memcpy(&endian, bytes.data() + 12, 4);
    EXPECT_EQ(version, kPackVersion);
    EXPECT_EQ(endian, kPackEndianTag);
    std::uint64_t total;
    std::memcpy(&total, bytes.data() + 16, 8);
    EXPECT_EQ(total, bytes.size());
    std::uint64_t marker;
    std::memcpy(&marker, bytes.data() + bytes.size() - 8, 8);
    EXPECT_EQ(marker, kPackEndMarker);
}

TEST(PackFormat, MissingFileIsAClearError)
{
    EXPECT_EXIT(loadPackFile("/nonexistent/gasnub.pack"),
                ::testing::ExitedWithCode(1),
                "cannot open pack '/nonexistent/gasnub\\.pack'");
}

TEST(PackFormat, UnreadableFileIsAClearError)
{
    // A directory opens but cannot be read.
    EXPECT_EXIT(loadPackFile(::testing::TempDir()),
                ::testing::ExitedWithCode(1), "cannot read pack '");
}

} // namespace
