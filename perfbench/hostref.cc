/**
 * @file
 * Host-speed reference of the perfbench harness (README.md, "Noise").
 * One unit is a fixed piece of single-threaded work shaped like the
 * programs under test — 4-way set-associative tag lookups with
 * round-robin replacement over a 64 MB tag array, driven by a strided
 * address stream — and it shares no code with the repository.  run.py
 * compiles it with fixed flags, keeps one process alive for the whole
 * run, and asks for units between its own samples:
 *
 *   hostref       for each line on stdin, run one unit and print its
 *                 wall time in nanoseconds
 *
 * Other tenants of a shared host slow memory-bound code by up to 2x for
 * a minute at a time.  The unit never changes with the program, so its
 * time tracks the host alone.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

constexpr std::uint32_t kSets = 1u << 21; // x 4 ways x 8 B = 64 MB of tags
constexpr int kProbes = 400000;
constexpr int kWarmUnits = 8;

struct TagArray
{
    std::vector<std::uint64_t> tags =
        std::vector<std::uint64_t>(4 * std::size_t(kSets));
    std::vector<std::uint8_t> victim = std::vector<std::uint8_t>(kSets);
    std::uint64_t addr = 0;
    std::uint64_t misses = 0;

    void
    unit()
    {
        for (int i = 0; i < kProbes; ++i) {
            addr += 64 * 37 + ((addr >> 20) & 7) * 8;
            const std::uint64_t line = addr >> 6;
            const std::uint32_t set =
                static_cast<std::uint32_t>(line * 0x9e3779b1u) % kSets;
            std::uint64_t *way = &tags[4 * std::size_t(set)];
            bool hit = false;
            for (int w = 0; w < 4; ++w)
                hit |= way[w] == line;
            if (!hit) {
                way[victim[set]] = line;
                victim[set] = (victim[set] + 1) & 3;
                ++misses;
            }
        }
    }
};

} // namespace

int
main()
{
    TagArray cache;
    // Touch the whole array first so every unit sees the same state.
    for (int i = 0; i < kWarmUnits; ++i)
        cache.unit();
    char line[64];
    while (std::fgets(line, sizeof(line), stdin)) {
        const auto t0 = std::chrono::steady_clock::now();
        cache.unit();
        const auto t1 = std::chrono::steady_clock::now();
        std::printf(
            "%lld %llu\n",
            static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()),
            static_cast<unsigned long long>(cache.misses & 1));
        std::fflush(stdout);
    }
    return 0;
}
