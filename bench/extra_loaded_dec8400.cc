/**
 * @file
 * The loaded-machine experiment of Section 5.1: all four processors
 * of the DEC 8400 run the Load-Sum benchmark concurrently.  The paper
 * measured a bandwidth decrease of about 8% for contiguous and 25%
 * for strided DRAM accesses; caches are unaffected.
 */

#include "bench_util.hh"
#include "kernels/remote_kernels.hh"

int
main(int, char **)
{
    using namespace gasnub;
    bench::banner("Extra (Section 5.1)",
                  "DEC 8400 under full load: 4 processors running "
                  "Load-Sum concurrently");
    machine::Machine m(machine::SystemKind::Dec8400, 4);

    std::printf("%-28s %10s %10s %8s\n", "configuration", "idle",
                "loaded", "change");
    struct Case
    {
        const char *what;
        std::uint64_t ws;
        std::uint64_t stride;
    };
    for (const Case &c :
         {Case{"L2 cache, strided", 64_KiB, 8},
          Case{"DRAM contiguous", 8_MiB, 1},
          Case{"DRAM strided", 8_MiB, 16}}) {
        kernels::KernelParams p;
        p.wsBytes = c.ws;
        p.stride = c.stride;
        p.capBytes = 8_MiB;
        const double idle = kernels::loadSumOn(m, 0, p).mbs;
        const double loaded = kernels::loadSumLoaded(m, p).mbs;
        std::printf("%-28s %10.1f %10.1f %7.1f%%\n", c.what, idle,
                    loaded, 100.0 * (loaded - idle) / idle);
    }
    std::printf("\nPaper: caches keep full speed; DRAM loses ~8%% "
                "contiguous and ~25%%\nstrided under full load.\n");
    return 0;
}
