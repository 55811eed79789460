/**
 * @file
 * Regenerates Figure 2: DEC 8400 remote (coherent pull) bandwidth for
 * different strides and working sets; transfers P1 -> P0.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 2",
                  "DEC 8400 remote pull bandwidth (P0 <- pull <- P1)");
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    auto cfg = bench::remoteGrid(bench::fullRun(argc, argv), 32_MiB,
                                 12_MiB);
    core::Surface s = bench::sweep(m, "pull", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(2);
    obs.finish(m.statsGroup());
    return 0;
}
