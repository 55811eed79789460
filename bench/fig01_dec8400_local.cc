/**
 * @file
 * Regenerates Figure 1: load bandwidth of the DEC 8400 for different
 * access patterns (strides) and working sets; one processor active.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 1",
                  "DEC 8400 local load bandwidth (stride x working "
                  "set), one processor");
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    const auto cfg =
        bench::surfaceGrid(bench::fullRun(argc, argv), 128_MiB, 12_MiB);
    core::Surface s = bench::sweep(m, "loads", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(1);
    obs.finish(m.statsGroup());
    return 0;
}
