/**
 * @file
 * Regenerates Figure 3: load bandwidth of the Cray T3D for different
 * access patterns and working sets; one processor active.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 3",
                  "Cray T3D local load bandwidth (stride x working "
                  "set), one processor");
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    const auto cfg =
        bench::surfaceGrid(bench::fullRun(argc, argv), 16_MiB, 4_MiB);
    core::Surface s = bench::sweep(m, "loads", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(3);
    obs.finish(m.statsGroup());
    return 0;
}
