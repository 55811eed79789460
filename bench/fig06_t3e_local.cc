/**
 * @file
 * Regenerates Figure 6: load bandwidth of the Cray T3E for different
 * access patterns and working sets; one processor active.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 6",
                  "Cray T3E local load bandwidth (stride x working "
                  "set), one processor");
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    const auto cfg =
        bench::surfaceGrid(bench::fullRun(argc, argv), 8_MiB, 4_MiB);
    core::Surface s = bench::sweep(m, "loads", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(6);
    obs.finish(m.statsGroup());
    return 0;
}
