/**
 * @file
 * Regenerates Figure 7: Cray T3E transfer bandwidth under the fetch
 * model (shmem_iget through the E-registers), p0 <- pull <- p1.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 7",
                  "Cray T3E fetch (shmem_iget) transfer bandwidth");
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto cfg = bench::remoteGrid(bench::fullRun(argc, argv), 16_MiB,
                                 1_MiB);
    core::Surface s = bench::sweep(m, "fetch-sload", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(7);
    obs.finish(m.statsGroup());
    return 0;
}
