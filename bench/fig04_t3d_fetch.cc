/**
 * @file
 * Regenerates Figure 4: Cray T3D transfer bandwidth under the fetch
 * model (remote loads / shmem_iget), p2,3 <- pull <- p0,1.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 4",
                  "Cray T3D fetch (remote loads) transfer bandwidth");
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    auto cfg = bench::remoteGrid(bench::fullRun(argc, argv), 16_MiB,
                                 512_KiB);
    core::Surface s = bench::sweep(m, "fetch-sload", cfg, obs.jobs);
    s.print(std::cout);
    std::printf("The paper: naive remote loads run an order of "
                "magnitude below the\nnetwork bandwidth; the "
                "prefetch FIFO helps but fetch stays inferior\nto "
                "deposit everywhere (compare Figure 5).\n");
    bench::compare(4);
    obs.finish(m.statsGroup());
    return 0;
}
