/**
 * @file
 * Regenerates Figure 8: Cray T3E transfer bandwidth under the deposit
 * model (shmem_iput), p1 -> push -> p0, with the even/odd-stride
 * ripples from destination bank conflicts.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 8",
                  "Cray T3E deposit (shmem_iput) transfer bandwidth");
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto cfg = bench::remoteGrid(bench::fullRun(argc, argv), 16_MiB,
                                 1_MiB);
    core::Surface s = bench::sweep(m, "deposit-sstore", cfg, obs.jobs);
    s.print(std::cout);
    std::printf("Ripples: even strides hit the same destination bank "
                "parity in\nconsecutive receives (paper Section "
                "5.6).\n");
    bench::compare(8);
    obs.finish(m.statsGroup());
    return 0;
}
