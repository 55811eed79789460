/**
 * @file
 * Regenerates Figure 5: Cray T3D transfer bandwidth under the deposit
 * model (remote stores captured from the write-back queue).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 5",
                  "Cray T3D deposit (remote stores) transfer "
                  "bandwidth, p0,1 -> push -> p2,3");
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    auto cfg = bench::remoteGrid(bench::fullRun(argc, argv), 16_MiB,
                                 512_KiB);
    core::Surface s = bench::sweep(m, "deposit-sstore", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(5);
    obs.finish(m.statsGroup());
    return 0;
}
