/**
 * @file
 * Regenerates Figure 12: DEC 8400 remote copy transfer (p0 <- p1) at
 * a 65 MB working set, for different strides.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 12",
                  "DEC 8400 remote copy transfer p1 -> p0, 65 MB");
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    auto cfg = bench::copySliceGrid(12_MiB);
    core::Surface s = bench::sweep(m, "pull", cfg, obs.jobs);
    s.print(std::cout);
    bench::compare(12);
    obs.finish(m.statsGroup());
    return 0;
}
