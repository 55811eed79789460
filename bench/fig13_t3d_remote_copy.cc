/**
 * @file
 * Regenerates Figure 13: Cray T3D remote copy transfer p0 -> p2 at a
 * 65 MB working set: strided loads vs strided remote stores.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 13",
                  "Cray T3D remote copy transfer p0 -> p2, 65 MB");
    machine::Machine m(machine::SystemKind::CrayT3D, 4);
    auto cfg = bench::copySliceGrid(4_MiB);
    core::Surface sl = bench::sweep(m, "deposit-sload", cfg, obs.jobs);
    core::Surface ss = bench::sweep(m, "deposit-sstore", cfg, obs.jobs);
    sl.print(std::cout);
    ss.print(std::cout);
    bench::compare(13);
    obs.finish(m.statsGroup());
    return 0;
}
