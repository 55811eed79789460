/**
 * @file
 * Regenerates Figure 9: DEC 8400 local memory copy bandwidth for
 * large transfers, strided loads vs. strided stores.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 9",
                  "DEC 8400 local copy, 65 MB working set: strided "
                  "loads vs strided stores");
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    auto cfg = bench::copySliceGrid(12_MiB);
    core::Surface sl = bench::sweep(m, "copy-sload", cfg, obs.jobs);
    core::Surface ss = bench::sweep(m, "copy-sstore", cfg, obs.jobs);
    sl.print(std::cout);
    ss.print(std::cout);
    bench::compare(9);
    obs.finish(m.statsGroup());
    return 0;
}
