/**
 * @file
 * Regenerates Figure 11: Cray T3E local memory copy bandwidth for
 * large transfers, strided loads vs. strided stores.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 11",
                  "Cray T3E local copy, 65 MB working set: strided "
                  "loads vs strided stores");
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto cfg = bench::copySliceGrid(4_MiB);
    core::Surface sl = bench::sweep(m, "copy-sload", cfg, obs.jobs);
    core::Surface ss = bench::sweep(m, "copy-sstore", cfg, obs.jobs);
    sl.print(std::cout);
    ss.print(std::cout);
    std::printf("\"The write-back caches prohibit efficient strided "
                "stores\" — the\nstrided picture resembles the DEC "
                "8400, not the T3D.\n");
    bench::compare(11);
    obs.finish(m.statsGroup());
    return 0;
}
