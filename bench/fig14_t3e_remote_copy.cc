/**
 * @file
 * Regenerates Figure 14: Cray T3E remote copy transfer p1 -> p0 at a
 * 65 MB working set: strided loads (iget) vs strided remote stores
 * (iput), with the even/odd ripples.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv);
    bench::banner("Figure 14",
                  "Cray T3E remote copy transfer p1 -> p0, 65 MB");
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    auto cfg = bench::copySliceGrid(4_MiB);
    core::Surface sl = bench::sweep(m, "fetch-sload", cfg, obs.jobs);
    core::Surface ss = bench::sweep(m, "deposit-sstore", cfg, obs.jobs);
    sl.print(std::cout);
    ss.print(std::cout);
    std::printf("Fetch (strided gathers) is flat ~140; deposit "
                "(strided scatters)\nripples between ~70 (even) and "
                "~140 (odd) — hence the Fx back-end\ngenerates fetch "
                "code for the T3E (paper Section 9).\n");
    bench::compare(14);
    obs.finish(m.statsGroup());
    return 0;
}
