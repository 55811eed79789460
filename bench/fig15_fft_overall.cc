/**
 * @file
 * Regenerates Figure 15: total application performance of the 2D-FFT
 * benchmark on 4 processors of a Cray T3D, a DEC 8400, and a Cray
 * T3E.
 */

#include "fft_common.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv,
                             bench::Observability::Outputs::ProfileOnly);
    bench::banner("Figure 15",
                  "2D-FFT overall application performance, 4 "
                  "processors");
    auto sweep = bench::runFftSweep(obs.jobs);
    bench::printFftTable(sweep, "MFlop/s total",
                         [](const fft::Fft2dResult &r) {
                             return r.overallMFlops;
                         });
    bench::compare(15);
    obs.finish();
    return 0;
}
