/**
 * @file
 * Regenerates Figure 16: local computation performance of the 2D-FFT
 * benchmark on 4 processors (vendor-library 1D FFTs).
 */

#include "fft_common.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv,
                             bench::Observability::Outputs::ProfileOnly);
    bench::banner("Figure 16",
                  "2D-FFT local computation performance, 4 "
                  "processors");
    auto sweep = bench::runFftSweep(obs.jobs);
    bench::printFftTable(sweep, "MFlop/s total",
                         [](const fft::Fft2dResult &r) {
                             return r.computeMFlops;
                         });
    bench::compare(16);
    obs.finish();
    return 0;
}
