/**
 * @file
 * Regenerates Figure 17: communication performance in the transposes
 * of the 2D-FFT benchmark on 4 processors.
 */

#include "fft_common.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::Observability obs(argc, argv,
                             bench::Observability::Outputs::ProfileOnly);
    bench::banner("Figure 17",
                  "2D-FFT transpose communication performance, 4 "
                  "processors");
    auto sweep = bench::runFftSweep(obs.jobs);
    bench::printFftTable(sweep, "MByte/s total",
                         [](const fft::Fft2dResult &r) {
                             return r.commMBs;
                         });
    std::printf("\nPaper: the 8400 communication system 'runs at "
                "approximately the same\nperformance level as the ... "
                "Cray T3D'; the T3E leads but below its\npotential due "
                "to the shmem_iput mismatch (compare the n = 256 "
                "column).\n");
    obs.finish();
    return 0;
}
