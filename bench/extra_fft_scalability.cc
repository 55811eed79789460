/**
 * @file
 * The Section 8 scalability experiment: the compiled 2D-FFT on large
 * Cray T3D partitions stays near 20 MFlop/s per processor ("almost
 * linear scalability from 16 to 512 nodes", 8.75 GFlop/s at 512).
 * Transposes are simulated with a per-block row cap and extrapolated.
 */

#include "bench_util.hh"
#include "fft/fft2d_dist.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::banner("Extra (Section 8)",
                  "2D-FFT scalability on large Cray T3D partitions");
    const bool full = bench::fullRun(argc, argv);
    std::printf("%8s %8s %12s %14s %12s\n", "procs", "n", "overall",
                "MFlop/s/proc", "comm MB/s");
    double last_per_proc = 0;
    for (int procs : {16, 64, 128, 256, 512}) {
        if (!full && procs > 256)
            procs = 512; // always include the headline point
        machine::Machine m(machine::SystemKind::CrayT3D, procs);
        fft::DistributedFft2d app(m);
        fft::Fft2dConfig cfg;
        // Problem grows with the machine (constant memory per node).
        cfg.n = static_cast<std::uint64_t>(procs) * 8;
        cfg.rowCapWords = 4;
        const auto r = app.run(cfg);
        last_per_proc = r.overallMFlops / procs;
        std::printf("%8d %8llu %12.0f %14.1f %12.0f\n", procs,
                    static_cast<unsigned long long>(cfg.n),
                    r.overallMFlops, last_per_proc, r.commMBs);
    }
    // Not a row of bench/paper_claims.hh: the 512-PE run takes about
    // 25 s, too long for the calibration test.
    std::printf("\n%s\n%s\n\n", bench::compareHeader,
                bench::compareLine("MFlop/s per processor at 512", 17.1,
                                   last_per_proc)
                    .c_str());
    return 0;
}
