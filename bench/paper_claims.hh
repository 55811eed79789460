/**
 * @file
 * The paper's numbers that the reproduction is checked against, one
 * row per claim, and the one function that measures a row.  The
 * calibration test runs one case per row and asserts its bound, the
 * figure benches print their rows (bench::compare), and EXPERIMENTS.md
 * holds one line per row, which the test checks.
 *
 * Bounds are absolute: the paper's value +-25 %, or the bound the
 * calibration test asserted before this table (kept, an open side
 * closed at +-25 %).  A row more than 25 % off the paper is a known
 * deviation, bounded at its measured value +-5 % as a drift lock.
 */

#ifndef GASNUB_BENCH_PAPER_CLAIMS_HH
#define GASNUB_BENCH_PAPER_CLAIMS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/characterizer.hh"
#include "fft/fft2d_dist.hh"
#include "machine/machine.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

namespace gasnub::bench {

/** A row whose model value is off the paper's by more than this is a
 *  known deviation. */
inline constexpr double deviationBand = 0.25;

/** One claim of the paper and where the model is measured for it. */
struct PaperClaim
{
    enum class Kind { Bandwidth, FftOverall, FftCompute, Ratio };

    const char *key;  ///< unique id, e.g. "fig01_l1"
    int figure;       ///< the paper's figure
    const char *row;  ///< row label, unique within the figure
    Kind kind;
    machine::SystemKind machine; ///< Bandwidth and FFT rows
    const char *benchmark;       ///< Bandwidth: characterize's name
    std::uint64_t ws;            ///< Bandwidth: working set, bytes
    std::uint64_t stride;        ///< Bandwidth: stride, words
    std::uint64_t n;             ///< FFT: problem size
    const char *num;             ///< Ratio: numerator row key
    const char *den;             ///< Ratio: denominator row key
    double paper; ///< MB/s, MFlop/s of all 4 processors, or a quotient
    double lo;    ///< bound on the model's value
    double hi;
    bool deviation; ///< more than 25 % off: bound is measured +-5 %
};

namespace claim {

using machine::SystemKind;
constexpr auto Dec8400 = SystemKind::Dec8400;
constexpr auto T3d = SystemKind::CrayT3D;
constexpr auto T3e = SystemKind::CrayT3E;
constexpr auto Overall = PaperClaim::Kind::FftOverall;
constexpr auto Compute = PaperClaim::Kind::FftCompute;

constexpr PaperClaim
bandwidthClaim(const char *key, int fig, const char *row, SystemKind m,
               const char *bench, std::uint64_t ws, std::uint64_t stride,
               double paper, double lo, double hi, bool dev = false)
{
    return {key, fig, row, PaperClaim::Kind::Bandwidth, m, bench, ws,
            stride, 0, nullptr, nullptr, paper, lo, hi, dev};
}

constexpr PaperClaim
fftClaim(const char *key, int fig, const char *row, SystemKind m,
         PaperClaim::Kind rate, std::uint64_t n, double paper, double lo,
         double hi)
{
    return {key, fig, row, rate, m, nullptr, 0, 0, n, nullptr, nullptr,
            paper, lo, hi, false};
}

constexpr PaperClaim
ratioClaim(const char *key, int fig, const char *row, const char *num,
           const char *den, double paper, double lo, double hi,
           bool dev = false)
{
    return {key, fig, row, PaperClaim::Kind::Ratio, Dec8400, nullptr, 0,
            0, 0, num, den, paper, lo, hi, dev};
}

// clang-format off
inline constexpr PaperClaim paperClaims[] = {
    // Figure 1: DEC 8400 local loads.
    bandwidthClaim("fig01_l1", 1, "L1 plateau", Dec8400, "loads", 4_KiB, 1, 1100, 825, 1375),
    bandwidthClaim("fig01_l2_strided", 1, "L2 plateau, strided", Dec8400, "loads", 64_KiB, 8, 700, 525, 875),
    bandwidthClaim("fig01_l3_contiguous", 1, "L3 contiguous", Dec8400, "loads", 1_MiB, 1, 600, 450, 750),
    bandwidthClaim("fig01_l3_strided", 1, "L3 strided", Dec8400, "loads", 1_MiB, 16, 120, 90, 150),
    bandwidthClaim("fig01_dram_contiguous", 1, "DRAM contiguous", Dec8400, "loads", 16_MiB, 1, 150, 112.5, 187.5),
    bandwidthClaim("fig01_dram_strided", 1, "DRAM strided", Dec8400, "loads", 16_MiB, 32, 28, 21, 35),
    // Figure 2: DEC 8400 remote (coherent pull) transfers.
    bandwidthClaim("fig02_contiguous", 2, "remote contiguous max", Dec8400, "pull", 16_MiB, 1, 140, 105, 175),
    bandwidthClaim("fig02_dram_strided", 2, "remote strided from DRAM", Dec8400, "pull", 16_MiB, 32, 22, 16.5, 27.5),
    bandwidthClaim("fig02_cached_strided", 2, "cached working set, strided", Dec8400, "pull", 2_MiB, 16, 75, 56.25, 93.75),
    // Figure 3: T3D local loads, "about 30% faster" than the 8400 from DRAM.
    bandwidthClaim("fig03_l1", 3, "L1 plateau", T3d, "loads", 4_KiB, 1, 600, 450, 750),
    bandwidthClaim("fig03_dram_contiguous", 3, "DRAM contiguous (read-ahead)", T3d, "loads", 16_MiB, 1, 195, 146.25, 243.75),
    bandwidthClaim("fig03_dram_strided", 3, "DRAM strided", T3d, "loads", 16_MiB, 16, 43, 32.25, 53.75),
    ratioClaim("fig03_vs_dec8400", 3, "DRAM contiguous / DEC 8400's", "fig03_dram_contiguous", "fig01_dram_contiguous", 1.3, 1.2, 1.625),
    // Figure 4: T3D fetch, "consistently inferior" to deposit (Figure 5).
    bandwidthClaim("fig04_contiguous", 4, "contiguous", T3d, "fetch-sload", 8_MiB, 1, 65, 48.75, 81.25),
    bandwidthClaim("fig04_stride2", 4, "stride 2", T3d, "fetch-sload", 8_MiB, 2, 20, 15, 25),
    bandwidthClaim("fig04_large_strides", 4, "large strides", T3d, "fetch-sload", 8_MiB, 32, 43, 32.25, 53.75),
    ratioClaim("fig04_contiguous_vs_deposit", 4, "contiguous, fetch / deposit", "fig04_contiguous", "fig05_contiguous", 0.54, 0.405, 0.8),
    ratioClaim("fig04_strided_vs_deposit", 4, "strided, fetch / deposit", "fig04_large_strides", "fig05_strided_stores", 0.78, 0.585, 0.8),
    // Figure 5: T3D deposit.
    bandwidthClaim("fig05_contiguous", 5, "contiguous", T3d, "deposit-sstore", 8_MiB, 1, 120, 90, 150),
    bandwidthClaim("fig05_strided_stores", 5, "strided stores", T3d, "deposit-sstore", 8_MiB, 16, 55, 41.25, 68.75),
    // Figure 6: T3E local loads, "no improvement for strided accesses out of DRAM".
    bandwidthClaim("fig06_l1", 6, "L1 plateau", T3e, "loads", 4_KiB, 1, 1100, 825, 1375),
    bandwidthClaim("fig06_l2_strided", 6, "L2 plateau, strided", T3e, "loads", 64_KiB, 8, 700, 525, 875),
    bandwidthClaim("fig06_dram_contiguous", 6, "DRAM contiguous (streams)", T3e, "loads", 16_MiB, 1, 430, 322.5, 537.5),
    bandwidthClaim("fig06_dram_strided", 6, "DRAM strided", T3e, "loads", 16_MiB, 32, 42, 31.5, 52.5),
    ratioClaim("fig06_vs_t3d", 6, "DRAM strided / T3D's", "fig06_dram_strided", "fig03_dram_strided", 0.98, 0.77, 1.22),
    // Figure 7: T3E fetch (shmem_iget).
    bandwidthClaim("fig07_contiguous", 7, "contiguous", T3e, "fetch-sload", 8_MiB, 1, 350, 262.5, 437.5),
    bandwidthClaim("fig07_strided", 7, "strided (flat)", T3e, "fetch-sload", 8_MiB, 16, 140, 105, 175),
    // Figure 8: T3E deposit (shmem_iput), even/odd ripples.
    bandwidthClaim("fig08_contiguous", 8, "contiguous", T3e, "deposit-sstore", 8_MiB, 1, 350, 262.5, 437.5),
    bandwidthClaim("fig08_even", 8, "even stride", T3e, "deposit-sstore", 8_MiB, 16, 70, 52.5, 87.5),
    bandwidthClaim("fig08_odd", 8, "odd stride", T3e, "deposit-sstore", 8_MiB, 15, 140, 110, 175),
    // Figure 9: DEC 8400 local copy.
    bandwidthClaim("fig09_contiguous", 9, "contiguous copy", Dec8400, "copy-sstore", 16_MiB, 1, 57, 42.75, 71.25),
    bandwidthClaim("fig09_strided_loads", 9, "strided loads @16", Dec8400, "copy-sload", 65_MiB, 16, 18, 22.06, 24.39, true),
    bandwidthClaim("fig09_strided_stores", 9, "strided stores @16", Dec8400, "copy-sstore", 16_MiB, 16, 18, 28.77, 31.81, true),
    // Figure 10: T3D local copy, strided stores "almost three times" the 8400's.
    bandwidthClaim("fig10_contiguous", 10, "contiguous copy", T3d, "copy-sstore", 16_MiB, 1, 100, 75, 125),
    bandwidthClaim("fig10_strided_loads", 10, "strided loads @16 (load-limited)", T3d, "copy-sload", 65_MiB, 16, 43, 32.25, 53.75),
    bandwidthClaim("fig10_strided_stores", 10, "strided stores @16 (WBQ)", T3d, "copy-sstore", 16_MiB, 16, 70, 42, 78),
    ratioClaim("fig10_vs_dec8400", 10, "strided stores / DEC 8400's", "fig10_strided_stores", "fig09_strided_stores", 3, 1.73, 1.92, true),
    // Figure 11: T3E local copy, strided stores slow again.
    bandwidthClaim("fig11_contiguous", 11, "contiguous copy", T3e, "copy-sstore", 16_MiB, 1, 200, 150, 250),
    bandwidthClaim("fig11_strided_loads", 11, "strided loads @16", T3e, "copy-sload", 65_MiB, 16, 36, 27, 45),
    bandwidthClaim("fig11_strided_stores", 11, "strided stores @16", T3e, "copy-sstore", 16_MiB, 16, 25, 34.43, 38.06, true),
    // Figure 12: DEC 8400 remote copy at 65 MB.
    bandwidthClaim("fig12_contiguous", 12, "contiguous", Dec8400, "pull", 65_MiB, 1, 140, 105, 175),
    bandwidthClaim("fig12_strided16", 12, "strided @16", Dec8400, "pull", 65_MiB, 16, 22, 16.5, 27.5),
    bandwidthClaim("fig12_strided64", 12, "strided @64", Dec8400, "pull", 65_MiB, 64, 22, 16.5, 27.5),
    // Figure 13: T3D remote copy; strided "a factor of 2.5" over the 8400, no slower than a local copy.
    bandwidthClaim("fig13_contiguous", 13, "contiguous", T3d, "deposit-sstore", 65_MiB, 1, 120, 90, 150),
    bandwidthClaim("fig13_strided_loads", 13, "strided loads @16 (load-limited)", T3d, "deposit-sload", 65_MiB, 16, 43, 32.25, 48),
    bandwidthClaim("fig13_strided_stores", 13, "strided remote stores @16", T3d, "deposit-sstore", 65_MiB, 16, 55, 41.25, 68.75),
    ratioClaim("fig13_vs_dec8400", 13, "strided remote stores / DEC 8400's", "fig13_strided_stores", "fig12_strided16", 2.5, 1.5, 3.5),
    ratioClaim("fig13_vs_local_copy", 13, "contiguous, remote / local copy", "fig13_contiguous", "fig10_contiguous", 1.2, 0.95, 1.5),
    // Figure 14: T3E remote copy; strided "a factor of 6.5" over the 8400.
    bandwidthClaim("fig14_contiguous", 14, "contiguous", T3e, "fetch-sload", 65_MiB, 1, 350, 262.5, 437.5),
    bandwidthClaim("fig14_strided_loads", 14, "strided loads @16 (flat)", T3e, "fetch-sload", 65_MiB, 16, 140, 105, 175),
    bandwidthClaim("fig14_strided_stores_even", 14, "strided stores @16 (even)", T3e, "deposit-sstore", 65_MiB, 16, 70, 52.5, 87.5),
    bandwidthClaim("fig14_strided_stores_odd", 14, "strided stores @15 (odd)", T3e, "deposit-sstore", 65_MiB, 15, 140, 105, 175),
    ratioClaim("fig14_vs_dec8400", 14, "strided loads / DEC 8400's", "fig14_strided_loads", "fig12_strided16", 6.5, 4.5, 8.5),
    // Figure 15: 2D-FFT overall; 8400 "a factor below two" over the T3D, T3E ~50 % over the 8400.
    fftClaim("fig15_t3d", 15, "T3D @ 256x256", T3d, Overall, 256, 133, 99.75, 166.25),
    fftClaim("fig15_dec8400", 15, "DEC 8400 @ 256x256", Dec8400, Overall, 256, 220, 165, 275),
    fftClaim("fig15_t3e", 15, "T3E @ 256x256", T3e, Overall, 256, 330, 231, 429),
    ratioClaim("fig15_dec8400_vs_t3d", 15, "DEC 8400 / T3D", "fig15_dec8400", "fig15_t3d", 2, 1.5, 2),
    ratioClaim("fig15_t3e_vs_dec8400", 15, "T3E / DEC 8400", "fig15_t3e", "fig15_dec8400", 1.5, 1.125, 1.875),
    // Figure 16: 2D-FFT computation, absolute rates read off the plot; 8400 "more than a factor 2.5" over the T3D, T3E "up to 200" per processor.
    fftClaim("fig16_t3d_256", 16, "T3D @ 256x256", T3d, Compute, 256, 150, 112.5, 187.5),
    fftClaim("fig16_dec8400_256", 16, "DEC 8400 @ 256x256", Dec8400, Compute, 256, 435, 326.25, 543.75),
    fftClaim("fig16_t3d_1024", 16, "T3D @ 1024x1024", T3d, Compute, 1024, 100, 75, 125),
    fftClaim("fig16_dec8400_1024", 16, "DEC 8400 @ 1024x1024", Dec8400, Compute, 1024, 435, 326.25, 543.75),
    fftClaim("fig16_t3e_1024", 16, "T3E @ 1024x1024", T3e, Compute, 1024, 800, 720, 1000),
    ratioClaim("fig16_dec8400_vs_t3d", 16, "DEC 8400 / T3D @ 256x256", "fig16_dec8400_256", "fig16_t3d_256", 2.5, 2.3, 3.125),
    ratioClaim("fig16_t3d_falloff", 16, "T3D 1024x1024 / 256x256", "fig16_t3d_1024", "fig16_t3d_256", 0.66, 0.495, 0.825),
    ratioClaim("fig16_dec8400_level", 16, "DEC 8400 1024x1024 / 256x256", "fig16_dec8400_1024", "fig16_dec8400_256", 1, 0.75, 1.25),
};
// clang-format on

} // namespace claim

using claim::paperClaims;

/** The row with key @p key; fatal if there is none. */
inline const PaperClaim &
findClaim(std::string_view key)
{
    for (const PaperClaim &c : paperClaims)
        if (key == c.key)
            return c;
    GASNUB_FATAL("no paper claim '", key, "'");
}

/**
 * The model's value for @p c on a fresh 4-node machine: one
 * core::Characterizer::measure point at the kernels' default
 * simulation cap, one distributed 2D-FFT, or the quotient of two
 * other rows.  The machines trace into a private, disabled tracer, so
 * a bench's --trace-out holds only its own sweep.
 */
inline double
measureClaim(const PaperClaim &c)
{
    if (c.kind == PaperClaim::Kind::Ratio)
        return measureClaim(findClaim(c.num)) /
               measureClaim(findClaim(c.den));
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, 0);
    machine::Machine m(c.machine, 4);
    if (c.kind == PaperClaim::Kind::Bandwidth) {
        const auto spec = core::SweepSpec::fromName(c.machine, c.benchmark);
        GASNUB_ASSERT(spec, "unknown benchmark ", c.benchmark);
        return core::Characterizer(m).measure(*spec, c.ws, c.stride, 0)
            .result.mbs;
    }
    fft::Fft2dConfig cfg;
    cfg.n = c.n;
    const fft::Fft2dResult r = fft::DistributedFft2d(m).run(cfg);
    return c.kind == PaperClaim::Kind::FftOverall ? r.overallMFlops
                                                  : r.computeMFlops;
}

/** Header of a bench's paper-vs-model comparison block. */
inline constexpr const char *compareHeader =
    "paper reference point                       paper     model   ratio";

/** One line of the comparison block, aligned under compareHeader. */
inline std::string
compareLine(const char *what, double paper, double model)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-40s %8g %9.2f %7.2f", what, paper,
                  model, model / paper);
    return buf;
}

/** Print the comparison block of Figure @p figure's rows. */
inline void
compare(int figure)
{
    std::printf("\n%s\n", compareHeader);
    for (const PaperClaim &c : paperClaims)
        if (c.figure == figure)
            std::printf("%s\n", compareLine(c.row, c.paper,
                                            measureClaim(c)).c_str());
    std::printf("\n");
}

} // namespace gasnub::bench

#endif // GASNUB_BENCH_PAPER_CLAIMS_HH
