/**
 * @file
 * Validation of the cost model itself — the paper's central claim:
 * "measurements of key performance parameters ... can then be
 * combined to obtain a realistic model of memory system performance"
 * (Section 1).
 *
 * We characterize each machine on a coarse grid, then query the
 * surface at points *between* the grid (working sets and strides it
 * never measured) and compare the interpolated prediction with a
 * direct simulation of that exact point.
 */

#include <cmath>
#include <vector>

#include "bench_util.hh"
#include "kernels/remote_kernels.hh"

int
main(int, char **)
{
    using namespace gasnub;
    bench::banner("Extra (Section 1)",
                  "cost-model validation: interpolated prediction vs "
                  "direct measurement");

    std::printf("%-12s %8s %8s %12s %12s %8s\n", "machine", "ws",
                "stride", "predicted", "measured", "error");
    double worst = 0;
    double sum_abs = 0;
    int count = 0;
    for (auto kind :
         {machine::SystemKind::Dec8400, machine::SystemKind::CrayT3D,
          machine::SystemKind::CrayT3E}) {
        machine::Machine m(kind, 4);
        core::Characterizer c(m);
        core::CharacterizeConfig coarse;
        coarse.workingSets = {512,    2_KiB,  8_KiB, 32_KiB,
                              128_KiB, 512_KiB, 2_MiB, 8_MiB};
        coarse.strides = {1, 2, 4, 8, 16, 32, 64, 128};
        coarse.capBytes = 4_MiB;
        const core::Surface s =
            c.run(core::SweepSpec::localLoads(0), coarse);

        // Off-grid probes: geometric midpoints of the grid cells.
        struct Probe
        {
            std::uint64_t ws;
            std::uint64_t stride;
        };
        for (const Probe p : {Probe{3_KiB, 3}, Probe{48_KiB, 6},
                              Probe{192_KiB, 12}, Probe{768_KiB, 24},
                              Probe{3_MiB, 48}, Probe{6_MiB, 3}}) {
            const double predicted = s.interpolate(
                static_cast<double>(p.ws),
                static_cast<double>(p.stride));
            kernels::KernelParams kp;
            kp.wsBytes = p.ws;
            kp.stride = p.stride;
            kp.capBytes = 4_MiB;
            const double measured =
                kernels::loadSumOn(m, 0, kp).mbs;
            const double err = (predicted - measured) / measured;
            worst = std::max(worst, std::abs(err));
            sum_abs += std::abs(err);
            ++count;
            std::printf("%-12s %8s %8llu %12.0f %12.0f %7.1f%%\n",
                        machine::systemName(kind).c_str(),
                        formatSize(p.ws).c_str(),
                        static_cast<unsigned long long>(p.stride),
                        predicted, measured, 100 * err);
        }
    }
    std::printf("\nmean |error| %.1f%%, worst %.1f%% over %d "
                "off-grid probes — the\nempirical surfaces predict "
                "unmeasured points well enough to drive\ncompiler "
                "decisions, which is the paper's thesis.\n",
                100 * sum_abs / count, 100 * worst, count);
    return 0;
}
