// Scratch calibration: distributed 2D-FFT rates vs Figures 15-17.
// Accepts --jobs N (default: GASNUB_JOBS, then hardware concurrency);
// the three machine rows run in parallel on private replicas and
// print in a fixed order.
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>
#include "cli_util.hh"
#include "fft/fft2d_dist.hh"
#include "sim/pool.hh"
#include "sim/trace.hh"

using namespace gasnub;

static const std::array<std::uint64_t, 6> kSizes =
    {32, 64, 128, 256, 512, 1024};

int main(int argc, char** argv) {
    int jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const char* val = nullptr;
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            val = argv[++i];
        } else if (!std::strncmp(argv[i], "--jobs=", 7)) {
            val = argv[i] + 7;
        } else {
            std::fprintf(stderr, "usage: calibrate_fft [--jobs N]\n");
            return 2;
        }
        jobs = static_cast<int>(
            toolcli::parseIntOpt("calibrate_fft", "--jobs", val, 0, 4096));
    }
    jobs = sim::defaultJobs(jobs);

    std::printf("targets @256: T3D ov 133, 8400 ov 220, T3E ov 330\n");
    std::printf("fig16 @256 totals: T3D ~150, 8400 ~400-470, T3E ~800\n");

    const std::array<std::pair<machine::SystemKind, const char*>, 3>
        rows = {{{machine::SystemKind::CrayT3D, "T3D"},
                 {machine::SystemKind::Dec8400, "8400"},
                 {machine::SystemKind::CrayT3E, "T3E"}}};

    // One job per machine row; each worker builds a private machine
    // (and traces into a private buffer, so replica construction on
    // worker threads never touches the global tracer).
    sim::ThreadPool pool(jobs);
    std::vector<trace::Tracer> tracers(pool.workers());
    std::array<std::array<fft::Fft2dResult, kSizes.size()>, 3> out;
    pool.parallelFor(rows.size(), [&](int w, std::size_t j) {
        trace::ScopedThreadTracer scoped(tracers[w], 0);
        machine::Machine m(rows[j].first, 4);
        fft::DistributedFft2d app(m);
        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            fft::Fft2dConfig cfg;
            cfg.n = kSizes[i];
            out[j][i] = app.run(cfg);
        }
    });

    for (std::size_t j = 0; j < rows.size(); ++j) {
        std::printf("%-10s", rows[j].second);
        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            const fft::Fft2dResult& r = out[j][i];
            std::printf("  n=%4llu ov=%4.0f cp=%4.0f cm=%4.0f |",
                        (unsigned long long)kSizes[i], r.overallMFlops,
                        r.computeMFlops, r.commMBs);
        }
        std::printf("\n");
    }
    return 0;
}
