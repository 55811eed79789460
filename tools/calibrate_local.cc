// Scratch calibration harness: prints local load-bandwidth plateaus and
// copy bandwidths for the three machines next to the paper's targets.
// Accepts --jobs N (default: GASNUB_JOBS, then hardware concurrency);
// grid points run on per-worker replicas and print in grid order, so
// the output is identical for any worker count.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>
#include "cli_util.hh"
#include "core/sweep_runner.hh"
#include "kernels/kernels.hh"
#include "kernels/remote_kernels.hh"
#include "machine/configs.hh"
#include "sim/pool.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

using namespace gasnub;

static int g_jobs = 0;

// Evaluate fn(hierarchy, j) for j in [0, n) on per-worker hierarchy
// replicas (bare node memory systems, no interconnect); results land
// in per-point slots so completion order never shows.
static std::vector<double>
sweepPoints(const mem::HierarchyConfig& cfg, std::size_t n,
            const std::function<double(mem::MemoryHierarchy&,
                                       std::size_t)>& fn) {
    sim::ThreadPool pool(g_jobs);
    struct Worker {
        trace::Tracer tracer;
        std::unique_ptr<mem::MemoryHierarchy> h;
    };
    std::vector<std::unique_ptr<Worker>> workers;
    for (int i = 0; i < pool.workers(); ++i)
        workers.push_back(std::make_unique<Worker>());
    std::vector<double> out(n);
    pool.parallelFor(n, [&](int w, std::size_t j) {
        Worker& ctx = *workers[w];
        trace::ScopedThreadTracer scoped(ctx.tracer, 0);
        if (!ctx.h)
            ctx.h = std::make_unique<mem::MemoryHierarchy>(cfg);
        out[j] = fn(*ctx.h, j);
    });
    return out;
}

static void surface(const char* label, const mem::HierarchyConfig& cfg,
                    const std::vector<std::uint64_t>& wss,
                    const std::vector<std::uint64_t>& strides) {
    auto vals = sweepPoints(cfg, wss.size() * strides.size(),
        [&](mem::MemoryHierarchy& h, std::size_t j) {
            kernels::KernelParams p;
            p.wsBytes = wss[j / strides.size()];
            p.stride = strides[j % strides.size()];
            return kernels::loadSum(h, p).mbs;
        });
    std::printf("== %s load-sum ==\n%10s", label, "ws\\stride");
    for (auto s : strides) std::printf("%8llu", (unsigned long long)s);
    std::printf("\n");
    for (std::size_t r = 0; r < wss.size(); ++r) {
        std::printf("%10s", formatSize(wss[r]).c_str());
        for (std::size_t c = 0; c < strides.size(); ++c)
            std::printf("%8.0f", vals[r * strides.size() + c]);
        std::printf("\n");
    }
}

static void copies(const char* label, const mem::HierarchyConfig& cfg,
                   const std::vector<std::uint64_t>& strides) {
    // Row 0: strided loads; row 1: strided stores.
    auto vals = sweepPoints(cfg, 2 * strides.size(),
        [&](mem::MemoryHierarchy& h, std::size_t j) {
            kernels::KernelParams p;
            p.wsBytes = 65 * 1_MiB;
            p.stride = strides[j % strides.size()];
            const auto variant = j < strides.size()
                ? kernels::CopyVariant::StridedLoads
                : kernels::CopyVariant::StridedStores;
            return kernels::copy(h, p, variant, p.wsBytes).mbs;
        });
    std::printf("== %s copy (65M ws) ==\n%10s", label, "variant");
    for (auto s : strides) std::printf("%8llu", (unsigned long long)s);
    std::printf("\n%10s", "sload");
    for (std::size_t c = 0; c < strides.size(); ++c)
        std::printf("%8.0f", vals[c]);
    std::printf("\n%10s", "sstore");
    for (std::size_t c = 0; c < strides.size(); ++c)
        std::printf("%8.0f", vals[strides.size() + c]);
    std::printf("\n");
}

static void surfaceMachine(const char* label, machine::SystemKind kind,
                           const std::vector<std::uint64_t>& wss,
                           const std::vector<std::uint64_t>& strides) {
    machine::SystemConfig sys;
    sys.kind = kind;
    core::SweepRunner runner(sys, g_jobs);
    core::CharacterizeConfig cfg;
    cfg.workingSets = wss;
    cfg.strides = strides;
    core::Surface s = runner.run(core::SweepSpec::localLoads(0), cfg);
    std::printf("== %s (machine path) ==\n%10s", label, "ws\\stride");
    for (auto st : strides)
        std::printf("%8llu", (unsigned long long)st);
    std::printf("\n");
    for (auto ws : wss) {
        std::printf("%10s", formatSize(ws).c_str());
        for (auto st : strides) std::printf("%8.0f", s.at(ws, st));
        std::printf("\n");
    }
}

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const char* val = nullptr;
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            val = argv[++i];
        } else if (!std::strncmp(argv[i], "--jobs=", 7)) {
            val = argv[i] + 7;
        } else {
            std::fprintf(stderr, "usage: calibrate_local [--jobs N]\n");
            return 2;
        }
        g_jobs = static_cast<int>(
            toolcli::parseIntOpt("calibrate_local", "--jobs", val, 0, 4096));
    }
    g_jobs = sim::defaultJobs(g_jobs);

    using machine::dec8400Node; using machine::crayT3dNode;
    using machine::crayT3eNode;
    surface("DEC8400", dec8400Node(), {4_KiB, 64_KiB, 1_MiB, 16_MiB, 64_MiB},
            {1,2,4,8,16,32,64,128});
    std::printf("targets: L1 1100 | L2 700 | L3 600->120 | DRAM 150->28\n\n");
    surface("T3D", crayT3dNode(), {4_KiB, 64_KiB, 16_MiB},
            {1,2,4,8,16,32,64,128});
    std::printf("targets: L1 ~600 | DRAM 195->43\n\n");
    surface("T3E", crayT3eNode(), {4_KiB, 64_KiB, 1_MiB, 16_MiB},
            {1,2,4,8,16,32,64,128});
    std::printf("targets: L1 1100 | L2 700 | DRAM 430->42\n\n");
    copies("DEC8400", dec8400Node(), {1,2,4,8,16,32,64});
    std::printf("targets: contig 57, strided ~18 (both variants)\n\n");
    copies("T3D", crayT3dNode(), {1,2,4,8,16,32,64});
    std::printf("targets: contig 100, sload ->43, sstore ->70\n\n");
    copies("T3E", crayT3eNode(), {1,2,4,8,16,32,64});
    std::printf("targets: contig 200, strided ~20-40 (8400-like)\n\n");
    surfaceMachine("DEC8400", machine::SystemKind::Dec8400,
                   {4_KiB, 64_KiB, 1_MiB, 16_MiB},
                   {1,2,4,8,16,32,64,128});
    std::printf("targets: L1 1100 | L2 700 | L3 600->120 | DRAM 150->28\n");
    return 0;
}
