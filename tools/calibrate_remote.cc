// Scratch calibration: remote transfer bandwidths vs paper targets.
// Accepts --jobs N (default: GASNUB_JOBS, then hardware concurrency);
// every row is a parallel sweep over its stride axis and rows print
// in a fixed order, so the output is identical for any worker count.
#include <cstdio>
#include <cstring>
#include <vector>
#include "cli_util.hh"
#include "core/sweep_runner.hh"
#include "sim/pool.hh"
#include "sim/units.hh"

using namespace gasnub;
using remote::TransferMethod;

static void row(core::SweepRunner& runner, const char* label,
                TransferMethod meth, bool strideOnSrc,
                std::uint64_t ws,
                const std::vector<std::uint64_t>& strides) {
    core::CharacterizeConfig cfg;
    cfg.workingSets = {ws};
    cfg.strides = strides;
    // src 0 / dst 2: distinct NICs on the paired-PE T3D.
    core::Surface s = runner.run(
        core::SweepSpec::remote(meth, strideOnSrc, 0, 2), cfg);
    std::printf("%-28s", label);
    for (auto st : strides) std::printf("%7.0f", s.at(ws, st));
    std::printf("\n");
}

int main(int argc, char** argv) {
    int jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const char* val = nullptr;
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            val = argv[++i];
        } else if (!std::strncmp(argv[i], "--jobs=", 7)) {
            val = argv[i] + 7;
        } else {
            std::fprintf(stderr, "usage: calibrate_remote [--jobs N]\n");
            return 2;
        }
        jobs = static_cast<int>(
            toolcli::parseIntOpt("calibrate_remote", "--jobs", val, 0, 4096));
    }
    jobs = sim::defaultJobs(jobs);

    const std::vector<std::uint64_t> strides =
        {1,2,3,4,5,8,16,31,32,63,64};
    std::printf("%-28s", "machine/method (65M)");
    for (auto s : strides) std::printf("%7llu", (unsigned long long)s);
    std::printf("\n");

    machine::SystemConfig dec;
    dec.kind = machine::SystemKind::Dec8400;
    core::SweepRunner decr(dec, jobs);
    row(decr, "8400 pull (tgt 140->22)", TransferMethod::CoherentPull,
        true, 65*1_MiB, strides);
    row(decr, "8400 pull ws=2M cached", TransferMethod::CoherentPull,
        true, 2*1_MiB, strides);

    machine::SystemConfig t3d;
    t3d.kind = machine::SystemKind::CrayT3D;
    core::SweepRunner t3dr(t3d, jobs);
    row(t3dr, "t3d deposit sload (->43)", TransferMethod::Deposit,
        true, 65*1_MiB, strides);
    row(t3dr, "t3d deposit sstore (->55)", TransferMethod::Deposit,
        false, 65*1_MiB, strides);
    row(t3dr, "t3d fetch sload (~80/30)", TransferMethod::Fetch,
        true, 65*1_MiB, strides);

    machine::SystemConfig t3e;
    t3e.kind = machine::SystemKind::CrayT3E;
    core::SweepRunner t3er(t3e, jobs);
    row(t3er, "t3e iget sload (350->140)", TransferMethod::Fetch,
        true, 65*1_MiB, strides);
    row(t3er, "t3e iput sstore (350,70/140)", TransferMethod::Deposit,
        false, 65*1_MiB, strides);
    return 0;
}
