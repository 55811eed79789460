/**
 * @file
 * Quickstart: build one of the paper's machines, measure a few
 * memory-system bandwidths, characterize a small surface, and ask
 * the transfer planner for a decision.
 *
 *   ./quickstart [dec8400|t3d|t3e]
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/characterizer.hh"
#include "core/planner.hh"
#include "kernels/remote_kernels.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

using namespace gasnub;

namespace {

machine::SystemKind
parseKind(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "dec8400") == 0)
        return machine::SystemKind::Dec8400;
    if (argc > 1 && std::strcmp(argv[1], "t3d") == 0)
        return machine::SystemKind::CrayT3D;
    return machine::SystemKind::CrayT3E;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto kind = parseKind(argc, argv);
    std::printf("== gasnub quickstart on the %s ==\n\n",
                machine::systemName(kind).c_str());

    // 1. Build a 4-processor machine (the paper's configuration).
    machine::Machine m(kind, 4);

    // 2. Measure a few local bandwidths with the Load-Sum kernel.
    std::printf("Local load bandwidth (one processor):\n");
    for (std::uint64_t ws : {4_KiB, 64_KiB, 8_MiB}) {
        for (std::uint64_t stride : {1ull, 16ull}) {
            kernels::KernelParams p;
            p.wsBytes = ws;
            p.stride = stride;
            const auto r = kernels::loadSumOn(m, 0, p);
            std::printf("  ws=%-5s stride=%-3llu -> %7.1f MB/s\n",
                        formatSize(ws).c_str(),
                        static_cast<unsigned long long>(stride),
                        r.mbs);
        }
    }

    // 3. Characterize a small remote-transfer surface.
    core::Characterizer c(m);
    core::CharacterizeConfig cfg;
    cfg.workingSets = {64_KiB, 1_MiB};
    cfg.strides = {1, 2, 3, 8};
    cfg.capBytes = 1_MiB;
    const auto method = m.nativeMethod();
    const bool stride_on_src =
        method != remote::TransferMethod::Deposit;
    const NodeId dst = kind == machine::SystemKind::CrayT3D ? 2 : 1;
    core::Surface s =
        c.run(core::SweepSpec::remote(method, stride_on_src, 0, dst), cfg);
    std::printf("\n");
    s.print(std::cout);

    // 4. Ask the planner how to move 1 MB with stride 8.
    core::TransferPlanner planner;
    planner.addOption({remote::methodName(method), method,
                       stride_on_src, s});
    core::TransferQuery q;
    q.bytes = 1_MiB;
    q.wsBytes = 1_MiB;
    q.stride = 8;
    const core::Plan plan = planner.best(q);
    std::printf("planner: move 1 MB at stride 8 via '%s' "
                "(%.0f MB/s, %.2f ms predicted)\n",
                plan.label.c_str(), plan.predictedMBs,
                plan.predictedSeconds * 1e3);
    return 0;
}
