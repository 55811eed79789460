/**
 * @file
 * The compiler scenario of the paper (Sections 2.1 and 4.1): a
 * parallelizing compiler must pick the cheapest implementation of an
 * array-assignment communication step.  We characterize every
 * implementation option the Cray T3E offers (shmem_iget vs
 * shmem_iput, stride on the gather or the scatter side), then query
 * the planner for a range of strides and show that it reproduces the
 * paper's back-end rules:
 *
 *   "On the T3E, pulling data seems to work equally well (odd
 *    strides) or better (even strides) than pushing data."
 */

#include <cstdio>
#include <iostream>

#include "core/characterizer.hh"
#include "core/planner.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

using namespace gasnub;

int
main()
{
    std::printf("== transfer_planner: choosing iget vs iput on the "
                "Cray T3E ==\n\n");
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    core::Characterizer c(m);

    core::CharacterizeConfig cfg;
    cfg.workingSets = {2_MiB};
    cfg.strides = {1, 2, 3, 4, 5, 8, 15, 16, 31, 32};
    cfg.capBytes = 2_MiB;

    // Implementation options of a strided communication step.
    core::TransferPlanner planner;
    planner.addOption(
        {"shmem_iget (strided gather)", remote::TransferMethod::Fetch,
         true,
         c.run(core::SweepSpec::remote(remote::TransferMethod::Fetch, true),
               cfg)});
    planner.addOption(
        {"shmem_iput (strided scatter)",
         remote::TransferMethod::Deposit, false,
         c.run(core::SweepSpec::remote(remote::TransferMethod::Deposit,
                                       false),
               cfg)});

    planner.option(0).surface->print(std::cout);
    planner.option(1).surface->print(std::cout);

    std::printf("planner decisions for a 2 MB communication "
                "working set:\n");
    std::printf("%8s %-32s %10s\n", "stride", "chosen primitive",
                "MB/s");
    for (std::uint64_t stride : cfg.strides) {
        core::TransferQuery q;
        q.bytes = 2_MiB;
        q.wsBytes = 2_MiB;
        q.stride = stride;
        const core::Plan p = planner.best(q);
        std::printf("%8llu %-32s %10.0f\n",
                    static_cast<unsigned long long>(stride),
                    p.label.c_str(), p.predictedMBs);
    }
    std::printf("\nEven strides pick the fetch model (the scatter "
                "side would hit the\ndestination bank parity); odd "
                "strides are a toss-up — exactly the\npaper's rule "
                "for the Fx T3E back-end.\n");

    // Act II: the Section 9 hypothesis on the DEC 8400 — blocking a
    // big strided pull so each chunk stays in the producer's caches.
    std::printf("\n== blocked pulls on the DEC 8400 ==\n\n");
    machine::Machine dec(machine::SystemKind::Dec8400, 4);
    core::Characterizer cd(dec);
    core::CharacterizeConfig pcfg;
    pcfg.workingSets = {1_MiB, 16_MiB};
    pcfg.strides = {1, 16};
    pcfg.capBytes = 12_MiB;
    core::Surface pull = cd.run(
        core::SweepSpec::remote(remote::TransferMethod::CoherentPull, true),
        pcfg);
    pull.print(std::cout);

    core::TransferPlanner dp;
    dp.addOption({"direct pull", remote::TransferMethod::CoherentPull,
                  true, pull, 0});
    dp.addOption({"L3-blocked pull",
                  remote::TransferMethod::CoherentPull, true, pull,
                  1_MiB});
    core::TransferQuery dq;
    dq.bytes = 16_MiB;
    dq.wsBytes = 16_MiB;
    dq.stride = 16;
    const core::Plan bp = dp.best(dq);
    std::printf("16 MB strided transfer: choose '%s' at %.0f MB/s "
                "(direct: %.0f)\n",
                bp.label.c_str(), bp.predictedMBs,
                dp.predictAll(dq)[0]);
    std::printf("\n\"If a global communication operation can be "
                "partitioned into\nsub-blocks, cache to cache "
                "transfers might perform better than remote\nmemory "
                "copies\" — quantified, as Section 9 asks.\n");
    return 0;
}
