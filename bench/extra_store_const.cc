/**
 * @file
 * The Store-Constant benchmark (paper Section 4.2): the dual of
 * Load-Sum, written "to evaluate store performance"; the paper did
 * not plot it ("the resulting graphs did not add enough insight"),
 * but it confirmed the write-back policies and the write-back
 * queues — which is exactly what this bench shows.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace gasnub;
    bench::banner("Extra (Section 4.2)",
                  "Store-Constant bandwidth on all three machines");
    for (auto kind :
         {machine::SystemKind::Dec8400, machine::SystemKind::CrayT3D,
          machine::SystemKind::CrayT3E}) {
        machine::Machine m(kind, 4);
        core::Characterizer c(m);
        core::Surface s = c.run(
            core::SweepSpec::localStores(0),
            bench::surfaceGrid(bench::fullRun(argc, argv), 8_MiB, 4_MiB));
        s.print(std::cout);
    }
    std::printf("The T3D's coalescing write-back queue keeps strided "
                "stores fast;\nthe write-back caches of the 8400 and "
                "T3E make strided stores pay a\nread-for-ownership "
                "per line.\n");
    return 0;
}
