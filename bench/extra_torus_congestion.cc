/**
 * @file
 * Torus congestion study (paper Section 5.6): "the remote copy
 * transfer performance is expected to scale up to a 512 processor
 * (8 x 8 x 8) torus, before bisection limits become visible in
 * transposes (i.e., AAPC patterns)".
 *
 * Two traffic patterns at increasing T3E sizes, driven by a local
 * event queue so all flows interleave in global time order:
 *
 *  - neighbour: node p streams to p+1 on its ring (disjoint links);
 *  - bisection: node p streams to the node half a machine away
 *    (every packet crosses the bisection).
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "bench_util.hh"

namespace {

using namespace gasnub;

/** Per-node effective bandwidth of one pattern, in MB/s. */
double
runPattern(int procs, bool bisection)
{
    noc::Torus torus(machine::t3eTorusConfig(procs));
    const int packets = 256;
    const std::uint32_t payload = 64;

    // Each node is a packet source paced by its own injections.  The
    // min-heap of (tick, insertion sequence, node) merges all sources
    // in time order; same-tick sends go in the order they were
    // scheduled.
    using Send = std::tuple<Tick, std::uint64_t, NodeId>;
    std::priority_queue<Send, std::vector<Send>, std::greater<>> q;
    std::uint64_t seq = 0;
    for (NodeId p = 0; p < procs; ++p)
        q.emplace(Tick(0), seq++, p);

    std::vector<int> remaining(procs, packets);
    Tick last_arrival = 0;
    while (!q.empty()) {
        const auto [now, order, p] = q.top();
        q.pop();
        --remaining[p];
        const NodeId dst =
            bisection ? (p + procs / 2) % procs : (p + 1) % procs;
        const noc::PacketResult pr = torus.send(p, dst, payload, now);
        last_arrival = std::max(last_arrival, pr.arrived);
        if (remaining[p] > 0)
            q.emplace(std::max(pr.injected + 1, now + 1), seq++, p);
    }

    const double total_bytes =
        static_cast<double>(procs) * packets * payload;
    return total_bytes * 1e6 / static_cast<double>(last_arrival) /
           procs;
}

} // namespace

int
main(int, char **)
{
    using namespace gasnub;
    bench::banner("Extra (Section 5.6)",
                  "T3E torus: neighbour vs bisection (AAPC-style) "
                  "traffic");
    std::printf("%8s %14s %14s %16s\n", "procs", "neighbour MB/s",
                "bisection MB/s", "bisection/nbr");
    for (int procs : {8, 64, 216, 512}) {
        const double nbr = runPattern(procs, false);
        const double bis = runPattern(procs, true);
        std::printf("%8d %14.0f %14.0f %15.2f%%\n", procs, nbr, bis,
                    100.0 * bis / nbr);
    }
    std::printf("\nNeighbour traffic scales flat with machine size; "
                "cross-machine\ntraffic decays as the per-node share "
                "of the bisection shrinks —\nthe limit the paper "
                "expects transposes to hit beyond 512 PEs.\n");
    return 0;
}
