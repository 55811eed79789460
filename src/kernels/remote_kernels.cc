#include "kernels/remote_kernels.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/units.hh"

namespace gasnub::kernels {

KernelResult
remoteTransfer(machine::Machine &m, const RemoteParams &p)
{
    GASNUB_ASSERT(p.src != p.dst, "remote transfer needs two nodes");
    GASNUB_ASSERT(p.stride >= 1, "stride must be >= 1");
    GASNUB_ASSERT(m.remote().supports(p.method),
                  remote::methodName(p.method),
                  " unsupported on this machine");

    m.resetAll();

    // Cap deep in the capacity-miss regime, as the local kernels do.
    KernelParams lp;
    lp.wsBytes = p.wsBytes;
    lp.stride = p.stride;
    lp.capBytes = p.capBytes;
    const std::uint64_t ws = effectiveWorkingSet(m.node(p.src), lp);
    const std::uint64_t words = ws / wordBytes;

    // The producer generates the working set; then a synchronization
    // point separates production from the measured transfer.
    m.produce(p.src, p.srcBase, words);
    m.barrier();
    m.resetTiming();

    // Sweep the whole region: one single-pass strided transfer per
    // stride offset; the contiguous side advances cumulatively.
    Tick end = 0;
    std::uint64_t moved = 0;
    for (std::uint64_t off = 0; off < p.stride && moved < words;
         ++off) {
        const std::uint64_t elems =
            (words - off + p.stride - 1) / p.stride;
        remote::TransferRequest req;
        req.src = p.src;
        req.dst = p.dst;
        if (p.strideOnSource) {
            req.srcAddr = p.srcBase + off * wordBytes;
            req.srcStride = p.stride;
            req.dstAddr = p.dstBase + moved * wordBytes;
            req.dstStride = 1;
        } else {
            req.srcAddr = p.srcBase + moved * wordBytes;
            req.srcStride = 1;
            req.dstAddr = p.dstBase + off * wordBytes;
            req.dstStride = p.stride;
        }
        req.words = elems;
        end = std::max(end, m.remote().transfer(req, p.method, 0));
        moved += elems;
    }

    KernelResult res;
    res.accesses = words;
    res.bytes = ws;
    res.elapsed = end;
    res.mbs = bandwidthMBs(res.bytes, std::max<Tick>(end, 1));
    return res;
}

} // namespace gasnub::kernels
