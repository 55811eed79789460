#include "remote/smp_pull.hh"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "sim/logging.hh"

namespace gasnub::remote {

SmpPull::SmpPull(std::vector<mem::MemoryHierarchy *> nodes,
                 stats::Group *parent)
    : _nodes(std::move(nodes)),
      _stats("smpPull"),
      _pulls(&_stats, "smpPull.transfers", "pull transfers performed"),
      _wordsMoved(&_stats, "smpPull.wordsMoved", "64-bit words pulled"),
      _bandwidth(&_stats, "smpPull.bandwidth",
                 "bytes pulled per time bucket"),
      _traceTrack(trace::Tracer::instance().track("smpPull"))
{
    if (parent)
        parent->addChild(&_stats);
}

bool
SmpPull::supports(TransferMethod method) const
{
    return method == TransferMethod::CoherentPull;
}

Tick
SmpPull::transfer(const TransferRequest &req, TransferMethod method,
                  Tick start)
{
    GASNUB_ASSERT(method == TransferMethod::CoherentPull,
                  "SMP supports only coherent pulling");
    GASNUB_ASSERT(req.dst >= 0 &&
                      req.dst < static_cast<NodeId>(_nodes.size()),
                  "bad destination node");
    ++_pulls;
    _wordsMoved += req.words;

    // The consumer reads the producer's data; the coherency protocol
    // sources each line from the owner's board or from shared DRAM.
    mem::MemoryHierarchy *dst = _nodes[req.dst];
    dst->stallUntil(start);
    Addr buf[mem::AccessBatch::kCapacity];
    for (std::uint64_t i = 0; i < req.words;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(req.words - i,
                                    mem::AccessBatch::kCapacity));
        for (std::size_t k = 0; k < n; ++k, ++i)
            buf[k] = req.srcAddr + i * req.srcStride * wordBytes;
        dst->readBatch(buf, n);
    }
    // drain() is at least every read's completion tick.
    const Tick end = dst->drain();
    _bandwidth.addBytes(end, req.words * wordBytes);
    GASNUB_TRACE(trace::Category::Remote, _traceTrack, "pull", start,
                 end, "words", req.words, "dst",
                 static_cast<std::uint64_t>(req.dst));
    return end;
}

void
SmpPull::resetTiming()
{
}

} // namespace gasnub::remote
