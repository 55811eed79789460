#include "kernels/remote_kernels.hh"

#include <algorithm>

#include "mem/access.hh"
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

namespace {

/** Disjoint per-node region base for machine-level kernels. */
Addr
nodeRegion(NodeId node)
{
    // Skewed so concurrent processors do not march over the shared
    // DRAM banks in lockstep (physical pages are not phase-aligned).
    return (static_cast<Addr>(node) << 34) +
           static_cast<Addr>(node) * 320;
}

/** Replay a whole sweep into @p h as batched reads. */
void
readSweepBatched(mem::MemoryHierarchy &h, const mem::StridedSweep &sweep)
{
    mem::StridedSweep::Cursor cur(sweep);
    Addr buf[mem::AccessBatch::kCapacity];
    while (const std::size_t n = cur.fill(buf, mem::AccessBatch::kCapacity))
        h.readBatch(buf, n);
}

/** Replay a whole sweep into @p h as batched writes. */
void
writeSweepBatched(mem::MemoryHierarchy &h, const mem::StridedSweep &sweep)
{
    mem::StridedSweep::Cursor cur(sweep);
    Addr buf[mem::AccessBatch::kCapacity];
    while (const std::size_t n = cur.fill(buf, mem::AccessBatch::kCapacity))
        h.writeBatch(buf, n);
}

/**
 * Warm @p h with the sweep via the functional tag walk (see
 * MemoryHierarchy::primeBatch).  On the 8400 the prime hook replays
 * the bus directory updates, so machine-level coherence state is
 * warmed exactly as a timed prime would.
 */
void
primeSweep(mem::MemoryHierarchy &h, const mem::StridedSweep &sweep)
{
    mem::StridedSweep::Cursor cur(sweep);
    Addr buf[mem::AccessBatch::kCapacity];
    while (const std::size_t n = cur.fill(buf, mem::AccessBatch::kCapacity))
        h.primeBatch(buf, n);
}

} // namespace

KernelResult
loadSumOn(machine::Machine &m, NodeId node, const KernelParams &p)
{
    m.resetAll();
    mem::MemoryHierarchy &h = m.node(node);
    const std::uint64_t ws = effectiveWorkingSet(h, p);
    const std::uint64_t words = ws / wordBytes;
    const mem::StridedSweep sweep(p.base, words, p.stride);

    std::uint64_t caches = 0;
    for (const auto &lc : h.config().levels)
        caches += lc.cache.sizeBytes;
    if (p.prime && ws <= 2 * caches)
        primeSweep(h, sweep);
    m.resetTiming();

    readSweepBatched(h, sweep);
    const Tick elapsed = h.drain();

    KernelResult res;
    res.accesses = sweep.size();
    res.bytes = ws;
    res.elapsed = elapsed;
    res.mbs = bandwidthMBs(ws, std::max<Tick>(elapsed, 1));
    return res;
}

KernelResult
storeConstantOn(machine::Machine &m, NodeId node, const KernelParams &p)
{
    m.resetAll();
    mem::MemoryHierarchy &h = m.node(node);
    const std::uint64_t ws = effectiveWorkingSet(h, p);
    const std::uint64_t words = ws / wordBytes;
    const mem::StridedSweep sweep(p.base, words, p.stride);
    m.resetTiming();
    writeSweepBatched(h, sweep);
    const Tick elapsed = h.drain();

    KernelResult res;
    res.accesses = sweep.size();
    res.bytes = ws;
    res.elapsed = elapsed;
    res.mbs = bandwidthMBs(ws, std::max<Tick>(elapsed, 1));
    return res;
}

KernelResult
copyOn(machine::Machine &m, NodeId node, const KernelParams &p,
       CopyVariant variant, Addr dst_base)
{
    m.resetAll();
    mem::MemoryHierarchy &h = m.node(node);
    KernelParams q = p;
    q.prime = false;
    const std::uint64_t ws = effectiveWorkingSet(h, q);
    q.wsBytes = ws;
    const std::uint64_t words = ws / wordBytes;
    GASNUB_ASSERT(dst_base >= q.base + ws || q.base >= dst_base + ws,
                  "copy regions overlap");

    const std::uint64_t load_stride =
        variant == CopyVariant::StridedLoads ? q.stride : 1;
    const std::uint64_t store_stride =
        variant == CopyVariant::StridedStores ? q.stride : 1;
    const mem::StridedSweep loads(q.base, words, load_stride);
    const mem::StridedSweep stores(dst_base, words, store_stride);

    m.resetTiming();
    // Interleave the two sweeps pairwise into mixed batches.
    constexpr std::size_t kPairWords = mem::AccessBatch::kCapacity / 2;
    mem::StridedSweep::Cursor lc(loads);
    mem::StridedSweep::Cursor sc(stores);
    Addr lbuf[kPairWords];
    Addr sbuf[kPairWords];
    while (const std::size_t n = lc.fill(lbuf, kPairWords)) {
        const std::size_t ns = sc.fill(sbuf, n);
        GASNUB_ASSERT(ns == n, "copy sweeps out of step");
        mem::AccessBatch ab;
        for (std::size_t k = 0; k < n; ++k) {
            ab.push(lbuf[k], mem::AccessType::Read);
            ab.push(sbuf[k], mem::AccessType::Write);
        }
        h.processBatch(ab);
    }
    const Tick elapsed = h.drain();

    KernelResult res;
    res.accesses = 2 * words;
    res.bytes = ws;
    res.elapsed = elapsed;
    res.mbs = bandwidthMBs(ws, std::max<Tick>(elapsed, 1));
    return res;
}

KernelResult
loadSumLoaded(machine::Machine &m, const KernelParams &p)
{
    m.resetAll();
    const int n = m.numNodes();
    const std::uint64_t ws = effectiveWorkingSet(m.node(0), p);
    const std::uint64_t words = ws / wordBytes;

    std::vector<mem::StridedSweep> sweeps;
    for (NodeId id = 0; id < n; ++id)
        sweeps.emplace_back(nodeRegion(id) + p.base, words, p.stride);

    // Prime cacheable working sets, as the idle measurement does.
    std::uint64_t caches = 0;
    for (const auto &lc : m.node(0).config().levels)
        caches += lc.cache.sizeBytes;
    if (p.prime && ws <= 2 * caches) {
        for (NodeId id = 0; id < n; ++id)
            primeSweep(m.node(id), sweeps[id]);
    }
    m.resetTiming();
    // Round-robin across processors so shared resources see requests
    // in roughly global time order.
    for (std::uint64_t i = 0; i < words; ++i)
        for (NodeId id = 0; id < n; ++id)
            m.node(id).read(sweeps[id][i]);

    Tick slowest = 0;
    for (NodeId id = 0; id < n; ++id)
        slowest = std::max(slowest, m.node(id).drain());

    KernelResult res;
    res.accesses = words * n;
    res.bytes = ws; // per processor
    res.elapsed = slowest;
    res.mbs = bandwidthMBs(ws, std::max<Tick>(slowest, 1));
    return res;
}

} // namespace gasnub::kernels
