#include "kernels/kernels.hh"

#include <algorithm>
#include <vector>

#include "kernels/remote_kernels.hh"
#include "mem/access.hh"
#include "sim/logging.hh"
#include "sim/units.hh"

namespace gasnub::kernels {

namespace {

/** Sum of all cache capacities in the hierarchy. */
std::uint64_t
totalCacheBytes(const mem::HierarchyConfig &config)
{
    std::uint64_t total = 0;
    for (const auto &lc : config.levels)
        total += lc.cache.sizeBytes;
    return total;
}

/** Round @p v down to a multiple of @p m (at least m). */
std::uint64_t
roundDown(std::uint64_t v, std::uint64_t m)
{
    const std::uint64_t r = v / m * m;
    return r == 0 ? m : r;
}

} // namespace

std::uint64_t
effectiveWorkingSet(const mem::MemoryHierarchy &mem,
                    const KernelParams &p)
{
    GASNUB_ASSERT(p.wsBytes >= wordBytes, "working set too small");
    const std::uint64_t caches = totalCacheBytes(mem.config());
    std::uint64_t cap = p.capBytes;
    if (cap == 0)
        cap = std::max<std::uint64_t>(4 * caches, 4_MiB);
    // Only truncate deep in the capacity-miss regime, where behaviour
    // is stride-pattern periodic and independent of the set size.
    if (p.wsBytes > cap && p.wsBytes > 4 * caches)
        return roundDown(cap, p.stride * wordBytes);
    return p.wsBytes;
}

namespace {

/**
 * Warm @p mem with the cacheable working sets of primed kernels, via
 * the functional tag walk: it leaves exactly the state a timed priming
 * pass + resetTiming() would (see MemoryHierarchy::primeBatch) at a
 * fraction of the cost.  On the 8400 the prime hook replays the bus
 * directory updates, so machine-level coherence state is warmed too.
 */
void
primeCacheable(mem::MemoryHierarchy &mem, const KernelParams &p,
               std::uint64_t ws, const mem::StridedSweep &sweep)
{
    if (!p.prime || ws > 2 * totalCacheBytes(mem.config()))
        return;
    mem::StridedSweep::Cursor cur(sweep);
    Addr buf[mem::AccessBatch::kCapacity];
    while (const std::size_t n =
               cur.fill(buf, mem::AccessBatch::kCapacity))
        mem.primeBatch(buf, n);
}

/**
 * Shared driver of every local kernel: reset @p scope, prime cacheable
 * working sets, then emit the sweep's addresses into @p mem in cursor
 * blocks of @p block_words and hand each to @p block (buf, count,
 * base_index).  @p scope is the node's own hierarchy for the node
 * entries, or the whole machine for the machine entries, so shared
 * resources (the 8400 bus and memory) start in a defined state.
 */
template <typename Scope, typename Block>
KernelResult
runSweep(Scope &scope, mem::MemoryHierarchy &mem, const KernelParams &p,
         std::size_t block_words, Block &&block)
{
    const std::uint64_t ws = effectiveWorkingSet(mem, p);
    const std::uint64_t words = ws / wordBytes;
    const mem::StridedSweep sweep(p.base, words, p.stride);

    scope.resetAll();
    primeCacheable(mem, p, ws, sweep);
    scope.resetTiming();

    mem::StridedSweep::Cursor cur(sweep);
    Addr buf[mem::AccessBatch::kCapacity];
    std::uint64_t base = 0;
    while (const std::size_t n = cur.fill(buf, block_words)) {
        block(buf, n, base);
        base += n;
    }
    const Tick elapsed = mem.drain();

    KernelResult res;
    res.accesses = words;
    res.bytes = words * wordBytes;
    res.elapsed = elapsed;
    res.mbs = bandwidthMBs(res.bytes, std::max<Tick>(elapsed, 1));
    return res;
}

template <typename Scope>
KernelResult
loadSumIn(Scope &scope, mem::MemoryHierarchy &mem, const KernelParams &p)
{
    return runSweep(
        scope, mem, p, mem::AccessBatch::kCapacity,
        [&mem](const Addr *buf, std::size_t n, std::uint64_t) {
            mem.readBatch(buf, n);
        });
}

template <typename Scope>
KernelResult
storeConstantIn(Scope &scope, mem::MemoryHierarchy &mem,
                const KernelParams &p)
{
    return runSweep(
        scope, mem, p, mem::AccessBatch::kCapacity,
        [&mem](const Addr *buf, std::size_t n, std::uint64_t) {
            mem.writeBatch(buf, n);
        });
}

template <typename Scope>
KernelResult
copyIn(Scope &scope, mem::MemoryHierarchy &mem, const KernelParams &p,
       CopyVariant variant, Addr dst_base)
{
    const std::uint64_t ws = effectiveWorkingSet(mem, p);
    GASNUB_ASSERT(dst_base >= p.base + ws || p.base >= dst_base + ws,
                  "copy regions overlap");
    KernelParams q = p;
    // Copy transfers in the paper's Section 6 use the basic model:
    // large transfers, no temporal reuse, cold caches.
    q.prime = false;
    // Pin the (possibly capped) working set so the load and store
    // sweeps agree on the element count.
    q.wsBytes = ws;

    // A copy pairs one load with one store per element, so batch
    // blocks hold half a batch of each.
    constexpr std::size_t kPairWords = mem::AccessBatch::kCapacity / 2;

    KernelResult res;
    if (variant == CopyVariant::StridedLoads) {
        // i-th strided load pairs with the i-th contiguous store.
        res = runSweep(scope, mem, q, kPairWords,
                       [&mem, dst_base](const Addr *buf, std::size_t n,
                                        std::uint64_t base) {
                           mem::AccessBatch ab;
                           for (std::size_t k = 0; k < n; ++k) {
                               ab.push(buf[k], mem::AccessType::Read);
                               ab.push(dst_base + (base + k) * wordBytes,
                                       mem::AccessType::Write);
                           }
                           mem.processBatch(ab);
                       });
    } else {
        // Contiguous loads, strided stores: i-th contiguous load pairs
        // with the i-th strided store.
        const mem::StridedSweep store_sweep(dst_base, ws / wordBytes,
                                            p.stride);
        mem::StridedSweep::Cursor st(store_sweep);
        KernelParams lin = q;
        lin.stride = 1;
        res = runSweep(scope, mem, lin, kPairWords,
                       [&mem, &st](const Addr *buf, std::size_t n,
                                   std::uint64_t) {
                           Addr sbuf[kPairWords];
                           const std::size_t m = st.fill(sbuf, n);
                           GASNUB_ASSERT(m == n,
                                         "copy sweeps out of step");
                           mem::AccessBatch ab;
                           for (std::size_t k = 0; k < n; ++k) {
                               ab.push(buf[k], mem::AccessType::Read);
                               ab.push(sbuf[k], mem::AccessType::Write);
                           }
                           mem.processBatch(ab);
                       });
    }
    res.accesses *= 2; // a load and a store per element
    return res;
}

/** Disjoint per-node region base for the loaded-machine kernel. */
Addr
nodeRegion(NodeId node)
{
    // Skewed so concurrent processors do not march over the shared
    // DRAM banks in lockstep (physical pages are not phase-aligned).
    return (static_cast<Addr>(node) << 34) +
           static_cast<Addr>(node) * 320;
}

} // namespace

KernelResult
loadSum(mem::MemoryHierarchy &mem, const KernelParams &p)
{
    return loadSumIn(mem, mem, p);
}

KernelResult
loadSumOn(machine::Machine &m, NodeId node, const KernelParams &p)
{
    return loadSumIn(m, m.node(node), p);
}

/*
 * Store priming rule: Store-Constant surfaces are measured unprimed.
 * The machine entry — the one behind the characterizer's store
 * surfaces — ignores KernelParams::prime, while the node entry primes
 * cacheable working sets like every other kernel.  Priming does help
 * stores (T3E, 2 KiB, stride 1: 1000 MB/s primed, 438 MB/s cold), so
 * the entries differ on purpose (see EXPERIMENTS.md).
 */

KernelResult
storeConstant(mem::MemoryHierarchy &mem, const KernelParams &p)
{
    return storeConstantIn(mem, mem, p);
}

KernelResult
storeConstantOn(machine::Machine &m, NodeId node, const KernelParams &p)
{
    KernelParams cold = p;
    cold.prime = false;
    return storeConstantIn(m, m.node(node), cold);
}

KernelResult
copy(mem::MemoryHierarchy &mem, const KernelParams &p,
     CopyVariant variant, Addr dst_base)
{
    return copyIn(mem, mem, p, variant, dst_base);
}

KernelResult
copyOn(machine::Machine &m, NodeId node, const KernelParams &p,
       CopyVariant variant, Addr dst_base)
{
    return copyIn(m, m.node(node), p, variant, dst_base);
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
    for (NodeId id = 0; id < n; ++id)
        primeCacheable(m.node(id), p, ws, sweeps[id]);
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
