#include "kernels/kernels.hh"

#include <algorithm>

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
 * Warm the caches with the sweep via the functional tag walk: leaves
 * exactly the state a timed priming pass + resetTiming() would (see
 * MemoryHierarchy::primeBatch) at a fraction of the cost.
 */
void
primeFunctional(mem::MemoryHierarchy &mem,
                const mem::StridedSweep &sweep)
{
    mem::StridedSweep::Cursor cur(sweep);
    Addr buf[mem::AccessBatch::kCapacity];
    while (const std::size_t n =
               cur.fill(buf, mem::AccessBatch::kCapacity))
        mem.primeBatch(buf, n);
}

/**
 * Shared driver: reset, prime cacheable working sets, then emit the
 * sweep's addresses in cursor blocks of @p block_words and hand each
 * to @p block (buf, count, base_index).
 */
template <typename Block>
KernelResult
runSweep(mem::MemoryHierarchy &mem, const KernelParams &p,
         std::size_t block_words, Block &&block)
{
    const std::uint64_t ws = effectiveWorkingSet(mem, p);
    const std::uint64_t words = ws / wordBytes;
    const mem::StridedSweep sweep(p.base, words, p.stride);

    mem.resetAll();
    const std::uint64_t caches = totalCacheBytes(mem.config());
    if (p.prime && ws <= 2 * caches)
        primeFunctional(mem, sweep);
    mem.resetTiming();

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

} // namespace

KernelResult
loadSum(mem::MemoryHierarchy &mem, const KernelParams &p)
{
    return runSweep(
        mem, p, mem::AccessBatch::kCapacity,
        [&mem](const Addr *buf, std::size_t n, std::uint64_t) {
            mem.readBatch(buf, n);
        });
}

KernelResult
storeConstant(mem::MemoryHierarchy &mem, const KernelParams &p)
{
    // Stores do not benefit from a read-primed cache; prime anyway for
    // symmetry (the paper's stores confirmed write-back behaviour).
    return runSweep(
        mem, p, mem::AccessBatch::kCapacity,
        [&mem](const Addr *buf, std::size_t n, std::uint64_t) {
            mem.writeBatch(buf, n);
        });
}

KernelResult
copy(mem::MemoryHierarchy &mem, const KernelParams &p,
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
        res = runSweep(mem, q, kPairWords,
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
        res = runSweep(mem, lin, kPairWords,
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

} // namespace gasnub::kernels
