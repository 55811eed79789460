/**
 * @file
 * The paper's micro-benchmark kernels (Section 4.2), driven against a
 * simulated memory hierarchy:
 *
 *  - Load Sum: load every word of the working set once (plus an add);
 *  - Load/Store Copy: copy with strided loads + contiguous stores, or
 *    contiguous loads + strided stores;
 *  - Store Constant: store to every word once (the dual benchmark the
 *    paper mentions but does not plot).
 *
 * Each kernel visits all words of the working set exactly once and
 * starts "with a primed cache for exactly that working set" when the
 * working set can be cached.  Bandwidth is useful bytes over simulated
 * time, in MByte/s.
 *
 * Every kernel has one body (kernels.cc) behind two entries: the node
 * entries declared here, which reset only the given hierarchy, and the
 * machine entries in remote_kernels.hh, which reset the whole machine.
 * The entries differ only in that reset scope — and in one stated
 * rule: machine Store-Constant runs unprimed.
 */

#ifndef GASNUB_KERNELS_KERNELS_HH
#define GASNUB_KERNELS_KERNELS_HH

#include <cstdint>

#include "mem/hierarchy.hh"
#include "sim/types.hh"

namespace gasnub::kernels {

/** Result of one micro-benchmark run. */
struct KernelResult
{
    double mbs = 0;            ///< bandwidth in MByte/s
    std::uint64_t bytes = 0;   ///< useful bytes moved
    Tick elapsed = 0;          ///< simulated time
    std::uint64_t accesses = 0;///< word accesses performed
};

/** Common parameters of a micro-benchmark run. */
struct KernelParams
{
    Addr base = 0;               ///< base address of the working set
    std::uint64_t wsBytes = 65536; ///< working-set size in bytes
    std::uint64_t stride = 1;    ///< stride in 64-bit words
    /**
     * Simulation cap: working sets larger than both this and the
     * capacity-miss threshold are truncated (behaviour is identical in
     * the capacity-miss regime). 0 = derive from the cache sizes.
     */
    std::uint64_t capBytes = 0;
    /**
     * Prime the caches with the working set before measuring, as the
     * paper does. Priming is skipped automatically when the working
     * set cannot be cached anyway.
     */
    bool prime = true;
};

/**
 * Load-Sum benchmark: strided loads over the working set.
 * @param mem The node's memory hierarchy (reset internally).
 * @param p   Working set / stride parameters.
 */
KernelResult loadSum(mem::MemoryHierarchy &mem, const KernelParams &p);

/**
 * Store-Constant benchmark: strided stores over the working set.
 */
KernelResult storeConstant(mem::MemoryHierarchy &mem,
                           const KernelParams &p);

/** Which side of a copy is strided. */
enum class CopyVariant {
    StridedLoads,  ///< strided loads, contiguous stores
    StridedStores, ///< contiguous loads, strided stores
};

/**
 * Load/Store copy benchmark: copy wsBytes from a source region to a
 * destination region; one side strided, the other contiguous.  The
 * reported bandwidth counts copied bytes (as the paper's copy
 * throughput does), not total traffic.
 *
 * @param mem     The node's memory hierarchy (reset internally).
 * @param p       Working set / stride parameters (per region).
 * @param variant Which side is strided.
 * @param dstBase Base address of the destination region; it must not
 *                overlap [p.base, p.base + wsBytes).
 */
KernelResult copy(mem::MemoryHierarchy &mem, const KernelParams &p,
                  CopyVariant variant, Addr dstBase);

/**
 * Effective (possibly capped) working-set size for a run, exposed so
 * benches can report what was actually simulated.
 */
std::uint64_t effectiveWorkingSet(const mem::MemoryHierarchy &mem,
                                  const KernelParams &p);

} // namespace gasnub::kernels

#endif // GASNUB_KERNELS_KERNELS_HH
