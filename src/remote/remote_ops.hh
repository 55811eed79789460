/**
 * @file
 * The remote copy-transfer primitives of the copy-transfer model
 * (paper Sections 2.2 and 4.1).
 *
 * A transfer moves `words` 64-bit words from a source region (read
 * with srcStride) to a destination region on another node (written
 * with dstStride).  Three implementation methods exist across the
 * machines:
 *
 *  - Deposit: the sender "drops" data into the receiver's address
 *    space (remote stores; T3D write-back-queue capture, T3E
 *    shmem_iput via E-registers);
 *  - Fetch: the receiver pulls (remote loads; T3D prefetch FIFO /
 *    shmem_iget, T3E E-registers);
 *  - CoherentPull: the DEC 8400's only option — the consumer reads
 *    through the coherency mechanism ("the implicit coherency
 *    mechanism limits the user to pulling").
 *
 * Synchronization is explicit and separate from data transfer (the
 * direct-deposit model): callers establish readiness before invoking
 * a transfer, and transfers return the tick at which all data is
 * globally visible at the destination.
 */

#ifndef GASNUB_REMOTE_REMOTE_OPS_HH
#define GASNUB_REMOTE_REMOTE_OPS_HH

#include <cstdint>

#include "sim/types.hh"

namespace gasnub::remote {

/** One remote copy transfer. */
struct TransferRequest
{
    NodeId src = 0;            ///< node owning the source data
    NodeId dst = 1;            ///< node owning the destination region
    Addr srcAddr = 0;          ///< first source word
    Addr dstAddr = 0;          ///< first destination word
    std::uint64_t words = 0;   ///< number of 64-bit words
    std::uint64_t srcStride = 1; ///< words between source elements
    std::uint64_t dstStride = 1; ///< words between destination elements
    /**
     * Contiguous words per element (2 for complex pairs).  Strides
     * are measured between element starts.  Only the CPU-driven T3D
     * deposit honours element runs; the E-register primitives are
     * word-granular ("the simple capabilities of the shmem_iput
     * primitive", paper Section 7.3) and treat each word separately.
     */
    std::uint64_t elemWords = 1;
};

/** How a transfer is implemented. */
enum class TransferMethod {
    Deposit,      ///< sender-driven remote stores
    Fetch,        ///< receiver-driven remote loads
    CoherentPull, ///< receiver-driven coherent reads (SMP)
};

/** Human-readable method name. */
const char *methodName(TransferMethod m);

/**
 * Abstract remote-transfer engine; one concrete implementation per
 * machine family.
 */
class RemoteOps
{
  public:
    virtual ~RemoteOps() = default;

    /** @return true if this machine implements @p method. */
    virtual bool supports(TransferMethod method) const = 0;

    /**
     * Perform @p req with @p method.
     *
     * @param req    The transfer (src/dst nodes, strides, count).
     * @param method Implementation; must be supported.
     * @param start  Earliest tick the transfer may begin.
     * @return tick at which the last word is visible at @p req.dst.
     */
    virtual Tick transfer(const TransferRequest &req,
                          TransferMethod method, Tick start) = 0;

    /** Reset engine-internal timing state (between experiments). */
    virtual void resetTiming() = 0;
};

} // namespace gasnub::remote

#endif // GASNUB_REMOTE_REMOTE_OPS_HH
