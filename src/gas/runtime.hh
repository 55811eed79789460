/**
 * @file
 * gas::Runtime — a small PGAS runtime over one simulated machine.
 *
 * The runtime gives workloads the programming model the paper argues
 * for: a symmetric heap of globally addressable arrays, one-sided
 * `rput`/`rget` (contiguous and strided) in the style of UPC++ and
 * SHMEM, and *explicit, separate synchronization* (handles, fence,
 * barrier) — the direct-deposit discipline of Section 2.2.  Every
 * operation lowers onto `remote::RemoteOps::transfer`, so timing
 * comes from the same calibrated engines the characterization
 * measures; with Method::Auto the runtime consults a
 * core::TransferPlanner loaded with this machine's surfaces and
 * reproduces the Section 9 back-end decisions per call.
 *
 * Two clocks per operation matter:
 *
 *  - the *initiator* (src node of a deposit, dst node of a fetch or
 *    pull) issues operations in program order — the runtime chains
 *    them through a per-node cursor;
 *  - the returned Handle carries the tick at which the data is
 *    globally visible; wait()/fence()/barrier() stall node clocks to
 *    such ticks.
 *
 * Data vs. time: the simulator is a timing model, but each symmetric
 * allocation also carries functional backing storage (doubles), and
 * rput/rget copy through it — so workloads can verify real end-to-end
 * data movement.  Local compute mutates that storage directly via
 * GlobalArray::data() and charges time with load()/store().
 */

#ifndef GASNUB_GAS_RUNTIME_HH
#define GASNUB_GAS_RUNTIME_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/planner.hh"
#include "gas/global_ptr.hh"
#include "machine/machine.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace gasnub::gas {

class Runtime;

/** Runtime construction parameters. */
struct RuntimeConfig
{
    /** Stats/trace name of this runtime instance. */
    std::string name = "gas";
    /**
     * Address-space regions reserved per node.  Each allocation gets
     * its own region (a disjoint high-address window), so allocations
     * never alias in caches or DRAM banks; a runtime supports at most
     * this many allocations.
     */
    int regionsPerNode = 8;
    /** Allocate functional backing storage for each allocation. */
    bool payload = true;
};

/** A strided transfer shape (SHMEM iput/iget style). */
struct Strided
{
    std::uint64_t words = 0;     ///< total words, incl. element runs
    std::uint64_t srcStride = 1; ///< words between source elements
    std::uint64_t dstStride = 1; ///< words between dest elements
    std::uint64_t elemWords = 1; ///< contiguous words per element

    /** A contiguous transfer of @p words words. */
    static constexpr Strided
    contiguous(std::uint64_t words)
    {
        return {words, 1, 1, 1};
    }
};

/**
 * Completion handle of a one-sided operation.  wait() on a completed
 * handle — repeatedly — is a safe no-op beyond stalling the initiator
 * to @a complete.
 */
struct Handle
{
    Tick complete = 0;   ///< data globally visible at this tick
    std::uint64_t id = 0;
    NodeId initiator = -1; ///< node whose clock drove the op
    remote::TransferMethod method =
        remote::TransferMethod::Fetch; ///< resolved implementation

    bool valid() const { return initiator >= 0; }
};

/**
 * One node's slice of the symmetric heap: the region bases and the
 * functional payload of every allocation.
 */
class Segment
{
  public:
    Segment(NodeId node, int regions);

    NodeId nodeId() const { return _node; }
    std::size_t numAllocations() const { return _allocs.size(); }

    /** Register the next allocation; @return its index. */
    std::size_t add(std::uint64_t words, bool payload);

    /** First word address of allocation @p i on this node. */
    Addr base(std::size_t i) const;

    /** Size of allocation @p i in words. */
    std::uint64_t words(std::size_t i) const;

    /** Payload of allocation @p i (nullptr when payload is off). */
    double *data(std::size_t i);

    /**
     * Map @p addr back to (allocation, word offset).
     * @return false when the address is outside every allocation.
     */
    bool resolve(Addr addr, std::size_t &alloc,
                 std::uint64_t &word) const;

  private:
    struct Alloc
    {
        Addr base = 0;
        std::uint64_t words = 0;
        std::vector<double> data;
    };

    NodeId _node;
    int _regions;
    std::vector<Alloc> _allocs;
};

/**
 * Handle to one symmetric allocation: the same length on every node,
 * at a node-dependent base address (SHMEM symmetric heap).
 */
class GlobalArray
{
  public:
    GlobalArray() = default;

    bool valid() const { return _rt != nullptr; }

    /** Global pointer to word @p word of this array on @p node. */
    GlobalPtr on(NodeId node, std::uint64_t word = 0) const;

    /** Functional payload on @p node (nullptr when payload is off). */
    double *data(NodeId node) const;

    /** Per-node length in words. */
    std::uint64_t words() const;

  private:
    friend class Runtime;
    GlobalArray(Runtime *rt, std::size_t index)
        : _rt(rt), _index(index)
    {}

    Runtime *_rt = nullptr;
    std::size_t _index = 0;
};

/** The PGAS runtime bound to one machine. */
class Runtime
{
  public:
    /**
     * Bind to @p m (not owned; must outlive the runtime).  The
     * runtime's stats group attaches as a child of the machine's and
     * detaches again on destruction.
     */
    explicit Runtime(machine::Machine &m, RuntimeConfig cfg = {});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    machine::Machine &machine() { return _machine; }
    const RuntimeConfig &config() const { return _config; }
    stats::Group &statsGroup() { return _stats; }

    /**
     * Allocate @p words words on *every* node (symmetric heap).
     * Fatal when the per-node region budget (regionsPerNode) is
     * exhausted — allocations are permanent.
     */
    GlobalArray allocate(std::uint64_t words);

    /** This node's slice of the heap. */
    Segment &segment(NodeId node);

    /**
     * Arm Method::Auto with a cost model (the machine's measured
     * characterization surfaces).  Without a planner, Auto falls back
     * to Machine::nativeMethod() — the paper's Section 9 default.
     * Fatal when no option's method runs on this machine (a planner
     * loaded from another machine's directory).
     */
    void setPlanner(core::TransferPlanner planner);
    const core::TransferPlanner *planner() const;

    /**
     * Resolve the implementation of a transfer of shape @p spec
     * requested as @p m: explicit methods are checked against the
     * machine (fatal when unsupported); Auto queries the planner —
     * restricted to options this machine supports — or falls back to
     * the native method.  Exposed so apps can ask "what would you
     * pick?" and arrange loop order accordingly.
     */
    remote::TransferMethod resolveMethod(const Strided &spec,
                                         Method m) const;

    /** One-sided contiguous put: @p words words src -> dst. */
    Handle rput(GlobalPtr src, GlobalPtr dst, std::uint64_t words,
                Method m = Method::Auto);

    /** One-sided contiguous get (same data motion, receiver names it). */
    Handle rget(GlobalPtr src, GlobalPtr dst, std::uint64_t words,
                Method m = Method::Auto);

    /** Strided one-sided put (SHMEM iput / UPC++ rput_strided). */
    Handle rput_strided(GlobalPtr src, GlobalPtr dst,
                        const Strided &spec, Method m = Method::Auto);

    /** Strided one-sided get. */
    Handle rget_strided(GlobalPtr src, GlobalPtr dst,
                        const Strided &spec, Method m = Method::Auto);

    /**
     * Charge node @p who with one local word load/store at @p p.
     * Fatal when @p p lives on another node of a distributed machine
     * (use rget/rput there); the 8400's shared memory allows any
     * node.  @return the completion tick.
     */
    Tick load(NodeId who, GlobalPtr p);
    Tick store(NodeId who, GlobalPtr p);

    /**
     * Block the op's initiator until its data is globally visible.
     * @return the completion tick.
     */
    Tick wait(const Handle &h);

    /**
     * Every node waits for its *own* outstanding operations (each
     * initiator catches up to its cursor).  @return the latest
     * completion so far.
     */
    Tick waitAll();

    /**
     * Global visibility point: all nodes stall until every issued
     * operation has completed everywhere.  No synchronization cost of
     * its own — that is barrier().  @return the fence tick.
     */
    Tick fence();

    /**
     * fence() plus the machine's synchronization cost; aligns all
     * node clocks (maps onto Machine::barrier()).  @return the tick
     * all nodes resume at.
     */
    Tick barrier();

    /** Issue cursor of @p node (next tick an op it drives may start). */
    Tick cursor(NodeId node) const;

    /** Operations issued since the last fence()/barrier(). */
    std::uint64_t pendingOps() const { return _pendingOps; }

    /**
     * Reset all *timing* — machine clocks, engine state, cursors —
     * keeping allocations and payload data (Machine::resetAll plus
     * runtime state).
     */
    void reset();

  private:
    Handle transferOp(GlobalPtr src, GlobalPtr dst,
                      const Strided &spec, Method requested,
                      bool is_put);
    Tick lowerTransfer(GlobalPtr src, GlobalPtr dst,
                       const Strided &spec,
                       remote::TransferMethod method, Tick start);
    void copyPayload(GlobalPtr src, GlobalPtr dst,
                     const Strided &spec);
    void validatePtr(GlobalPtr p, const char *what) const;
    void countMethod(remote::TransferMethod m);

    machine::Machine &_machine;
    RuntimeConfig _config;
    std::optional<core::TransferPlanner> _planner;
    /** Per planner option: its method does not run on this machine. */
    std::vector<char> _unsupported;
    std::vector<Segment> _segments;
    std::vector<Tick> _cursor;   // per-node op issue cursor
    Tick _maxComplete = 0;
    std::uint64_t _pendingOps = 0;
    std::uint64_t _nextId = 0;
    std::vector<std::uint64_t> _allocWords; // per-allocation length

    trace::TrackId _traceTrack;
    stats::Group _stats;
    stats::Scalar _rputOps, _rputBytes;
    stats::Scalar _rgetOps, _rgetBytes;
    stats::Scalar _localLoads, _localStores, _localCopies;
    stats::Scalar _methodDeposit, _methodFetch, _methodPull;
    stats::Scalar _autoPlanned, _autoNative;
    stats::Scalar _fences, _barriers, _heapWords;
    stats::Scalar _deliveredBytes;

    friend class GlobalArray;
};

} // namespace gasnub::gas

#endif // GASNUB_GAS_RUNTIME_HH
