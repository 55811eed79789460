/**
 * @file
 * A complete parallel machine: per-node memory hierarchies plus the
 * interconnect and remote-transfer engine of one of the paper's three
 * systems.
 *
 * All three machines expose the same global-address-space model; they
 * differ — exactly as the paper stresses — in the bandwidth of local
 * and remote accesses and in which transfer methods exist.
 */

#ifndef GASNUB_MACHINE_MACHINE_HH
#define GASNUB_MACHINE_MACHINE_HH

#include <memory>
#include <vector>

#include "bus/dec8400_memory.hh"
#include "machine/configs.hh"
#include "remote/cray_engine.hh"
#include "mem/hierarchy.hh"
#include "noc/torus.hh"
#include "remote/remote_ops.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"
#include "sim/trace.hh"

#include <optional>

namespace gasnub::machine {

/** Interconnect configuration of the Cray machines. */
noc::TorusConfig t3dTorusConfig(int num_nodes);
noc::TorusConfig t3eTorusConfig(int num_nodes);

/** Bus configuration of the DEC 8400. */
bus::BusConfig dec8400BusConfig();

/** Remote engine configurations. */
remote::CrayEngineConfig t3dEngineConfig();
remote::CrayEngineConfig t3eEngineConfig();

/**
 * A parallel machine instance.
 *
 * Owns the node hierarchies, the interconnect (torus or bus+shared
 * memory) and the remote-transfer engine.  Per-node address spaces of
 * the distributed machines are all independent; on the 8400 the
 * address space is physically shared and the benchmarks place each
 * processor's data in disjoint regions.
 */
class Machine
{
  public:
    /**
     * @param kind      Which of the three systems.
     * @param num_nodes Number of processors (the paper uses 4; the
     *                  scalability study goes to 512).
     */
    Machine(SystemKind kind, int num_nodes);

    /**
     * Build a machine of @p kind whose nodes use a customized memory
     * system (design exploration / ablations). The interconnect and
     * engines still follow @p kind.
     *
     * @param kind      Base system (interconnect + engines).
     * @param num_nodes Number of processors.
     * @param node_cfg  Node memory system; the name is suffixed with
     *                  the node index.
     */
    Machine(SystemKind kind, int num_nodes,
            const mem::HierarchyConfig &node_cfg);

    /**
     * Build from a value-semantic SystemConfig; the recipe is kept and
     * exposed via systemConfig() so replicas of this machine can be
     * built elsewhere (sweep workers).
     */
    explicit Machine(const SystemConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    SystemKind kind() const { return _kind; }
    int numNodes() const { return static_cast<int>(_nodes.size()); }

    /** Per-node memory hierarchy. */
    mem::MemoryHierarchy &node(NodeId id);

    /** The machine's remote-transfer engine. */
    remote::RemoteOps &remote() { return *_remote; }

    /** The preferred transfer method on this machine (paper §9). */
    remote::TransferMethod nativeMethod() const;

    /** The torus, or nullptr on the bus-based 8400. */
    noc::Torus *torus() { return _torus.get(); }

    /** The shared memory subsystem, or nullptr on the Crays. */
    bus::Dec8400Memory *sharedMemory() { return _sharedMem.get(); }

    /**
     * Functionally produce data at @p node: write @p words words
     * starting at @p base through the node's hierarchy, so caches and
     * coherence state reflect freshly produced data.  Timing is then
     * discarded with resetTiming() by the caller.
     */
    void produce(NodeId node, Addr base, std::uint64_t words);

    /**
     * Barrier: align all node clocks to the global maximum plus the
     * machine's synchronization cost (the T3D has a hardware barrier
     * network; the T3E synchronizes through atomic E-register
     * operations; the 8400 through coherent flags).
     * @return the barrier tick.
     */
    Tick barrier();

    /** Cost of one barrier / synchronization point, in ticks. */
    Tick barrierCost() const;

    /** Reset all timing state on every component. */
    void resetTiming();

    /** Reset timing and all cached/coherence state. */
    void resetAll();

    stats::Group &statsGroup() { return _stats; }

    /**
     * The bottleneck-attribution ledger, or nullptr unless the
     * machine was built with SystemConfig::attribution.
     */
    sim::TimeAccount *timeAccount() { return _acct.get(); }

    /** The recipe this machine was built from. */
    const SystemConfig &systemConfig() const { return _sysConfig; }

  private:
    SystemConfig _sysConfig;
    SystemKind _kind;
    stats::Group _stats;
    trace::TrackId _traceTrack;
    std::vector<std::unique_ptr<mem::MemoryHierarchy>> _nodes;
    std::unique_ptr<noc::Torus> _torus;
    std::unique_ptr<bus::Dec8400Memory> _sharedMem;
    std::unique_ptr<remote::RemoteOps> _remote;
    std::unique_ptr<sim::TimeAccount> _acct;
    std::optional<sim::TimeAccountStat> _acctStat;
    std::optional<stats::Formula> _traceDropped;
};

} // namespace gasnub::machine

#endif // GASNUB_MACHINE_MACHINE_HH
