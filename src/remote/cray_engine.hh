/**
 * @file
 * Remote-transfer engines of the Cray T3D and T3E.
 *
 * T3D (paper Section 3.2): remote stores are captured from the
 * coalescing write-back queue (the CPU performs the local loads);
 * remote loads go through a shallow external prefetch FIFO.  Incoming
 * remote operations are handled by fetch/deposit circuitry that
 * stores data directly into user space without involving the remote
 * processor, invalidating L1 lines as data lands.
 *
 * T3E (paper Section 3.3): both directions run through the external
 * E-registers (shmem_iput / shmem_iget): deeply pipelined gathers and
 * scatters that bypass the caches on both sides.
 */

#ifndef GASNUB_REMOTE_CRAY_ENGINE_HH
#define GASNUB_REMOTE_CRAY_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/hierarchy.hh"
#include "noc/torus.hh"
#include "remote/remote_ops.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace gasnub::remote {

/** Static configuration of a Cray remote engine. */
struct CrayEngineConfig
{
    std::string name = "engine";
    /**
     * When true (T3D), deposits read the source data through the CPU
     * and its caches and capture the remote stores from the
     * write-back queue; when false (T3E), an E-register gather reads
     * the source memory directly.
     */
    bool depositViaCpu = true;
    std::uint32_t blockBytes = 32;  ///< contiguous coalescing granule
    std::uint32_t window = 4;       ///< outstanding blocks in flight
    double engineNs = 30;           ///< per-block engine processing
    double requestNs = 20;          ///< per-request issue cost (fetch)
    std::uint32_t requestBytes = 8; ///< request payload (address)
    std::uint32_t captureDepth = 8; ///< WBQ capture entries (T3D)
    /**
     * Extra per-request latency of the remote-load path (the T3D's
     * transparent blocking loads / external prefetch FIFO).
     */
    double fetchExtraNs = 0;
};

/**
 * Parametric engine covering both Cray machines.  Nodes and the torus
 * are owned by the Machine; the engine references them.
 */
class CrayEngine : public RemoteOps
{
  public:
    /**
     * @param config Engine parameters.
     * @param nodes  Per-node hierarchies (indexed by NodeId).
     * @param torus  The interconnect.
     * @param parent Stats group to register under (may be null).
     */
    CrayEngine(const CrayEngineConfig &config,
               std::vector<mem::MemoryHierarchy *> nodes,
               noc::Torus *torus, stats::Group *parent = nullptr);

    bool supports(TransferMethod method) const override;
    Tick transfer(const TransferRequest &req, TransferMethod method,
                  Tick start) override;
    void resetTiming() override;

    /**
     * Attach the machine's time account; per-block request issue
     * charges @p engine, the T3D's transient capture queues charge
     * @p wbq like the node's own write-back queue.
     */
    void
    setTimeAccount(sim::TimeAccount *acct,
                   sim::TimeAccount::ResId engine,
                   sim::TimeAccount::ResId wbq)
    {
        _acct = acct;
        _engineRes = engine;
        _wbqRes = wbq;
    }

    const CrayEngineConfig &config() const { return _config; }

  private:
    Tick deposit(const TransferRequest &req, Tick start);
    Tick fetch(const TransferRequest &req, Tick start);

    /**
     * The windowed E-register block loop behind every fetch and the
     * T3E's deposit: blocks of the request's granule (full blocks when
     * contiguous, single words otherwise), one issued per request
     * time, at most `window` in flight.  When @p fetching, each block
     * first sends a request packet dst -> src and its source read
     * pays fetchExtraNs.
     */
    Tick blockLoop(const TransferRequest &req, Tick start, bool fetching);

    CrayEngineConfig _config;
    std::vector<mem::MemoryHierarchy *> _nodes;
    noc::Torus *_torus;
    sim::TimeAccount *_acct = nullptr;
    sim::TimeAccount::ResId _engineRes = 0;
    sim::TimeAccount::ResId _wbqRes = 0;
    Tick _engineTicks;
    Tick _requestTicks;
    Tick _fetchExtraTicks;

    stats::Group _stats;
    stats::Scalar _deposits;
    stats::Scalar _fetches;
    stats::Scalar _wordsMoved;
    stats::IntervalBandwidth _bandwidth;
    trace::TrackId _traceTrack;
};

} // namespace gasnub::remote

#endif // GASNUB_REMOTE_CRAY_ENGINE_HH
