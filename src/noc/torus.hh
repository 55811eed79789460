/**
 * @file
 * The 3D-torus interconnect of the Cray T3D and T3E.
 *
 * The model is message/packet level: a packet carries a header (the
 * T3D sends "both address and data ... over the network") and a
 * payload; it is routed dimension-order over unidirectional links,
 * cut-through (one hop latency per router, link occupancy once per
 * link).  The T3D pairs two processing elements on one network node
 * ("the actual implementation pairs two processing nodes with a single
 * network access"), which the model expresses as a shared NIC
 * resource; the T3E gives every processor its own NIC.
 */

#ifndef GASNUB_NOC_TORUS_HH
#define GASNUB_NOC_TORUS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/resource.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace gasnub::noc {

/** Coordinates of a node in the torus. */
struct TorusCoord
{
    int x = 0;
    int y = 0;
    int z = 0;
};

/** Static configuration of a torus network. */
struct TorusConfig
{
    std::string name = "torus";
    int dimX = 2;             ///< nodes per X ring
    int dimY = 2;
    int dimZ = 1;
    double linkMBs = 150;     ///< per-link payload bandwidth
    double hopNs = 15;        ///< router cut-through latency per hop
    double nicNs = 40;        ///< NIC injection/ejection per packet
    std::uint32_t headerBytes = 8; ///< routing + address per packet
    int procsPerNic = 1;      ///< 2 on the T3D, 1 on the T3E
    /**
     * Software / partner-switch cost charged when a node starts
     * talking to a different partner ("there is a 'per message'
     * overhead for switching partners").
     */
    double partnerSwitchNs = 250;
};

/** Timing outcome of one packet traversal. */
struct PacketResult
{
    Tick injected = 0; ///< when the packet left the source NIC
    Tick arrived = 0;  ///< when the last byte reached the destination
    int hops = 0;
};

/**
 * Deterministic, resource-based 3D torus.
 *
 * Callers present packets in per-flow time order; shared links and
 * NICs are modelled as busy-until resources, so flows contend with
 * each other in call order (use a time-ordered driver for concurrent
 * flows, e.g.\ the AAPC scheduler in the fft module).
 */
class Torus
{
  public:
    /**
     * @param config Geometry and timing.
     * @param parent Stats group to register under (may be null).
     */
    explicit Torus(const TorusConfig &config,
                   stats::Group *parent = nullptr);

    /** Total number of processor nodes. */
    int numNodes() const { return _numNodes; }

    /** Coordinates of node @p id (paired T3D PEs share coordinates). */
    TorusCoord coordOf(NodeId id) const;

    /** Number of torus hops between two nodes (shortest direction). */
    int hopCount(NodeId src, NodeId dst) const;

    /**
     * Send one packet of @p payload_bytes from @p src to @p dst.
     *
     * @param src      Source processor node.
     * @param dst      Destination processor node.
     * @param payload_bytes Useful bytes carried.
     * @param earliest Earliest injection tick.
     * @return injection and arrival times.
     */
    PacketResult send(NodeId src, NodeId dst,
                      std::uint32_t payload_bytes, Tick earliest);

    /** Forget all reservations and partner state. */
    void reset();

    /**
     * Attach the machine's time account; link occupancy charges
     * @p link, NIC inject/eject occupancy charges @p nic.
     */
    void
    setTimeAccount(sim::TimeAccount *acct,
                   sim::TimeAccount::ResId link,
                   sim::TimeAccount::ResId nic)
    {
        _acct = acct;
        _linkRes = link;
        _nicRes = nic;
    }

    const TorusConfig &config() const { return _config; }

    stats::Group &statsGroup() { return _stats; }

    std::uint64_t packets() const
    {
        return static_cast<std::uint64_t>(_packets.value());
    }

  private:
    /** Directed link id for one hop out of @p router along @p dim. */
    std::size_t linkIndex(int dim, int dir, int router) const;

    /** Dimension-order route from src to dst as link indices. */
    void route(NodeId src, NodeId dst,
               std::vector<std::size_t> &links) const;

    TorusConfig _config;
    int _numNodes;
    int _nicCount;
    Tick _hopTicks;
    Tick _nicTicks;
    Tick _switchTicks;

    std::vector<mem::Resource> _links; ///< 6 directed links per router
    /** Full-duplex NICs: independent inject and eject ports. */
    std::vector<mem::Resource> _nicsOut;
    std::vector<mem::Resource> _nicsIn;
    std::vector<NodeId> _lastPartner;  ///< per NIC

    /** One cached route: its endpoints and links. */
    struct CachedRoute
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        std::vector<std::size_t> links;
    };

    /**
     * Two-entry route cache: bulk transfers send long runs of packets
     * between the same pair, and a fetch alternates request (dst ->
     * src) with response (src -> dst) packets, so the dimension-order
     * walk is computed once per pair instead of once per packet.  A
     * miss refills the entry used less recently.  reset() keeps it —
     * calendars change between experiments, link geometry does not.
     */
    CachedRoute _routes[2];
    unsigned _newestRoute = 0; ///< index of the entry used last

    sim::TimeAccount *_acct = nullptr;
    sim::TimeAccount::ResId _linkRes = 0;
    sim::TimeAccount::ResId _nicRes = 0;

    stats::Group _stats;
    stats::Scalar _packets;
    stats::Scalar _payloadBytes;
    stats::Scalar _partnerSwitches;
    stats::Vector _linkBusyTicks; ///< occupancy per directed link
    stats::IntervalBandwidth _bandwidth;
    stats::Histogram _packetLatency; ///< inject-to-arrival, log2 ticks
    trace::TrackId _traceTrack;
};

} // namespace gasnub::noc

#endif // GASNUB_NOC_TORUS_HH
