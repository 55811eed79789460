#include "noc/torus.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/units.hh"

namespace gasnub::noc {

namespace {

Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

} // namespace

Torus::Torus(const TorusConfig &config, stats::Group *parent)
    : _config(config),
      _numNodes(config.dimX * config.dimY * config.dimZ *
                config.procsPerNic),
      _nicCount(config.dimX * config.dimY * config.dimZ),
      _hopTicks(nsToTicks(config.hopNs)),
      _nicTicks(nsToTicks(config.nicNs)),
      _switchTicks(nsToTicks(config.partnerSwitchNs)),
      _stats(config.name),
      _packets(&_stats, config.name + ".packets", "packets sent"),
      _payloadBytes(&_stats, config.name + ".payloadBytes",
                    "payload bytes carried"),
      _partnerSwitches(&_stats, config.name + ".partnerSwitches",
                       "per-message partner switches"),
      _linkBusyTicks(&_stats, config.name + ".linkBusyTicks",
                     "occupancy in ticks per directed link",
                     static_cast<std::size_t>(config.dimX) *
                         config.dimY * config.dimZ * 6),
      _bandwidth(&_stats, config.name + ".bandwidth",
                 "payload bytes delivered per time bucket"),
      _packetLatency(&_stats, config.name + ".packetLatency",
                     "inject-to-arrival latency in ticks (log2 "
                     "buckets)"),
      _traceTrack(trace::Tracer::instance().track(config.name))
{
    GASNUB_ASSERT(config.dimX >= 1 && config.dimY >= 1 &&
                      config.dimZ >= 1,
                  "torus dimensions must be >= 1");
    GASNUB_ASSERT(config.procsPerNic >= 1, "procsPerNic must be >= 1");
    GASNUB_ASSERT(config.linkMBs > 0, "link bandwidth must be > 0");
    // Six directed links (+x, -x, +y, -y, +z, -z) per router.
    _links.resize(static_cast<std::size_t>(_nicCount) * 6);
    _nicsOut.resize(_nicCount);
    _nicsIn.resize(_nicCount);
    _lastPartner.assign(_nicCount, invalidNode);
    for (auto &l : _links)
        l.enableBackfill();
    for (auto &p : _nicsOut)
        p.enableBackfill();
    for (auto &p : _nicsIn)
        p.enableBackfill();
    // Stable per-link subnames for the human dump: router index plus
    // outgoing direction ("r3.+x").
    static const char *const dir_names[6] = {"+x", "-x", "+y",
                                             "-y", "+z", "-z"};
    for (int r = 0; r < _nicCount; ++r) {
        // Appending, not prepending "r": GCC 12's -Wrestrict misfires
        // on operator+(const char *, std::string &&) (GCC bug 105651).
        std::string router = "r";
        router += std::to_string(r);
        for (int d = 0; d < 6; ++d)
            _linkBusyTicks.subname(static_cast<std::size_t>(r) * 6 + d,
                                   router + dir_names[d]);
    }
    if (parent)
        parent->addChild(&_stats);
}

TorusCoord
Torus::coordOf(NodeId id) const
{
    GASNUB_ASSERT(id >= 0 && id < _numNodes, "bad node id ", id);
    const int router = id / _config.procsPerNic;
    TorusCoord c;
    c.x = router % _config.dimX;
    c.y = (router / _config.dimX) % _config.dimY;
    c.z = router / (_config.dimX * _config.dimY);
    return c;
}

namespace {

/** Hops along one ring taking the shorter direction; dir is +-1. */
int
ringHops(int from, int to, int size, int &dir)
{
    int fwd = (to - from + size) % size;
    int bwd = (from - to + size) % size;
    if (fwd <= bwd) {
        dir = 1;
        return fwd;
    }
    dir = -1;
    return bwd;
}

} // namespace

int
Torus::hopCount(NodeId src, NodeId dst) const
{
    const TorusCoord a = coordOf(src);
    const TorusCoord b = coordOf(dst);
    int dir = 0;
    return ringHops(a.x, b.x, _config.dimX, dir) +
           ringHops(a.y, b.y, _config.dimY, dir) +
           ringHops(a.z, b.z, _config.dimZ, dir);
}

std::size_t
Torus::linkIndex(int dim, int dir, int router) const
{
    // dim 0..2, dir 0 (positive) or 1 (negative).
    return static_cast<std::size_t>(router) * 6 + dim * 2 + dir;
}

void
Torus::route(NodeId src, NodeId dst,
             std::vector<std::size_t> &links) const
{
    links.clear();
    TorusCoord at = coordOf(src);
    const TorusCoord to = coordOf(dst);
    const int dims[3] = {_config.dimX, _config.dimY, _config.dimZ};
    int *cur[3] = {&at.x, &at.y, &at.z};
    const int tgt[3] = {to.x, to.y, to.z};

    // Dimension-order (X, then Y, then Z) routing, shortest direction.
    for (int d = 0; d < 3; ++d) {
        int dir = 0;
        const int hops = ringHops(*cur[d], tgt[d], dims[d], dir);
        for (int h = 0; h < hops; ++h) {
            const int router =
                at.x + _config.dimX * (at.y + _config.dimY * at.z);
            links.push_back(linkIndex(d, dir > 0 ? 0 : 1, router));
            *cur[d] = (*cur[d] + dir + dims[d]) % dims[d];
        }
    }
}

PacketResult
Torus::send(NodeId src, NodeId dst, std::uint32_t payload_bytes,
            Tick earliest)
{
    GASNUB_PROF_ZONE("noc.send");
    GASNUB_ASSERT(src >= 0 && src < _numNodes, "bad src node ", src);
    GASNUB_ASSERT(dst >= 0 && dst < _numNodes, "bad dst node ", dst);
    ++_packets;
    _payloadBytes += payload_bytes;

    const std::uint32_t wire_bytes = payload_bytes + _config.headerBytes;
    const Tick wire_ticks = ticksForBytes(wire_bytes, _config.linkMBs);

    const int src_nic = src / _config.procsPerNic;
    const int dst_nic = dst / _config.procsPerNic;

    // Per-message partner switch overhead at the source NIC.
    Tick inject_earliest = earliest;
    if (_lastPartner[src_nic] != dst) {
        if (_lastPartner[src_nic] != invalidNode) {
            ++_partnerSwitches;
            inject_earliest += _switchTicks;
        }
        _lastPartner[src_nic] = dst;
    }

    // Source NIC injection port busy for the whole packet.
    const Tick injected = _nicsOut[src_nic].acquire(
        inject_earliest, _nicTicks + wire_ticks);
    if (_acct)
        _acct->charge(_nicRes, injected,
                      injected + _nicTicks + wire_ticks);

    PacketResult res;
    res.injected = injected;

    if (src_nic == dst_nic) {
        // Loopback: ejected through the shared NIC's input port.
        const Tick eject = _nicsIn[dst_nic].acquire(
            injected + _nicTicks + wire_ticks, _nicTicks);
        if (_acct)
            _acct->charge(_nicRes, eject, eject + _nicTicks);
        res.arrived = eject + _nicTicks;
        res.hops = 0;
        _bandwidth.addBytes(res.arrived, payload_bytes);
        _packetLatency.sample(res.arrived - res.injected);
        GASNUB_TRACE(trace::Category::Noc, _traceTrack, "packet",
                     res.injected, res.arrived, "dst",
                     static_cast<std::uint64_t>(dst), "bytes",
                     static_cast<std::uint64_t>(payload_bytes));
        return res;
    }

    CachedRoute *rt = &_routes[_newestRoute];
    if (rt->src != src || rt->dst != dst) {
        _newestRoute ^= 1;
        rt = &_routes[_newestRoute];
        if (rt->src != src || rt->dst != dst) {
            route(src, dst, rt->links);
            rt->src = src;
            rt->dst = dst;
        }
    }
    res.hops = static_cast<int>(rt->links.size());

    // Cut-through: the head advances one hop latency per router; each
    // link is occupied for the full wire time of the packet.
    Tick head = injected + _nicTicks;
    for (const std::size_t l : rt->links) {
        const Tick start = _links[l].acquire(head, wire_ticks);
        _linkBusyTicks[l] += static_cast<double>(wire_ticks);
        if (_acct)
            _acct->charge(_linkRes, start, start + wire_ticks);
        head = start + _hopTicks;
    }
    // Tail arrives one wire time after the head clears the last link;
    // the destination NIC's eject port takes the packet.
    const Tick eject =
        _nicsIn[dst_nic].acquire(head + wire_ticks, _nicTicks);
    if (_acct)
        _acct->charge(_nicRes, eject, eject + _nicTicks);
    res.arrived = eject + _nicTicks;
    _bandwidth.addBytes(res.arrived, payload_bytes);
    _packetLatency.sample(res.arrived - res.injected);
    GASNUB_TRACE(trace::Category::Noc, _traceTrack, "packet",
                 res.injected, res.arrived, "dst",
                 static_cast<std::uint64_t>(dst), "bytes",
                 static_cast<std::uint64_t>(payload_bytes));
    return res;
}

void
Torus::reset()
{
    for (auto &l : _links)
        l.reset();
    for (auto &n : _nicsOut)
        n.reset();
    for (auto &n : _nicsIn)
        n.reset();
    std::fill(_lastPartner.begin(), _lastPartner.end(), invalidNode);
}

} // namespace gasnub::noc
