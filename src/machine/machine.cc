#include "machine/machine.hh"

#include <algorithm>
#include <cmath>

#include "remote/cray_engine.hh"
#include "remote/smp_pull.hh"
#include "sim/logging.hh"

namespace gasnub::machine {

namespace {

/** Factor @p routers into a roughly cubic (x, y, z) torus shape. */
void
torusDims(int routers, int &x, int &y, int &z)
{
    x = 1;
    y = 1;
    z = 1;
    int *dims[3] = {&x, &y, &z};
    int next = 0;
    int remaining = routers;
    while (remaining > 1) {
        // Peel the smallest prime factor onto the next dimension.
        int f = 2;
        while (f * f <= remaining && remaining % f != 0)
            ++f;
        if (f * f > remaining)
            f = remaining;
        *dims[next % 3] *= f;
        remaining /= f;
        ++next;
    }
    // Keep dims sorted descending-ish for short diameters.
    if (x < y)
        std::swap(x, y);
    if (x < z)
        std::swap(x, z);
    if (y < z)
        std::swap(y, z);
}

} // namespace

noc::TorusConfig
t3dTorusConfig(int num_nodes)
{
    noc::TorusConfig t;
    t.name = "t3d.torus";
    t.procsPerNic = 2; // two PEs share one network node on the T3D
    const int routers = (num_nodes + 1) / 2;
    torusDims(routers, t.dimX, t.dimY, t.dimZ);
    t.linkMBs = 175;
    t.hopNs = 15;
    t.nicNs = 50;
    t.headerBytes = 8; // address travels with the data
    t.partnerSwitchNs = 250;
    return t;
}

noc::TorusConfig
t3eTorusConfig(int num_nodes)
{
    noc::TorusConfig t;
    t.name = "t3e.torus";
    t.procsPerNic = 1; // every processor has its own network access
    torusDims(num_nodes, t.dimX, t.dimY, t.dimZ);
    t.linkMBs = 460;
    t.hopNs = 10;
    t.nicNs = 20;
    t.headerBytes = 8;
    t.partnerSwitchNs = 150;
    return t;
}

bus::BusConfig
dec8400BusConfig()
{
    bus::BusConfig b;
    b.name = "dec8400.bus";
    b.arbNs = 40;
    b.snoopNs = 45;
    b.interventionNs = 180;
    b.lineBytes = 64;
    return b;
}

remote::CrayEngineConfig
t3dEngineConfig()
{
    remote::CrayEngineConfig e;
    e.name = "t3d.engine";
    e.depositViaCpu = true;    // remote stores captured from the WBQ
    e.blockBytes = 32;
    e.window = 3;              // shallow external prefetch FIFO
    e.engineNs = 30;
    e.requestNs = 60;
    e.requestBytes = 8;
    e.captureDepth = 8;
    // Remote loads go through the transparent blocking path / external
    // FIFO: a long round trip that the shallow pipeline cannot hide
    // ("communication performance an order of magnitude below the
    // network bandwidth" for naive loads, Section 5.4).
    e.fetchExtraNs = 600;
    return e;
}

remote::CrayEngineConfig
t3eEngineConfig()
{
    remote::CrayEngineConfig e;
    e.name = "t3e.engine";
    e.depositViaCpu = false;   // E-register gather/scatter
    e.blockBytes = 64;
    e.window = 32;             // 512 E-registers pipeline deeply
    e.engineNs = 15;
    e.requestNs = 10;
    e.requestBytes = 8;
    e.captureDepth = 8;
    return e;
}

Machine::Machine(SystemKind kind, int num_nodes)
    : Machine(SystemConfig{kind, num_nodes, std::nullopt, {}})
{
}

Machine::Machine(SystemKind kind, int num_nodes,
                 const mem::HierarchyConfig &node_cfg)
    : Machine(SystemConfig{kind, num_nodes, node_cfg, {}})
{
}

namespace {

/** Re-prefix the stat names of a node config with its index. */
mem::HierarchyConfig
renameNode(mem::HierarchyConfig cfg, int i)
{
    const std::string name = cfg.name + std::to_string(i);
    cfg.name = name;
    cfg.cpu.name = name + ".cpu";
    for (std::size_t l = 0; l < cfg.levels.size(); ++l)
        cfg.levels[l].cache.name =
            name + ".l" + std::to_string(l + 1);
    cfg.dram.name = name + ".dram";
    cfg.stream.name = name + ".streams";
    if (cfg.wbq)
        cfg.wbq->name = name + ".wbq";
    return cfg;
}

} // namespace

Machine::Machine(const SystemConfig &cfg)
    : _sysConfig(cfg), _kind(cfg.kind), _stats(systemName(cfg.kind)),
      _traceTrack(trace::Tracer::instance().track(systemName(cfg.kind)))
{
    const SystemKind kind = cfg.kind;
    const int num_nodes = cfg.numNodes;
    const mem::HierarchyConfig node_cfg =
        cfg.node ? *cfg.node : nodeConfig(kind, "node");

    GASNUB_ASSERT(num_nodes >= 1, "need at least one node");

    for (int i = 0; i < num_nodes; ++i) {
        _nodes.push_back(std::make_unique<mem::MemoryHierarchy>(
            renameNode(node_cfg, i), &_stats));
    }

    std::vector<mem::MemoryHierarchy *> raw;
    raw.reserve(_nodes.size());
    for (auto &n : _nodes)
        raw.push_back(n.get());

    remote::CrayEngine *cray = nullptr;
    switch (kind) {
      case SystemKind::Dec8400: {
        GASNUB_ASSERT(num_nodes <= 12,
                      "a DEC 8400 holds at most 12 processors");
        mem::DramConfig shared = dec8400Node("shared").dram;
        shared.name = "dec8400.sharedDram";
        _sharedMem = std::make_unique<bus::Dec8400Memory>(
            dec8400BusConfig(), shared, &_stats);
        for (int i = 0; i < num_nodes; ++i)
            _sharedMem->attach(i, raw[i]);
        _remote = std::make_unique<remote::SmpPull>(raw, &_stats);
        break;
      }
      case SystemKind::CrayT3D: {
        _torus = std::make_unique<noc::Torus>(
            t3dTorusConfig(num_nodes), &_stats);
        auto engine = std::make_unique<remote::CrayEngine>(
            t3dEngineConfig(), raw, _torus.get(), &_stats);
        cray = engine.get();
        _remote = std::move(engine);
        break;
      }
      case SystemKind::CrayT3E: {
        _torus = std::make_unique<noc::Torus>(
            t3eTorusConfig(num_nodes), &_stats);
        auto engine = std::make_unique<remote::CrayEngine>(
            t3eEngineConfig(), raw, _torus.get(), &_stats);
        cray = engine.get();
        _remote = std::move(engine);
        break;
      }
    }

    // Bottleneck attribution: one machine-wide ledger shared by every
    // node (the paper's benchmarks are SPMD, so the per-node replicas
    // contend for the same *class* of resource).  Resources are
    // registered here, in one fixed order, so replica machines built
    // from the same config — the parallel sweep workers — agree on
    // ResIds and produce byte-identical attribution vectors.
    if (cfg.attribution) {
        _acct = std::make_unique<sim::TimeAccount>();
        const auto issue = _acct->resource("cpu.issue");
        const auto cache_port = _acct->resource("cache.port");
        const auto stream = _acct->resource("stream");
        const auto wbq = _acct->resource("wbq");
        const auto dram_bank = _acct->resource("dram.bank");
        const auto dram_chan = _acct->resource("dram.chan");
        for (int i = 0; i < num_nodes; ++i) {
            raw[i]->setTimeAccount(_acct.get(), issue, cache_port,
                                   stream);
            raw[i]->dram().setTimeAccount(_acct.get(), dram_bank,
                                          dram_chan);
            if (mem::WriteBackQueue *w = raw[i]->wbq())
                w->setTimeAccount(_acct.get(), wbq);
        }
        if (_sharedMem) {
            const auto bus_addr = _acct->resource("bus.addr");
            const auto bus_bank = _acct->resource("bus.dram.bank");
            const auto bus_chan = _acct->resource("bus.dram.chan");
            _sharedMem->setTimeAccount(_acct.get(), bus_addr);
            _sharedMem->dram().setTimeAccount(_acct.get(), bus_bank,
                                              bus_chan);
        }
        if (_torus) {
            const auto link = _acct->resource("noc.link");
            const auto nic = _acct->resource("noc.nic");
            _torus->setTimeAccount(_acct.get(), link, nic);
        }
        if (cray) {
            const auto engine = _acct->resource("engine");
            cray->setTimeAccount(_acct.get(), engine, wbq);
        }
        _acctStat.emplace(&_stats, systemName(kind) + ".timeAccount",
                          "cumulative busy/stall ticks per resource",
                          _acct.get());
    }

    // How many trace events this process discarded because the buffer
    // was full — surfaced next to the machine's stats so exported JSON
    // is self-describing about trace completeness.
    _traceDropped.emplace(
        &_stats, systemName(kind) + ".trace.dropped",
        "trace events discarded because the buffer was full", [] {
            return static_cast<double>(
                trace::Tracer::instance().dropped());
        });
}

Machine::~Machine() = default;

mem::MemoryHierarchy &
Machine::node(NodeId id)
{
    GASNUB_ASSERT(id >= 0 && id < numNodes(), "bad node id ", id);
    return *_nodes[id];
}

remote::TransferMethod
Machine::nativeMethod() const
{
    switch (_kind) {
      case SystemKind::Dec8400:
        return remote::TransferMethod::CoherentPull;
      case SystemKind::CrayT3D:
        // "deposits based on remote stores are preferable" (§5.4).
        return remote::TransferMethod::Deposit;
      case SystemKind::CrayT3E:
        // "fetches are more advantageous for even strides" (§5.6);
        // the Fx back-end generates fetch code for the T3E.
        return remote::TransferMethod::Fetch;
    }
    GASNUB_PANIC("bad SystemKind");
}

void
Machine::produce(NodeId id, Addr base, std::uint64_t words)
{
    mem::MemoryHierarchy &h = node(id);
    Addr buf[mem::AccessBatch::kCapacity];
    std::uint64_t i = 0;
    while (i < words) {
        std::size_t n = 0;
        while (n < mem::AccessBatch::kCapacity && i < words)
            buf[n++] = base + i++ * wordBytes;
        h.writeBatch(buf, n);
    }
    h.drain();
}

Tick
Machine::barrierCost() const
{
    switch (_kind) {
      case SystemKind::Dec8400:
        // Coherent-memory flag barrier: a few bus round trips.
        return 5'000'000; // 5 us
      case SystemKind::CrayT3D:
        // Dedicated hardware barrier network.
        return 1'000'000; // 1 us
      case SystemKind::CrayT3E:
        // Atomic fetch-and-increment through the E-registers.
        return 3'000'000; // 3 us
    }
    GASNUB_PANIC("bad SystemKind");
}

Tick
Machine::barrier()
{
    Tick t = 0;
    for (auto &n : _nodes)
        t = std::max({t, n->now(), n->lastComplete()});
    const Tick entered = t;
    t += barrierCost();
    for (auto &n : _nodes)
        n->stallUntil(t);
    GASNUB_TRACE(trace::Category::Sim, _traceTrack, "barrier", entered,
                 t);
    return t;
}

void
Machine::resetTiming()
{
    for (auto &n : _nodes)
        n->resetTiming();
    if (_torus)
        _torus->reset();
    if (_sharedMem)
        _sharedMem->resetTiming();
    if (_remote)
        _remote->resetTiming();
    if (_acct)
        _acct->resetPoint();
}

void
Machine::resetAll()
{
    for (auto &n : _nodes)
        n->resetAll();
    if (_torus)
        _torus->reset();
    if (_sharedMem)
        _sharedMem->resetAll();
    if (_remote)
        _remote->resetTiming();
    if (_acct)
        _acct->resetPoint();
}

} // namespace gasnub::machine
