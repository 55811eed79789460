#include "core/characterizer.hh"

#include "core/planner_io.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/units.hh"

namespace gasnub::core {

std::vector<std::uint64_t>
paperStrides()
{
    return {1,  2,  3,  4,  5,  6,  7,  8,  12, 15,  16,
            24, 31, 32, 48, 63, 64, 96, 127, 128, 192};
}

std::vector<std::uint64_t>
paperWorkingSets(std::uint64_t max_bytes)
{
    std::vector<std::uint64_t> ws;
    for (std::uint64_t b = 512; b <= max_bytes; b *= 2)
        ws.push_back(b);
    GASNUB_ASSERT(!ws.empty(), "max working set below 512 bytes");
    return ws;
}

void
resolveGrid(const CharacterizeConfig &cfg,
            std::vector<std::uint64_t> &ws,
            std::vector<std::uint64_t> &strides)
{
    ws = cfg.workingSets.empty() ? paperWorkingSets(cfg.maxWorkingSet)
                                 : cfg.workingSets;
    strides = cfg.strides.empty() ? paperStrides() : cfg.strides;
}

SweepSpec
SweepSpec::localLoads(NodeId node)
{
    SweepSpec s;
    s.kind = Kind::LocalLoads;
    s.node = node;
    return s;
}

SweepSpec
SweepSpec::localStores(NodeId node)
{
    SweepSpec s;
    s.kind = Kind::LocalStores;
    s.node = node;
    return s;
}

SweepSpec
SweepSpec::localCopy(kernels::CopyVariant variant, NodeId node)
{
    SweepSpec s;
    s.kind = Kind::LocalCopy;
    s.variant = variant;
    s.node = node;
    return s;
}

SweepSpec
SweepSpec::remote(remote::TransferMethod method, bool stride_on_source,
                  NodeId src, NodeId dst)
{
    SweepSpec s;
    s.kind = Kind::Remote;
    s.method = method;
    s.strideOnSource = stride_on_source;
    s.src = src;
    s.dst = dst;
    return s;
}

std::optional<SweepSpec>
SweepSpec::fromName(machine::SystemKind kind, const std::string &name)
{
    if (name == "loads")
        return localLoads(0);
    if (name == "stores")
        return localStores(0);
    if (name == "copy-sload")
        return localCopy(kernels::CopyVariant::StridedLoads, 0);
    if (name == "copy-sstore")
        return localCopy(kernels::CopyVariant::StridedStores, 0);
    const auto option = findPlanOptionKind(name);
    if (!option)
        return std::nullopt;
    const bool t3d = kind == machine::SystemKind::CrayT3D;
    return remote(option->method, option->strideOnSource, t3d ? 0 : 1,
                  t3d ? 2 : 0);
}

std::string
sweepName(machine::SystemKind kind, const SweepSpec &spec)
{
    std::string name = machine::systemName(kind);
    switch (spec.kind) {
      case SweepSpec::Kind::LocalLoads:
        return name + " local loads";
      case SweepSpec::Kind::LocalStores:
        return name + " local stores";
      case SweepSpec::Kind::LocalCopy:
        return name +
               (spec.variant == kernels::CopyVariant::StridedLoads
                    ? " local copy (strided loads/contiguous stores)"
                    : " local copy (contiguous loads/strided stores)");
      case SweepSpec::Kind::Remote:
        name += " remote ";
        name += remote::methodName(spec.method);
        name += spec.strideOnSource ? " (strided loads)"
                                    : " (strided stores)";
        return name;
    }
    GASNUB_PANIC("bad SweepSpec::Kind");
}

Characterizer::Characterizer(machine::Machine &m)
    : _machine(m),
      _traceTrack(
          trace::Tracer::instance().track(characterizerTrackName))
{
}

namespace {

/** Profile zone and trace event names of one sweep kind. */
struct KindNames
{
    const char *zone;
    const char *event;
};

KindNames
kindNames(SweepSpec::Kind kind)
{
    switch (kind) {
      case SweepSpec::Kind::LocalLoads:
        return {"sweep.localLoads", "point.loads"};
      case SweepSpec::Kind::LocalStores:
        return {"sweep.localStores", "point.stores"};
      case SweepSpec::Kind::LocalCopy:
        return {"sweep.localCopy", "point.copy"};
      case SweepSpec::Kind::Remote:
        return {"sweep.remote", "point.remote"};
    }
    GASNUB_PANIC("bad SweepSpec::Kind");
}

/** Run the kernel of @p spec at one grid point on @p m. */
kernels::KernelResult
runKernel(machine::Machine &m, const SweepSpec &spec,
          std::uint64_t ws_bytes, std::uint64_t stride,
          std::uint64_t cap_bytes)
{
    kernels::KernelParams p;
    p.wsBytes = ws_bytes;
    p.stride = stride;
    p.capBytes = cap_bytes;
    switch (spec.kind) {
      case SweepSpec::Kind::LocalLoads:
        return kernels::loadSumOn(m, spec.node, p);
      case SweepSpec::Kind::LocalStores:
        return kernels::storeConstantOn(m, spec.node, p);
      case SweepSpec::Kind::LocalCopy:
        // Destination region directly after the source.
        return kernels::copyOn(
            m, spec.node, p, spec.variant,
            kernels::effectiveWorkingSet(m.node(spec.node), p));
      case SweepSpec::Kind::Remote: {
        kernels::RemoteParams rp;
        rp.src = spec.src;
        rp.dst = spec.dst;
        rp.wsBytes = ws_bytes;
        rp.stride = stride;
        rp.strideOnSource = spec.strideOnSource;
        rp.method = spec.method;
        rp.capBytes = cap_bytes;
        rp.srcBase = 0;
        rp.dstBase = 1ull << 33;
        return kernels::remoteTransfer(m, rp);
      }
    }
    GASNUB_PANIC("bad SweepSpec::Kind");
}

} // namespace

SweepPoint
Characterizer::measure(const SweepSpec &spec, std::uint64_t ws_bytes,
                       std::uint64_t stride, std::uint64_t cap_bytes)
{
    const KindNames names = kindNames(spec.kind);
    GASNUB_PROF_ZONE(names.zone);
    GASNUB_PROF_ZONE("point");
    sim::TimeAccount *acct = _machine.timeAccount();
    if (acct)
        acct->arm();
    SweepPoint pt;
    pt.result = runKernel(_machine, spec, ws_bytes, stride, cap_bytes);
    if (acct)
        pt.attribution = acct->finishPoint(pt.result.elapsed);
    // Each grid point runs with simulated time reset to 0, so point
    // events all start at t=0 (see docs/observability.md).
    GASNUB_TRACE(trace::Category::Sim, _traceTrack, names.event, Tick(0),
                 pt.result.elapsed, "ws", ws_bytes, "stride", stride);
    return pt;
}

Surface
Characterizer::surface(const SweepSpec &spec,
                       const std::vector<std::uint64_t> &ws,
                       const std::vector<std::uint64_t> &strides)
{
    Surface s(sweepName(_machine.kind(), spec), ws, strides);
    if (const sim::TimeAccount *acct = _machine.timeAccount())
        s.enableAttribution(acct->names());
    return s;
}

Surface
Characterizer::run(const SweepSpec &spec, const CharacterizeConfig &cfg)
{
    std::vector<std::uint64_t> ws, strides;
    resolveGrid(cfg, ws, strides);
    Surface s = surface(spec, ws, strides);
    for (std::uint64_t w : ws)
        for (std::uint64_t st : strides)
            setPoint(s, w, st, measure(spec, w, st, cfg.capBytes));
    return s;
}

void
setPoint(Surface &s, std::uint64_t ws_bytes, std::uint64_t stride,
         const SweepPoint &p)
{
    s.set(ws_bytes, stride, p.result.mbs);
    if (s.hasAttribution())
        s.setAttribution(ws_bytes, stride, p.attribution.elapsed,
                         p.attribution.attributed);
}

} // namespace gasnub::core
