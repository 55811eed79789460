#include "gas/runtime.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace gasnub::gas {

const char *
methodName(Method m)
{
    switch (m) {
    case Method::Deposit:
        return "deposit";
    case Method::Fetch:
        return "fetch";
    case Method::CoherentPull:
        return "coherent-pull";
    case Method::Auto:
        return "auto";
    }
    GASNUB_PANIC("bad gas method");
}

remote::TransferMethod
lowerMethod(Method m)
{
    switch (m) {
    case Method::Deposit:
        return remote::TransferMethod::Deposit;
    case Method::Fetch:
        return remote::TransferMethod::Fetch;
    case Method::CoherentPull:
        return remote::TransferMethod::CoherentPull;
    case Method::Auto:
        break;
    }
    GASNUB_PANIC("Method::Auto cannot be lowered directly; "
                 "resolve it first");
}

Method
liftMethod(remote::TransferMethod m)
{
    switch (m) {
    case remote::TransferMethod::Deposit:
        return Method::Deposit;
    case remote::TransferMethod::Fetch:
        return Method::Fetch;
    case remote::TransferMethod::CoherentPull:
        return Method::CoherentPull;
    }
    GASNUB_PANIC("bad transfer method");
}

// ---------------------------------------------------------------- Segment

namespace {

// Region geometry: each (node, allocation) pair gets a disjoint
// high-address window, offset like the FFT driver's data regions so
// nodes land on distinct cache/DRAM-bank phases (the 320-byte node
// skew and 128-byte allocation skew mirror fft2d_dist's regionA/B).
constexpr int kRegionShift = 36;
constexpr Addr kNodeSkew = 320;
constexpr Addr kAllocSkew = 128;

Addr
regionBase(NodeId node, int regions, std::size_t alloc)
{
    const Addr region =
        static_cast<Addr>(node) * static_cast<Addr>(regions) + 1 +
        static_cast<Addr>(alloc);
    return (region << kRegionShift) +
           static_cast<Addr>(node) * kNodeSkew +
           static_cast<Addr>(alloc) * kAllocSkew;
}

} // namespace

Segment::Segment(NodeId node, int regions)
    : _node(node), _regions(regions)
{
    GASNUB_ASSERT(regions > 0, "segment needs at least one region");
}

std::size_t
Segment::add(std::uint64_t words, bool payload)
{
    GASNUB_ASSERT(words > 0, "zero-word allocation");
    if (_allocs.size() >= static_cast<std::size_t>(_regions))
        GASNUB_FATAL("symmetric heap of node ", _node, " exhausted: ",
                     _regions, " allocations used; raise "
                     "RuntimeConfig::regionsPerNode");
    Alloc a;
    a.base = regionBase(_node, _regions, _allocs.size());
    a.words = words;
    if (payload)
        a.data.assign(words, 0.0);
    _allocs.push_back(std::move(a));
    return _allocs.size() - 1;
}

Addr
Segment::base(std::size_t i) const
{
    GASNUB_ASSERT(i < _allocs.size(), "bad allocation index ", i);
    return _allocs[i].base;
}

std::uint64_t
Segment::words(std::size_t i) const
{
    GASNUB_ASSERT(i < _allocs.size(), "bad allocation index ", i);
    return _allocs[i].words;
}

double *
Segment::data(std::size_t i)
{
    GASNUB_ASSERT(i < _allocs.size(), "bad allocation index ", i);
    return _allocs[i].data.empty() ? nullptr : _allocs[i].data.data();
}

bool
Segment::resolve(Addr addr, std::size_t &alloc,
                 std::uint64_t &word) const
{
    for (std::size_t i = 0; i < _allocs.size(); ++i) {
        const Alloc &a = _allocs[i];
        if (addr >= a.base && addr < a.base + a.words * wordBytes) {
            alloc = i;
            word = (addr - a.base) / wordBytes;
            return true;
        }
    }
    return false;
}

// ------------------------------------------------------------ GlobalArray

GlobalPtr
GlobalArray::on(NodeId node, std::uint64_t word) const
{
    GASNUB_ASSERT(_rt != nullptr, "invalid GlobalArray");
    return {node, _rt->segment(node).base(_index) + word * wordBytes};
}

double *
GlobalArray::data(NodeId node) const
{
    GASNUB_ASSERT(_rt != nullptr, "invalid GlobalArray");
    return _rt->segment(node).data(_index);
}

std::uint64_t
GlobalArray::words() const
{
    GASNUB_ASSERT(_rt != nullptr, "invalid GlobalArray");
    return _rt->_allocWords[_index];
}

// ---------------------------------------------------------------- Runtime

Runtime::Runtime(machine::Machine &m, RuntimeConfig cfg)
    : _machine(m), _config(std::move(cfg)),
      _cursor(static_cast<std::size_t>(m.numNodes()), 0),
      _traceTrack(trace::Tracer::instance().track(_config.name)),
      _stats(_config.name),
      _rputOps(&_stats, _config.name + ".rput.ops",
               "one-sided puts issued"),
      _rputBytes(&_stats, _config.name + ".rput.bytes",
                 "bytes moved by rput"),
      _rgetOps(&_stats, _config.name + ".rget.ops",
               "one-sided gets issued"),
      _rgetBytes(&_stats, _config.name + ".rget.bytes",
                 "bytes moved by rget"),
      _localLoads(&_stats, _config.name + ".local.loads",
                  "word loads charged via load()"),
      _localStores(&_stats, _config.name + ".local.stores",
                   "word stores charged via store()"),
      _localCopies(&_stats, _config.name + ".local.copies",
                   "same-node rput/rget served by the local hierarchy"),
      _methodDeposit(&_stats, _config.name + ".method.deposit",
                     "transfers implemented as deposit"),
      _methodFetch(&_stats, _config.name + ".method.fetch",
                   "transfers implemented as fetch"),
      _methodPull(&_stats, _config.name + ".method.pull",
                  "transfers implemented as coherent pull"),
      _autoPlanned(&_stats, _config.name + ".auto.planned",
                   "Auto resolutions decided by the planner"),
      _autoNative(&_stats, _config.name + ".auto.native",
                  "Auto resolutions falling back to the native method"),
      _fences(&_stats, _config.name + ".fences", "fences executed"),
      _barriers(&_stats, _config.name + ".barriers",
                "barriers executed"),
      _heapWords(&_stats, _config.name + ".heap.words",
                 "symmetric-heap words allocated per node"),
      _deliveredBytes(&_stats, _config.name + ".delivered.bytes",
                      "bytes successfully delivered remotely")
{
    GASNUB_ASSERT(_machine.numNodes() > 0, "machine has no nodes");
    _segments.reserve(static_cast<std::size_t>(_machine.numNodes()));
    for (NodeId n = 0; n < _machine.numNodes(); ++n)
        _segments.emplace_back(n, _config.regionsPerNode);
    _machine.statsGroup().addChild(&_stats);
}

Runtime::~Runtime()
{
    _machine.statsGroup().removeChild(&_stats);
}

GlobalArray
Runtime::allocate(std::uint64_t words)
{
    if (words == 0)
        GASNUB_FATAL("gas allocation of zero words");
    std::size_t index = 0;
    for (Segment &seg : _segments)
        index = seg.add(words, _config.payload);
    _allocWords.push_back(words);
    _heapWords += words;
    return GlobalArray(this, index);
}

Segment &
Runtime::segment(NodeId node)
{
    GASNUB_ASSERT(node >= 0 && node < _machine.numNodes(),
                  "bad node id ", node);
    return _segments[static_cast<std::size_t>(node)];
}

void
Runtime::setPlanner(core::TransferPlanner planner)
{
    if (planner.numOptions() == 0)
        GASNUB_FATAL("refusing to arm Method::Auto with an empty "
                     "planner; add characterization surfaces first");
    // A planner loaded from another machine's directory may carry
    // methods this machine cannot execute: Auto skips those options.
    _unsupported.clear();
    for (std::size_t i = 0; i < planner.numOptions(); ++i)
        _unsupported.push_back(
            !_machine.remote().supports(planner.option(i).method));
    if (std::count(_unsupported.begin(), _unsupported.end(), 0) == 0)
        GASNUB_FATAL("planner has no option the ",
                     machine::systemName(_machine.kind()),
                     " supports; load surfaces measured on this "
                     "machine");
    _planner = std::move(planner);
}

const core::TransferPlanner *
Runtime::planner() const
{
    return _planner ? &*_planner : nullptr;
}

namespace {

/** The planner query matching a gas transfer shape. */
core::TransferQuery
queryFor(const Strided &spec)
{
    core::TransferQuery q;
    q.bytes = spec.words * wordBytes;
    q.wsBytes = q.bytes;
    q.stride = std::max<std::uint64_t>(
        1, std::max(spec.srcStride, spec.dstStride) /
               std::max<std::uint64_t>(spec.elemWords, 1));
    return q;
}

} // namespace

remote::TransferMethod
Runtime::resolveMethod(const Strided &spec, Method m) const
{
    if (m == Method::Auto) {
        if (!_planner)
            return _machine.nativeMethod();
        return _planner->best(queryFor(spec), _unsupported.data()).method;
    }
    const remote::TransferMethod lowered = lowerMethod(m);
    if (!_machine.remote().supports(lowered))
        GASNUB_FATAL("method '", methodName(m),
                     "' is not implemented on the ",
                     machine::systemName(_machine.kind()),
                     "; use Method::Auto or a supported method");
    return lowered;
}

void
Runtime::validatePtr(GlobalPtr p, const char *what) const
{
    if (!p.valid() || p.node >= _machine.numNodes())
        GASNUB_FATAL("invalid ", what, " global pointer: node ",
                     p.node, " on a ", _machine.numNodes(),
                     "-node machine");
}

void
Runtime::countMethod(remote::TransferMethod m)
{
    switch (m) {
    case remote::TransferMethod::Deposit:
        ++_methodDeposit;
        return;
    case remote::TransferMethod::Fetch:
        ++_methodFetch;
        return;
    case remote::TransferMethod::CoherentPull:
        ++_methodPull;
        return;
    }
    GASNUB_PANIC("bad transfer method");
}

Tick
Runtime::lowerTransfer(GlobalPtr src, GlobalPtr dst,
                       const Strided &spec,
                       remote::TransferMethod method, Tick start)
{
    remote::TransferRequest req;
    req.src = src.node;
    req.dst = dst.node;
    req.srcAddr = src.addr;
    req.dstAddr = dst.addr;
    req.words = spec.words;
    req.srcStride = spec.srcStride;
    req.dstStride = spec.dstStride;
    req.elemWords = spec.elemWords;

    if (method != remote::TransferMethod::CoherentPull ||
        spec.elemWords <= 1)
        return _machine.remote().transfer(req, method, start);

    // SmpPull is word-granular (strides are per word, elemWords is
    // not interpreted): lower element runs explicitly.  A dense
    // source (srcStride == elemWords) is one contiguous read stream;
    // otherwise issue one word-granular pull per element lane.
    if (spec.srcStride == spec.elemWords) {
        req.srcStride = 1;
        req.dstStride = 1;
        req.elemWords = 1;
        return _machine.remote().transfer(req, method, start);
    }
    const std::uint64_t elems = spec.words / spec.elemWords;
    Tick complete = start;
    for (std::uint64_t k = 0; k < spec.elemWords; ++k) {
        remote::TransferRequest lane = req;
        lane.srcAddr = src.addr + k * wordBytes;
        lane.dstAddr = dst.addr + k * wordBytes;
        lane.words = elems;
        lane.elemWords = 1;
        complete = std::max(
            complete, _machine.remote().transfer(lane, method, start));
    }
    return complete;
}

void
Runtime::copyPayload(GlobalPtr src, GlobalPtr dst,
                     const Strided &spec)
{
    if (!_config.payload)
        return;
    std::size_t sa = 0, da = 0;
    std::uint64_t sw = 0, dw = 0;
    // Pointers outside the symmetric heap (raw machine addresses)
    // are timing-only; both ends must resolve for a functional copy.
    if (!_segments[static_cast<std::size_t>(src.node)].resolve(
            src.addr, sa, sw) ||
        !_segments[static_cast<std::size_t>(dst.node)].resolve(
            dst.addr, da, dw))
        return;
    Segment &ssec = _segments[static_cast<std::size_t>(src.node)];
    Segment &dsec = _segments[static_cast<std::size_t>(dst.node)];
    double *sd = ssec.data(sa);
    double *dd = dsec.data(da);
    if (sd == nullptr || dd == nullptr)
        return;

    const std::uint64_t ew = std::max<std::uint64_t>(spec.elemWords, 1);
    const std::uint64_t elems = spec.words / ew;
    const std::uint64_t src_last =
        sw + (elems - 1) * spec.srcStride + ew - 1;
    const std::uint64_t dst_last =
        dw + (elems - 1) * spec.dstStride + ew - 1;
    if (src_last >= ssec.words(sa))
        GASNUB_FATAL("gas transfer reads past the end of its source "
                     "allocation (last word ", src_last, " of ",
                     ssec.words(sa), ")");
    if (dst_last >= dsec.words(da))
        GASNUB_FATAL("gas transfer writes past the end of its "
                     "destination allocation (last word ", dst_last,
                     " of ", dsec.words(da), ")");
    for (std::uint64_t e = 0; e < elems; ++e)
        for (std::uint64_t k = 0; k < ew; ++k)
            dd[dw + e * spec.dstStride + k] =
                sd[sw + e * spec.srcStride + k];
}

Handle
Runtime::transferOp(GlobalPtr src, GlobalPtr dst, const Strided &spec,
                    Method requested, bool is_put)
{
    GASNUB_PROF_ZONE("gas.transfer");
    validatePtr(src, "source");
    validatePtr(dst, "destination");
    if (spec.words == 0)
        GASNUB_FATAL("gas transfer of zero words");
    if (spec.elemWords == 0 || spec.words % spec.elemWords != 0)
        GASNUB_FATAL("gas transfer words (", spec.words,
                     ") must be a multiple of elemWords (",
                     spec.elemWords, ")");
    if (spec.srcStride < spec.elemWords ||
        spec.dstStride < spec.elemWords)
        GASNUB_FATAL("gas transfer strides (", spec.srcStride, ", ",
                     spec.dstStride, ") must cover the ",
                     spec.elemWords, "-word element run");

    const remote::TransferMethod method = resolveMethod(spec, requested);
    if (requested == Method::Auto) {
        if (_planner)
            ++_autoPlanned;
        else
            ++_autoNative;
    }

    // The initiator drives the op in program order: the sender for a
    // deposit, the receiver for a fetch or pull.  Its ops chain
    // through the runtime cursor, and never start before the node's
    // own issue clock reaches the call.
    const NodeId initiator =
        method == remote::TransferMethod::Deposit ? src.node
                                                  : dst.node;
    auto &cur = _cursor[static_cast<std::size_t>(initiator)];
    const Tick start = std::max(cur, _machine.node(initiator).now());

    const std::uint64_t bytes = spec.words * wordBytes;
    Tick end = 0;
    if (src.node == dst.node) {
        // Same-node "transfer": served by the local hierarchy, one
        // load + store per word.
        mem::MemoryHierarchy &h = _machine.node(src.node);
        h.stallUntil(start);
        const std::uint64_t ew =
            std::max<std::uint64_t>(spec.elemWords, 1);
        const std::uint64_t elems = spec.words / ew;
        for (std::uint64_t e = 0; e < elems; ++e) {
            for (std::uint64_t k = 0; k < ew; ++k) {
                h.read(src.addr +
                       (e * spec.srcStride + k) * wordBytes);
                end = std::max(
                    end, h.write(dst.addr +
                                 (e * spec.dstStride + k) *
                                     wordBytes));
            }
        }
        ++_localCopies;
    } else {
        end = lowerTransfer(src, dst, spec, method, start);
        _deliveredBytes += bytes;
    }

    cur = std::max(cur, end);
    _maxComplete = std::max(_maxComplete, end);
    ++_pendingOps;
    countMethod(method);

    if (is_put) {
        ++_rputOps;
        _rputBytes += bytes;
    } else {
        ++_rgetOps;
        _rgetBytes += bytes;
    }
    GASNUB_TRACE(trace::Category::Remote, _traceTrack,
                 is_put ? "gas.rput" : "gas.rget", start, end,
                 "words", spec.words, "node",
                 static_cast<std::uint64_t>(initiator));

    copyPayload(src, dst, spec);

    Handle h;
    h.complete = end;
    h.id = ++_nextId;
    h.initiator = initiator;
    h.method = method;
    return h;
}

Handle
Runtime::rput(GlobalPtr src, GlobalPtr dst, std::uint64_t words,
              Method m)
{
    return transferOp(src, dst, Strided::contiguous(words), m, true);
}

Handle
Runtime::rget(GlobalPtr src, GlobalPtr dst, std::uint64_t words,
              Method m)
{
    return transferOp(src, dst, Strided::contiguous(words), m, false);
}

Handle
Runtime::rput_strided(GlobalPtr src, GlobalPtr dst,
                      const Strided &spec, Method m)
{
    return transferOp(src, dst, spec, m, true);
}

Handle
Runtime::rget_strided(GlobalPtr src, GlobalPtr dst,
                      const Strided &spec, Method m)
{
    return transferOp(src, dst, spec, m, false);
}

Tick
Runtime::load(NodeId who, GlobalPtr p)
{
    validatePtr(p, "load");
    GASNUB_ASSERT(who >= 0 && who < _machine.numNodes(),
                  "bad node id ", who);
    if (who != p.node &&
        _machine.kind() != machine::SystemKind::Dec8400)
        GASNUB_FATAL("node ", who, " cannot load node ", p.node,
                     "'s memory directly on the ",
                     machine::systemName(_machine.kind()),
                     "; use rget");
    ++_localLoads;
    return _machine.node(who).read(p.addr);
}

Tick
Runtime::store(NodeId who, GlobalPtr p)
{
    validatePtr(p, "store");
    GASNUB_ASSERT(who >= 0 && who < _machine.numNodes(),
                  "bad node id ", who);
    if (who != p.node &&
        _machine.kind() != machine::SystemKind::Dec8400)
        GASNUB_FATAL("node ", who, " cannot store to node ", p.node,
                     "'s memory directly on the ",
                     machine::systemName(_machine.kind()),
                     "; use rput");
    ++_localStores;
    return _machine.node(who).write(p.addr);
}

Tick
Runtime::wait(const Handle &h)
{
    GASNUB_ASSERT(h.valid(), "waiting on an invalid handle");
    _machine.node(h.initiator).stallUntil(h.complete);
    return h.complete;
}

Tick
Runtime::waitAll()
{
    for (NodeId n = 0; n < _machine.numNodes(); ++n)
        _machine.node(n).stallUntil(
            _cursor[static_cast<std::size_t>(n)]);
    return _maxComplete;
}

Tick
Runtime::fence()
{
    Tick t = _maxComplete;
    for (NodeId n = 0; n < _machine.numNodes(); ++n) {
        mem::MemoryHierarchy &h = _machine.node(n);
        t = std::max({t, h.now(), h.lastComplete()});
    }
    for (NodeId n = 0; n < _machine.numNodes(); ++n) {
        _machine.node(n).stallUntil(t);
        _cursor[static_cast<std::size_t>(n)] = t;
    }
    _pendingOps = 0;
    ++_fences;
    GASNUB_TRACE(trace::Category::Sim, _traceTrack, "gas.fence", t, t);
    return t;
}

Tick
Runtime::barrier()
{
    Tick t = _maxComplete;
    for (NodeId n = 0; n < _machine.numNodes(); ++n) {
        mem::MemoryHierarchy &h = _machine.node(n);
        t = std::max({t, h.now(), h.lastComplete()});
    }
    const Tick end = t + _machine.barrierCost();
    for (NodeId n = 0; n < _machine.numNodes(); ++n) {
        _machine.node(n).stallUntil(end);
        _cursor[static_cast<std::size_t>(n)] = end;
    }
    _pendingOps = 0;
    ++_barriers;
    GASNUB_TRACE(trace::Category::Sim, _traceTrack, "gas.barrier", t,
                 end);
    return end;
}

Tick
Runtime::cursor(NodeId node) const
{
    GASNUB_ASSERT(node >= 0 && node < _machine.numNodes(),
                  "bad node id ", node);
    return _cursor[static_cast<std::size_t>(node)];
}

void
Runtime::reset()
{
    _machine.resetAll();
    std::fill(_cursor.begin(), _cursor.end(), 0);
    _maxComplete = 0;
    _pendingOps = 0;
}

} // namespace gasnub::gas
