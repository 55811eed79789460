#include "remote/cray_engine.hh"

#include <algorithm>
#include <deque>

#include "mem/wbq.hh"
#include "sim/logging.hh"

namespace gasnub::remote {

CrayEngine::CrayEngine(const CrayEngineConfig &config,
                       std::vector<mem::MemoryHierarchy *> nodes,
                       noc::Torus *torus, stats::Group *parent)
    : _config(config),
      _nodes(std::move(nodes)),
      _torus(torus),
      _engineTicks(static_cast<Tick>(config.engineNs * 1000 + 0.5)),
      _requestTicks(static_cast<Tick>(config.requestNs * 1000 + 0.5)),
      _fetchExtraTicks(
          static_cast<Tick>(config.fetchExtraNs * 1000 + 0.5)),
      _stats(config.name),
      _deposits(&_stats, config.name + ".deposits",
                "deposit transfers performed"),
      _fetches(&_stats, config.name + ".fetches",
               "fetch transfers performed"),
      _wordsMoved(&_stats, config.name + ".wordsMoved",
                  "64-bit words moved"),
      _bandwidth(&_stats, config.name + ".bandwidth",
                 "bytes delivered per time bucket"),
      _traceTrack(trace::Tracer::instance().track(config.name))
{
    GASNUB_ASSERT(torus != nullptr, "engine needs a torus");
    GASNUB_ASSERT(config.window >= 1, "window must be >= 1");
    GASNUB_ASSERT(config.blockBytes >= wordBytes &&
                      config.blockBytes % wordBytes == 0,
                  "bad block size");
    if (parent)
        parent->addChild(&_stats);
}

bool
CrayEngine::supports(TransferMethod method) const
{
    return method == TransferMethod::Deposit ||
           method == TransferMethod::Fetch;
}

namespace {

/** Block granule for one request (word-granular unless contiguous). */
std::uint32_t
requestGranule(const CrayEngineConfig &config,
               const TransferRequest &req)
{
    const bool contiguous =
        req.srcStride == 1 && req.dstStride == 1 && req.elemWords == 1;
    return contiguous ? config.blockBytes
                      : static_cast<std::uint32_t>(wordBytes);
}

} // namespace

Tick
CrayEngine::transfer(const TransferRequest &req, TransferMethod method,
                     Tick start)
{
    GASNUB_ASSERT(supports(method), "unsupported method on this engine");
    GASNUB_ASSERT(req.src >= 0 &&
                      req.src < static_cast<NodeId>(_nodes.size()) &&
                      req.dst >= 0 &&
                      req.dst < static_cast<NodeId>(_nodes.size()),
                  "bad transfer endpoints");
    GASNUB_ASSERT(req.src != req.dst, "transfer to self");
    GASNUB_ASSERT(req.srcStride >= 1 && req.dstStride >= 1,
                  "strides must be >= 1");
    GASNUB_ASSERT(req.elemWords >= 1 && req.words % req.elemWords == 0,
                  "words must be a whole number of elements");
    _wordsMoved += req.words;
    if (req.words == 0)
        return start;

    // The E-register primitives take a single (source stride,
    // destination stride) pair per call: a request with multi-word
    // elements is not expressible as one shmem call and must be
    // issued as elemWords separate word-granular transfers — the
    // Section 7.3 mismatch.  The T3D's CPU-driven deposit (a custom
    // routine, not a fixed primitive) handles element runs natively.
    const bool cpu_path =
        method == TransferMethod::Deposit && _config.depositViaCpu;
    const auto issue = [&](const TransferRequest &r) {
        return method == TransferMethod::Deposit ? deposit(r, start)
                                                 : fetch(r, start);
    };
    Tick end;
    if (req.elemWords > 1 && !cpu_path) {
        end = start;
        TransferRequest part = req;
        part.elemWords = 1;
        part.words = req.words / req.elemWords;
        for (std::uint64_t k = 0; k < req.elemWords; ++k) {
            part.srcAddr = req.srcAddr + k * wordBytes;
            part.dstAddr = req.dstAddr + k * wordBytes;
            end = std::max(end, issue(part));
        }
    } else {
        end = issue(req);
    }
    _bandwidth.addBytes(end, req.words * wordBytes);
    GASNUB_TRACE(trace::Category::Remote, _traceTrack,
                 methodName(method), start, end, "words", req.words,
                 "dst", static_cast<std::uint64_t>(req.dst));
    return end;
}

Tick
CrayEngine::deposit(const TransferRequest &req, Tick start)
{
    ++_deposits;
    mem::MemoryHierarchy *src = _nodes[req.src];
    mem::MemoryHierarchy *dst = _nodes[req.dst];

    if (_config.depositViaCpu) {
        // T3D: the CPU loads the source words; remote stores are
        // captured from the write-back queue and sent as packets; the
        // fetch/deposit circuitry at the destination writes them to
        // memory and invalidates the L1 line by line.
        // The network interface captures the node's actual write-back
        // queue; a node without one degrades to blocking,
        // word-granular remote stores.
        mem::WbqConfig cap_cfg;
        cap_cfg.name = _config.name + ".capture";
        if (const mem::WriteBackQueue *w = src->wbq()) {
            cap_cfg.depth = std::max(w->config().depth,
                                     _config.captureDepth);
            cap_cfg.chunkBytes = w->config().chunkBytes;
        } else {
            cap_cfg.depth = 1;
            cap_cfg.chunkBytes =
                static_cast<std::uint32_t>(wordBytes);
        }
        mem::WriteBackQueue capture(
            cap_cfg,
            [this, &req, dst](Addr chunk, std::uint32_t bytes, Tick t) {
                const noc::PacketResult pr = _torus->send(
                    req.src, req.dst, bytes, t + _engineTicks);
                const Tick done = dst->engineAccess(
                    chunk, mem::AccessType::Write,
                    pr.arrived + _engineTicks, bytes);
                dst->invalidateLine(chunk);
                return done;
            });
        if (_acct)
            capture.setTimeAccount(_acct, _wbqRes);

        src->stallUntil(start);
        const double store_cycles = src->config().cpu.storeIssueCycles;
        const std::uint64_t ew = req.elemWords;
        for (std::uint64_t i = 0; i < req.words; ++i) {
            const std::uint64_t e = i / ew;
            const std::uint64_t k = i % ew;
            const Tick rdy = src->read(
                req.srcAddr + (e * req.srcStride + k) * wordBytes);
            const Tick issue = src->consumeIssue(store_cycles);
            const Tick proceed = capture.store(
                req.dstAddr + (e * req.dstStride + k) * wordBytes,
                std::max(issue, rdy));
            src->stallUntil(proceed);
        }
        return capture.drainAll(src->now());
    }

    // T3E shmem_iput: E-register gather at the source, scatter at the
    // destination, deeply pipelined.
    return blockLoop(req, start, false);
}

Tick
CrayEngine::fetch(const TransferRequest &req, Tick start)
{
    ++_fetches;
    return blockLoop(req, start, true);
}

Tick
CrayEngine::blockLoop(const TransferRequest &req, Tick start,
                      bool fetching)
{
    mem::MemoryHierarchy *src = _nodes[req.src];
    mem::MemoryHierarchy *dst = _nodes[req.dst];
    const std::uint32_t g = requestGranule(_config, req);
    const std::uint64_t wpb = g / wordBytes;
    const std::uint64_t blocks = (req.words + wpb - 1) / wpb;

    std::deque<Tick> outstanding;
    Tick cursor = start;
    Tick last = start;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        if (outstanding.size() >= _config.window) {
            cursor = std::max(cursor, outstanding.front());
            outstanding.pop_front();
        }
        const std::uint64_t w0 = b * wpb;
        const std::uint32_t bytes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(wpb, req.words - w0) * wordBytes);
        const std::uint64_t e = w0 / req.elemWords;
        const std::uint64_t k = w0 % req.elemWords;
        const Addr sa =
            req.srcAddr + (e * req.srcStride + k) * wordBytes;
        const Addr da =
            req.dstAddr + (e * req.dstStride + k) * wordBytes;

        const Tick t0 = cursor;
        cursor += _requestTicks;
        if (_acct)
            _acct->charge(_engineRes, t0, cursor);
        // A fetch is receiver-driven: its request packet flows
        // dst -> src before the source engine reads memory.
        Tick read_at = t0 + _engineTicks;
        if (fetching) {
            const noc::PacketResult preq = _torus->send(
                req.dst, req.src, _config.requestBytes, t0);
            read_at = preq.arrived + _engineTicks + _fetchExtraTicks;
        }
        const Tick rd =
            src->engineAccess(sa, mem::AccessType::Read, read_at, bytes);
        const noc::PacketResult pr =
            _torus->send(req.src, req.dst, bytes, rd);
        const Tick done = dst->engineAccess(da, mem::AccessType::Write,
                                            pr.arrived + _engineTicks,
                                            bytes);
        dst->invalidateLine(da);
        outstanding.push_back(done);
        last = std::max(last, done);
    }
    return last;
}

void
CrayEngine::resetTiming()
{
    // The engine itself is stateless between transfers; the torus and
    // hierarchies are reset by the Machine.
}

} // namespace gasnub::remote
