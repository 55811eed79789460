#include "mem/hierarchy.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace gasnub::mem {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 stats::Group *parent)
    : _config(config),
      _dram(config.dram),
      _readAhead(config.stream),
      _readWindow(std::max<std::uint32_t>(config.cpu.readWindow, 1)),
      _writeWindow(std::max<std::uint32_t>(config.cpu.writeWindow, 1)),
      _stats(config.name),
      _reads(&_stats, config.name + ".reads", "word loads issued"),
      _writes(&_stats, config.name + ".writes", "word stores issued"),
      _dramLineFills(&_stats, config.name + ".dramLineFills",
                     "cache lines filled from DRAM"),
      _fillBandwidth(&_stats, config.name + ".fillBandwidth",
                     "line-fill bytes per time bucket"),
      _traceTrack(trace::Tracer::instance().track(config.name))
{
    GASNUB_ASSERT(!config.levels.empty(),
                  "hierarchy needs at least one cache level");
    GASNUB_ASSERT(config.levels.size() <= kMaxLevels,
                  "too many cache levels");
    GASNUB_ASSERT(config.cpu.clockMhz > 0, "bad clock");
    _loadIssueTicks = cyclesToTicks(config.cpu.loadIssueCycles);
    _storeIssueTicks = cyclesToTicks(config.cpu.storeIssueCycles);
    _cycleTicks = cyclesToTicks(1);
    _dramFrontTicks = nsTicks(config.dramFrontNs);
    _dramBackTicks = nsTicks(config.dramBackNs);
    _streamLineTicks =
        config.streamLineNs > 0 ? nsTicks(config.streamLineNs) : 0;
    for (const LevelConfig &lc : config.levels) {
        LevelTicks lt;
        lt.hit = nsTicks(lc.timing.hitNs);
        lt.hitOcc = nsTicks(lc.timing.hitOccupancyNs);
        lt.fillOcc = nsTicks(lc.timing.fillOccupancyNs);
        _levelTicks.push_back(lt);
    }
    _lastLineBytes = config.levels.back().cache.lineBytes;
    _lastLineMask = ~static_cast<Addr>(_lastLineBytes - 1);

    for (const LevelConfig &lc : config.levels)
        _levels[_numLevels++] =
            &_cacheStore.emplace_back(lc.cache, &_stats);
    _ports.resize(_numLevels);

    _stats.addChild(&_dram.statsGroup());
    _stats.addChild(&_readAhead.statsGroup());

    if (config.wbq) {
        _wbq = std::make_unique<WriteBackQueue>(
            *config.wbq,
            [this](Addr chunk, std::uint32_t bytes, Tick start) {
                return _dram
                    .access(chunk, AccessType::Write, start, bytes)
                    .dataReady;
            },
            &_stats);
    }

    if (parent)
        parent->addChild(&_stats);
}

Tick
MemoryHierarchy::cyclesToTicks(double cycles) const
{
    return static_cast<Tick>(cycles * 1e6 / _config.cpu.clockMhz + 0.5);
}

Tick
MemoryHierarchy::nsTicks(double ns) const
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

Cache &
MemoryHierarchy::level(std::size_t i)
{
    GASNUB_ASSERT(i < _numLevels, "bad cache level ", i);
    return *_levels[i];
}

mem::DramResult
MemoryHierarchy::memorySide(Addr addr, FetchIntent intent, Tick earliest,
                            std::uint32_t bytes)
{
    if (_dramHook)
        return _dramHook(addr, intent, earliest, bytes);
    const AccessType t = intent == FetchIntent::Write
                             ? AccessType::Write
                             : AccessType::Read;
    return _dram.access(addr, t, earliest, bytes);
}

Tick
MemoryHierarchy::dramLineRead(Addr line_addr, std::uint32_t line_bytes,
                              Tick issue, const StreamHit &sh,
                              bool exclusive)
{
    ++_dramLineFills;

    Tick earliest;
    if (sh.covered) {
        // Decoupled prefetch: the next fill issues one pipelined line
        // interval after the previous one, bounded by how far ahead of
        // the processor the stream engine may run.
        const Tick pipelined =
            _readAhead.lastStart(sh.slot) + _streamLineTicks;
        const Tick lookahead =
            static_cast<Tick>(_config.streamDepth) * _streamLineTicks;
        const Tick floor = issue > lookahead ? issue - lookahead : 0;
        earliest = std::max(pipelined, floor);
    } else {
        earliest = issue + _dramFrontTicks;
    }

    const DramResult dr = memorySide(
        line_addr,
        exclusive ? FetchIntent::ReadExclusive : FetchIntent::Read,
        earliest, line_bytes);
    if (sh.covered) {
        _readAhead.setLastStart(sh.slot, dr.start);
        // The decoupled stream engine is tied up for one pipelined
        // line interval per covered fill — the contiguous-ridge
        // bandwidth floor.
        if (_acct && _streamLineTicks > 0)
            _acct->charge(_streamRes, dr.start,
                          dr.start + _streamLineTicks);
    }

    Tick ready = dr.dataReady + _dramBackTicks;
    const Tick min_use = issue + _cycleTicks;
    ready = std::max(ready, min_use);
    _fillBandwidth.addBytes(ready, line_bytes);
    GASNUB_TRACE(trace::Category::Mem, _traceTrack,
                 sh.covered ? "fill.stream" : "fill.demand", issue,
                 ready, "bytes",
                 static_cast<std::uint64_t>(line_bytes));
    return ready;
}

Tick
MemoryHierarchy::serveRead(std::size_t level, Addr addr, Tick issue,
                           std::size_t &served_level, bool exclusive)
{
    const std::size_t n = _numLevels;
    if (level == n) {
        served_level = n;
        const Addr line = addr & _lastLineMask;
        return dramLineRead(line, _lastLineBytes, issue,
                            _readAhead.note(line, _lastLineBytes),
                            exclusive);
    }

    const LevelTicks &t = _levelTicks[level];
    const CacheResult r = _levels[level]->access(addr, AccessType::Read);
    if (r.hit) {
        served_level = level;
        const Tick occ = t.hitOcc;
        const Tick start = _ports[level].acquire(issue, occ);
        if (_acct)
            _acct->charge(_cacheRes, start, start + occ);
        return std::max(start + occ, issue + t.hit);
    }

    const Tick below =
        serveRead(level + 1, addr, issue, served_level, exclusive);
    if (r.evictedDirty)
        postWriteback(level, r.victimAddr, below);

    const Tick fill_occ = t.fillOcc;
    const Tick start = _ports[level].acquire(below, fill_occ);
    if (_acct)
        _acct->charge(_cacheRes, start, start + fill_occ);
    return start + fill_occ;
}

void
MemoryHierarchy::postWriteback(std::size_t from_level, Addr victim_line,
                               Tick earliest)
{
    const std::size_t target = from_level + 1;
    const std::uint32_t line_bytes =
        _config.levels[from_level].cache.lineBytes;
    if (target == _numLevels) {
        // Last-level victim goes to DRAM; posted write, occupies the
        // bank and bus but never blocks the demand path directly.
        memorySide(victim_line, FetchIntent::Write, earliest,
                   line_bytes);
        return;
    }
    const CacheResult r = _levels[target]->install(victim_line);
    const Tick occ = _levelTicks[target].fillOcc;
    const Tick start = _ports[target].acquire(earliest, occ);
    if (_acct)
        _acct->charge(_cacheRes, start, start + occ);
    if (r.evictedDirty)
        postWriteback(target, r.victimAddr, earliest);
}

Tick
MemoryHierarchy::serveWrite(std::size_t level, Addr addr, Tick issue,
                            std::size_t &served_level)
{
    const std::size_t n = _numLevels;
    if (level == n) {
        // Uncached word-granularity write to DRAM.
        served_level = n;
        const DramResult dr = memorySide(
            addr, FetchIntent::Write, issue + _dramFrontTicks,
            static_cast<std::uint32_t>(wordBytes));
        return dr.dataReady;
    }

    const LevelTicks &t = _levelTicks[level];
    const CacheResult r =
        _levels[level]->access(addr, AccessType::Write);
    if (r.hit) {
        served_level = level;
        const Tick occ = t.hitOcc;
        const Tick start = _ports[level].acquire(issue, occ);
        if (_acct)
            _acct->charge(_cacheRes, start, start + occ);
        Tick done = start + occ;
        if (_config.levels[level].cache.writePolicy ==
            WritePolicy::WriteThrough) {
            // Write-through: the word continues downstream.
            done = serveWrite(level + 1, addr, issue, served_level);
        } else if (!r.wasDirty && _dramHook) {
            // First write to a clean cached line: the coherence
            // protocol must gain ownership (invalidate other copies).
            const DramResult up =
                _dramHook(addr, FetchIntent::Upgrade, issue, 0);
            done = std::max(done, up.dataReady);
        }
        return done;
    }

    if (r.allocated) {
        // Write-allocate: fetch the line from below (read for
        // ownership), then write.
        std::size_t fill_from = 0;
        const Tick below =
            serveRead(level + 1, addr, issue, fill_from, true);
        served_level = fill_from;
        if (r.evictedDirty)
            postWriteback(level, r.victimAddr, below);
        const Tick fill_occ = t.fillOcc;
        const Tick start = _ports[level].acquire(below, fill_occ);
        if (_acct)
            _acct->charge(_cacheRes, start, start + fill_occ);
        return start + fill_occ;
    }

    // No-write-allocate miss (write-through L1): forward downstream.
    return serveWrite(level + 1, addr, issue, served_level);
}

Tick
MemoryHierarchy::read(Addr addr)
{
    GASNUB_PROF_ZONE("mem.read");
    ++_reads;
    return readOne(addr);
}

Tick
MemoryHierarchy::write(Addr addr)
{
    GASNUB_PROF_ZONE("mem.write");
    ++_writes;
    return writeOne(addr);
}

Tick
MemoryHierarchy::writeOne(Addr addr)
{
    const Tick want = _nextIssue;

    if (_wbq) {
        // T3D path: the write-through L1 updates its copy on a hit and
        // every store enters the coalescing write-back queue.
        _levels[0]->access(addr, AccessType::Write);
        const Tick proceed = _wbq->store(addr, want);
        _nextIssue = proceed + _storeIssueTicks;
        if (_acct)
            _acct->charge(_issueRes, proceed, _nextIssue);
        _lastComplete = std::max(_lastComplete, proceed);
        return proceed;
    }

    const Tick issue = std::max(want, _writeWindow.admit(want));
    _nextIssue = issue + _storeIssueTicks;
    if (_acct)
        _acct->charge(_issueRes, issue, _nextIssue);

    std::size_t served = 0;
    const Tick done = serveWrite(0, addr, issue, served);
    _writeWindow.complete(done);
    _lastComplete = std::max(_lastComplete, done);
    return done;
}

Tick
MemoryHierarchy::readOne(Addr addr)
{
    const Tick want = _nextIssue;
    const std::size_t n = _numLevels;

    // One mutating walk down the levels finds the serving level.
    // Allocation at an upper level never changes a deeper level's
    // probe, so the first hit is the level that holds the line.  The
    // fill unwind below needs only each missed level's dirty victim:
    // bit k of dirty says victim[k] holds one.  victim[] is left
    // uninitialized on purpose — clearing scratch on every access
    // cost more than the L1 hit it serves.
    Addr victim[kMaxLevels];
    unsigned dirty = 0;
    std::size_t hit_level = n;
    for (std::size_t k = 0; k < n; ++k) {
        const CacheResult r = _levels[k]->access(addr, AccessType::Read);
        if (r.hit) {
            hit_level = k;
            break;
        }
        if (r.evictedDirty) {
            dirty |= 1u << k;
            victim[k] = r.victimAddr;
        }
    }

    // Off-chip fills run the stream detector once, before issue: its
    // verdict decides both the window accounting and how the fill is
    // scheduled, and nothing in between touches the detector.
    Addr line = 0;
    StreamHit sh;
    if (hit_level == n) {
        line = addr & _lastLineMask;
        sh = _readAhead.note(line, _lastLineBytes);
    }
    const bool uses_window =
        hit_level >= _config.windowFromLevel && !sh.covered;

    const Tick issue = uses_window ? _readWindow.admit(want) : want;
    _nextIssue = issue + _loadIssueTicks;
    if (_acct)
        _acct->charge(_issueRes, issue, _nextIssue);

    Tick below;
    if (hit_level == n) {
        below = dramLineRead(line, _lastLineBytes, issue, sh, false);
    } else {
        const LevelTicks &t = _levelTicks[hit_level];
        const Tick start = _ports[hit_level].acquire(issue, t.hitOcc);
        if (_acct)
            _acct->charge(_cacheRes, start, start + t.hitOcc);
        below = std::max(start + t.hitOcc, issue + t.hit);
    }

    // Fill upward, deepest first: each level's victim writeback and
    // fill occupancy in the same order serveRead()'s recursion uses.
    for (std::size_t j = hit_level; j-- > 0;) {
        if (dirty & (1u << j))
            postWriteback(j, victim[j], below);
        const Tick fill_occ = _levelTicks[j].fillOcc;
        const Tick start = _ports[j].acquire(below, fill_occ);
        if (_acct)
            _acct->charge(_cacheRes, start, start + fill_occ);
        below = start + fill_occ;
    }

    if (uses_window) {
        _readWindow.complete(below);
        if (_config.blockingOffchipReads)
            _nextIssue = std::max(_nextIssue, below);
    }
    _lastComplete = std::max(_lastComplete, below);
    return below;
}

void
MemoryHierarchy::readBatch(const Addr *addrs, std::size_t n)
{
    GASNUB_PROF_ZONE("mem.readBatch");
    _reads += n;
    for (std::size_t i = 0; i < n; ++i)
        readOne(addrs[i]);
}

void
MemoryHierarchy::writeBatch(const Addr *addrs, std::size_t n)
{
    GASNUB_PROF_ZONE("mem.writeBatch");
    _writes += n;
    for (std::size_t i = 0; i < n; ++i)
        writeOne(addrs[i]);
}

void
MemoryHierarchy::processBatch(const AccessBatch &batch)
{
    GASNUB_PROF_ZONE("mem.batch");
    std::size_t reads = 0;
    for (std::size_t i = 0; i < batch.count; ++i)
        reads += batch.kinds[i] == AccessType::Read ? 1 : 0;
    _reads += reads;
    _writes += batch.count - reads;
    for (std::size_t i = 0; i < batch.count; ++i) {
        if (batch.kinds[i] == AccessType::Read)
            readOne(batch.addrs[i]);
        else
            writeOne(batch.addrs[i]);
    }
}

void
MemoryHierarchy::primeBatch(const Addr *addrs, std::size_t n)
{
    GASNUB_PROF_ZONE("mem.prime");
    const std::size_t levels = _numLevels;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = addrs[i];
        std::size_t k = 0;
        for (; k < levels; ++k) {
            const CacheResult r =
                _levels[k]->access(addr, AccessType::Read);
            // Priming reads on resetAll()-clean caches can only evict
            // clean lines; a dirty victim means the caller primed a
            // warm cache and the skipped writeback would diverge from
            // the timed oracle.
            GASNUB_ASSERT(!r.evictedDirty,
                          "functional prime evicted a dirty line");
            if (r.hit)
                break;
        }
        if (k == levels && _primeHook)
            _primeHook(addr & _lastLineMask);
    }
}

Tick
MemoryHierarchy::drain()
{
    Tick done = std::max(_nextIssue, _lastComplete);
    if (_wbq)
        done = std::max(done, _wbq->drainAll(done));
    _lastComplete = std::max(_lastComplete, done);
    return done;
}

void
MemoryHierarchy::resetTiming()
{
    for (Resource &p : _ports)
        p.reset();
    _dram.reset();
    _readAhead.reset();
    if (_wbq)
        _wbq->reset();
    _readWindow.reset();
    _writeWindow.reset();
    _nextIssue = 0;
    _lastComplete = 0;
}

void
MemoryHierarchy::resetAll()
{
    resetTiming();
    for (Cache &c : _cacheStore)
        c.invalidateAll();
}

Tick
MemoryHierarchy::engineAccess(Addr addr, AccessType type, Tick earliest,
                              std::uint32_t bytes)
{
    return _dram.access(addr, type, earliest, bytes).dataReady;
}

void
MemoryHierarchy::invalidateLine(Addr addr)
{
    for (Cache &c : _cacheStore)
        c.invalidate(addr);
}

} // namespace gasnub::mem
