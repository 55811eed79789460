#include "mem/cache.hh"

#include <bit>
#include <cstdlib>
#include <new>
#include <vector>

namespace gasnub::mem {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
Cache::FreeLines::operator()(Line *p) const
{
    std::free(p);
}

Cache::Cache(const CacheConfig &config, stats::Group *parent)
    : _lineMask(config.lineBytes - 1),
      _lineShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t(config.lineBytes)))),
      _assoc(config.assoc),
      _setMask(config.sizeBytes / (config.lineBytes * config.assoc) - 1),
      _writeBack(config.writePolicy == WritePolicy::WriteBack),
      _writeAllocate(config.allocPolicy ==
                     AllocPolicy::ReadWriteAllocate),
      _config(config),
      _stats(config.name),
      _hits(&_stats, config.name + ".hits", "accesses that hit"),
      _misses(&_stats, config.name + ".misses", "accesses that missed"),
      _writebacks(&_stats, config.name + ".writebacks",
                  "dirty lines evicted"),
      _invalidations(&_stats, config.name + ".invalidations",
                     "lines invalidated by coherence"),
      _hitRate(&_stats, config.name + ".hitRate",
               "fraction of accesses that hit",
               [this] {
                   const double n = _hits.value() + _misses.value();
                   return n > 0 ? _hits.value() / n : 0.0;
               })
{
    GASNUB_ASSERT(isPow2(config.lineBytes), "line size must be pow2: ",
                  config.name);
    // Bit 0 of a line address holds the dirty bit.
    GASNUB_ASSERT(config.lineBytes >= 2, "line size must be >= 2: ",
                  config.name);
    GASNUB_ASSERT(config.assoc >= 1, "associativity must be >= 1");
    GASNUB_ASSERT(config.sizeBytes %
                      (config.lineBytes * config.assoc) == 0,
                  "size not divisible by way size: ", config.name);
    const std::uint64_t sets = _setMask + 1;
    GASNUB_ASSERT(isPow2(sets), "number of sets must be pow2: ",
                  config.name);
    // calloc, not a value-initialised array: the OS hands out zero
    // pages, so the sets a run never touches cost no resident memory.
    _lines.reset(static_cast<Line *>(
        std::calloc(sets * config.assoc, sizeof(Line))));
    if (!_lines)
        throw std::bad_alloc();
    if (parent)
        parent->addChild(&_stats);
}

CacheResult
Cache::install(Addr line_addr)
{
    CacheResult res;
    const Addr line = lineAddr(line_addr);
    Line *ways = setWays(line);

    // Already present: just mark dirty.
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        Line &l = ways[w];
        if (holds(l, line)) {
            l.tag |= kDirtyBit;
            if (_assoc > 1)
                l.lru = nextLru();
            res.hit = true;
            return res;
        }
    }

    Line &v = victim(ways);
    fill(v, line | kDirtyBit, res);
    if (_assoc > 1)
        v.lru = nextLru();
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const Line *ways = setWays(addr);
    for (std::uint32_t w = 0; w < _assoc; ++w)
        if (holds(ways[w], line))
            return true;
    return false;
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = lineAddr(addr);
    Line *ways = setWays(addr);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        Line &l = ways[w];
        if (holds(l, line)) {
            l.epoch = 0;
            l.tag = line;
            ++_invalidations;
            return;
        }
    }
}

void
Cache::invalidateAll()
{
    // A bulk invalidation is a harness-level experiment reset (or the
    // T3D's whole-L1 flush), not a coherence event: it is not counted
    // in the invalidations stat, which would otherwise depend on what
    // the *previous* experiment happened to leave cached.
    //
    // Bumping the epoch retires every line in O(1); the 8400's 4 MB
    // board cache made the old full-array clear the single biggest
    // per-grid-point cost in a characterization sweep.
    if (++_epoch == 0) [[unlikely]]
        restartEpochs();
}

void
Cache::restartEpochs()
{
    // No line stamped 2^32 bumps ago may alias the new epoch.  Only
    // nonzero stamps are written, so sets never touched stay unbacked.
    const std::uint64_t n = (_setMask + 1) * _assoc;
    for (std::uint64_t i = 0; i < n; ++i)
        if (_lines[i].epoch != 0)
            _lines[i].epoch = 0;
    _epoch = 1;
}

void
Cache::renumberLru()
{
    // Victim selection compares stamps only among one set's live
    // lines, so their rank within the set is all that must survive.
    std::vector<std::uint32_t> ranks(_assoc);
    for (std::uint64_t s = 0; s <= _setMask; ++s) {
        Line *ways = &_lines[s * _assoc];
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            std::uint32_t rank = 0;
            if (live(ways[w])) {
                ++rank;
                for (std::uint32_t v = 0; v < _assoc; ++v)
                    rank += live(ways[v]) && ways[v].lru < ways[w].lru;
            }
            ranks[w] = rank;
        }
        for (std::uint32_t w = 0; w < _assoc; ++w)
            if (ways[w].lru != ranks[w])
                ways[w].lru = ranks[w];
    }
    _lruClock = _assoc;
}

bool
Cache::clean(Addr addr)
{
    const Addr line = lineAddr(addr);
    Line *ways = setWays(addr);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        Line &l = ways[w];
        if (holds(l, line) && (l.tag & kDirtyBit)) {
            l.tag = line;
            return true;
        }
    }
    return false;
}

} // namespace gasnub::mem
