#include "mem/stream.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace gasnub::mem {

ReadAhead::ReadAhead(const StreamConfig &config, stats::Group *parent)
    : _config(config),
      _slots(config.streams),
      _filterNext(std::max<std::uint32_t>(config.filterEntries, 1)),
      _filterOlder(_filterNext.size(), kNoEntry),
      _filterNewer(_filterNext.size(), kNoEntry),
      _filterAll(~std::uint64_t{0} >> (64 - _filterNext.size())),
      _stats(config.name),
      _fills(&_stats, config.name + ".fills", "line fills observed"),
      _covered(&_stats, config.name + ".covered",
               "fills covered by an active stream"),
      _coverage(&_stats, config.name + ".coverage",
                "fraction of fills covered by a stream",
                [this] {
                    const double n = _fills.value();
                    return n > 0 ? _covered.value() / n : 0.0;
                })
{
    GASNUB_ASSERT(config.streams >= 1, "need at least one stream slot");
    GASNUB_ASSERT(config.threshold >= 1, "threshold must be >= 1");
    GASNUB_ASSERT(config.filterEntries <= 64,
                  "at most 64 allocation-filter entries");
    if (parent)
        parent->addChild(&_stats);
}

StreamHit
ReadAhead::note(Addr line_addr, std::uint32_t line_bytes)
{
    StreamHit hit;
    if (!_config.enabled)
        return hit;
    ++_fills;

    // Look for a slot expecting exactly this line.
    for (std::uint32_t i = 0; i < _slots.size(); ++i) {
        Slot &s = _slots[i];
        if (s.valid && s.nextLine == line_addr) {
            s.nextLine = line_addr + line_bytes;
            s.run += 1;
            s.lru = ++_lruClock;
            if (s.run >= _config.threshold) {
                hit.covered = true;
                hit.slot = i;
                ++_covered;
            }
            return hit;
        }
    }

    // Allocation filter: promote to a stream slot only when this
    // fill sequentially follows a previous one, so isolated misses
    // (write allocations, gathers) cannot steal live streams.  The
    // first live entry expecting this line wins.
    const std::size_t entries = _filterNext.size();
    std::uint64_t match = 0;
    for (std::size_t i = 0; i < entries; ++i)
        match |= static_cast<std::uint64_t>(_filterNext[i] == line_addr)
                 << i;
    match &= _filterValid;
    if (match) {
        _filterValid &= ~(match & -match);
        unchain(static_cast<std::uint8_t>(std::countr_zero(match)));
        Slot *victim = &_slots[0];
        for (Slot &s : _slots) {
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (s.lru < victim->lru)
                victim = &s;
        }
        victim->valid = true;
        victim->nextLine = line_addr + line_bytes;
        victim->run = 2;
        victim->lru = ++_lruClock;
        victim->lastStart = 0;
        if (victim->run >= _config.threshold) {
            hit.covered = true;
            hit.slot = static_cast<std::uint32_t>(victim - _slots.data());
            ++_covered;
        }
        return hit;
    }

    // New candidate in the filter: the first free entry in index
    // order, else the least recently inserted one.
    const std::uint64_t free = _filterAll & ~_filterValid;
    std::uint8_t v;
    if (free) {
        v = static_cast<std::uint8_t>(std::countr_zero(free));
        _filterValid |= std::uint64_t{1} << v;
    } else {
        v = _filterOldest;
        unchain(v);
    }
    _filterNext[v] = line_addr + line_bytes;
    chain(v);
    return hit;
}

void
ReadAhead::unchain(std::uint8_t i)
{
    const std::uint8_t older = _filterOlder[i];
    const std::uint8_t newer = _filterNewer[i];
    (older == kNoEntry ? _filterOldest : _filterNewer[older]) = newer;
    (newer == kNoEntry ? _filterNewest : _filterOlder[newer]) = older;
}

void
ReadAhead::chain(std::uint8_t i)
{
    _filterOlder[i] = _filterNewest;
    _filterNewer[i] = kNoEntry;
    (_filterNewest == kNoEntry ? _filterOldest
                               : _filterNewer[_filterNewest]) = i;
    _filterNewest = i;
}

void
ReadAhead::reset()
{
    for (Slot &s : _slots)
        s = Slot{};
    _filterOldest = kNoEntry;
    _filterNewest = kNoEntry;
    _filterValid = 0;
    _lruClock = 0;
}

} // namespace gasnub::mem
