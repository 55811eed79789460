#include "mem/resource.hh"

#include <algorithm>
#include <utility>

namespace gasnub::mem {

void
Resource::reset()
{
    _busyUntil = 0;
    _tailEnd = 0;
    _live = 0;
    // Keep the storage for the next experiment: freeing it here made
    // single-flow load sweeps up to 20% slower (reallocating blocks).
    for (std::size_t b = _first; b < _blocks.size(); ++b)
        recycle(_blocks[b].gaps);
    _blocks.clear();
    _first = 0;
}

bool
Resource::claimFirstFit(Tick earliest, Tick occupancy, Tick &start)
{
    // The first gap ending at or after earliest + occupancy: earlier
    // gaps end too soon.  The caller checked that the newest gap ends
    // late enough, so it exists.
    const Tick need_end = earliest + occupancy;
    std::size_t lo = _first;
    std::size_t hi = _blocks.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (_blocks[mid].tailEnd < need_end)
            lo = mid + 1;
        else
            hi = mid;
    }
    std::size_t b = lo;
    const std::vector<Gap> &gaps = _blocks[b].gaps;
    std::size_t i = static_cast<std::size_t>(
        std::lower_bound(gaps.begin() +
                             static_cast<long>(_blocks[b].head),
                         gaps.end(), need_end,
                         [](const Gap &g, Tick t) { return g.end < t; }) -
        gaps.begin());

    // It fits if it holds earliest or is long enough from its start.
    const Gap &g = gaps[i];
    if (g.start <= earliest || g.end - g.start >= occupancy) {
        start = std::max(earliest, g.start);
        claim(b, i, start, occupancy);
        return true;
    }

    // Every later gap starts after earliest, so only its length
    // decides: finish this block, then scan only the blocks whose
    // bound admits the request, tightening the bound of each that
    // turns out too short.
    for (++i; i < gaps.size(); ++i) {
        if (gaps[i].end - gaps[i].start >= occupancy) {
            start = gaps[i].start;
            claim(b, i, start, occupancy);
            return true;
        }
    }
    for (++b; b < _blocks.size(); ++b) {
        Block &blk = _blocks[b];
        if (blk.maxLen < occupancy)
            continue;
        Tick longest = 0;
        for (i = blk.head; i < blk.gaps.size(); ++i) {
            const Tick len = blk.gaps[i].end - blk.gaps[i].start;
            if (len >= occupancy) {
                start = blk.gaps[i].start;
                claim(b, i, start, occupancy);
                return true;
            }
            longest = std::max(longest, len);
        }
        blk.maxLen = longest;
    }
    return false;
}

void
Resource::claim(std::size_t b, std::size_t i, Tick start, Tick occupancy)
{
    Block &blk = _blocks[b];
    std::vector<Gap> &gaps = blk.gaps;
    Gap &g = gaps[i];
    const Tick tail_start = start + occupancy;
    const Tick tail_end = g.end;
    if (start > g.start) {
        g.end = start;
        if (tail_end > tail_start) {
            // The tail piece keeps the old end: no block's end moves.
            gaps.insert(gaps.begin() + static_cast<long>(i) + 1,
                        Gap{tail_start, tail_end});
            ++_live;
            if (blk.live() > 2 * kBlockGaps)
                splitBlock(b);
            return;
        }
    } else if (tail_end > tail_start) {
        g.start = tail_start;
        return;
    } else {
        gaps.erase(gaps.begin() + static_cast<long>(i));
        --_live;
        if (blk.live() == 0) {
            eraseBlock(b);
            _tailEnd =
                _first != _blocks.size() ? _blocks.back().tailEnd : 0;
            return;
        }
    }
    // The claimed gap lost its end, which may have been the block's.
    blk.tailEnd = gaps.back().end;
    if (b + 1 == _blocks.size())
        _tailEnd = blk.tailEnd;
}

void
Resource::splitBlock(std::size_t b)
{
    Block upper = takeBlock();
    Block &lower = _blocks[b];
    const std::size_t mid = lower.head + lower.live() / 2;
    upper.gaps.assign(lower.gaps.begin() + static_cast<long>(mid),
                      lower.gaps.end());
    upper.tailEnd = lower.tailEnd;
    upper.maxLen = lower.maxLen;
    lower.gaps.resize(mid);
    lower.tailEnd = lower.gaps.back().end;
    _blocks.insert(_blocks.begin() + static_cast<long>(b) + 1,
                   std::move(upper));
}

void
Resource::eraseBlock(std::size_t b)
{
    if (b == _first) {
        trimFirst();
        return;
    }
    recycle(_blocks[b].gaps);
    _blocks.erase(_blocks.begin() + static_cast<long>(b));
}

void
Resource::trimFirst()
{
    Block &oldest = _blocks[_first];
    if (oldest.head != oldest.gaps.size()) {
        oldest.gaps.erase(oldest.gaps.begin(),
                          oldest.gaps.begin() +
                              static_cast<long>(oldest.head));
        oldest.head = 0;
        return;
    }
    recycle(oldest.gaps);
    ++_first;
    // Drop the retired slots once they match the live ones, keeping
    // retirement amortized O(1).
    if (_first >= _blocks.size() - _first) {
        _blocks.erase(_blocks.begin(),
                      _blocks.begin() + static_cast<long>(_first));
        _first = 0;
    }
}

void
Resource::pushBlock()
{
    _blocks.push_back(takeBlock());
}

Resource::Block
Resource::takeBlock()
{
    Block b;
    if (!_spare.empty()) {
        b.gaps = std::move(_spare.back());
        _spare.pop_back();
    }
    return b;
}

void
Resource::recycle(std::vector<Gap> &gaps)
{
    gaps.clear();
    _spare.push_back(std::move(gaps));
}

} // namespace gasnub::mem
