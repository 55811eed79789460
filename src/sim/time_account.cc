#include "sim/time_account.hh"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <ostream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace gasnub::sim {

namespace {

using Interval = std::pair<Tick, Tick>;
using Set = std::vector<Interval>; ///< sorted, disjoint, non-empty

/** Sort @p raw and merge overlapping/adjacent intervals. */
Set
normalize(Set raw)
{
    std::sort(raw.begin(), raw.end());
    Set out;
    for (const auto &[s, e] : raw) {
        if (!out.empty() && s <= out.back().second)
            out.back().second = std::max(out.back().second, e);
        else
            out.emplace_back(s, e);
    }
    return out;
}

Tick
sumLen(const Set &a)
{
    Tick len = 0;
    for (const auto &[s, e] : a)
        len += e - s;
    return len;
}

/** Total overlap between two sorted disjoint interval sets. */
Tick
intersectLen(const Set &a, const Set &b)
{
    Tick len = 0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Tick lo = std::max(a[i].first, b[j].first);
        const Tick hi = std::min(a[i].second, b[j].second);
        if (lo < hi)
            len += hi - lo;
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return len;
}

/** Union of two sorted disjoint interval sets. */
Set
unionOf(const Set &a, const Set &b)
{
    Set merged;
    merged.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged));
    return normalize(std::move(merged));
}

} // namespace

TimeAccount::TimeAccount()
{
    resource("sw.overhead");
}

TimeAccount::ResId
TimeAccount::resource(const std::string &name)
{
    for (std::size_t i = 0; i < _names.size(); ++i)
        if (_names[i] == name)
            return static_cast<ResId>(i);
    _names.push_back(name);
    _busy.push_back(0);
    _stall.push_back(0);
    _intervals.emplace_back();
    return static_cast<ResId>(_names.size() - 1);
}

Tick
TimeAccount::busyTicks(const std::string &name) const
{
    for (std::size_t i = 0; i < _names.size(); ++i)
        if (_names[i] == name)
            return _busy[i];
    return 0;
}

Tick
TimeAccount::stallTicks(const std::string &name) const
{
    for (std::size_t i = 0; i < _names.size(); ++i)
        if (_names[i] == name)
            return _stall[i];
    return 0;
}

void
TimeAccount::arm()
{
    _armed = true;
    resetPoint();
}

void
TimeAccount::resetPoint()
{
    for (auto &v : _intervals)
        v.clear();
}

TimeAccount::PointAttribution
TimeAccount::finishPoint(Tick elapsed)
{
    const std::size_t n = _names.size();
    PointAttribution out;
    out.elapsed = elapsed;
    out.attributed.assign(n, 0);
    out.busy.assign(n, 0);

    // Clip each resource's captured intervals to the measured window
    // [0, elapsed) — posted writebacks can drain past the point's
    // nominal end — then merge them into disjoint coverage sets.
    std::vector<Set> cover(n);
    for (std::size_t i = 0; i < n; ++i) {
        Set clipped;
        clipped.reserve(_intervals[i].size());
        for (auto [s, e] : _intervals[i]) {
            if (s >= elapsed)
                continue;
            e = std::min(e, elapsed);
            if (e > s)
                clipped.emplace_back(s, e);
        }
        cover[i] = normalize(std::move(clipped));
        out.busy[i] = sumLen(cover[i]);
    }

    // Rank by busy time within the window, descending; ties break on
    // registration order so the result is deterministic.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (out.busy[a] != out.busy[b])
                      return out.busy[a] > out.busy[b];
                  return a < b;
              });

    // Layered attribution: each resource claims only the time not
    // already claimed by a busier one.
    Set claimed;
    for (const std::size_t r : order) {
        if (out.busy[r] == 0)
            continue;
        out.attributed[r] =
            out.busy[r] - intersectLen(cover[r], claimed);
        claimed = unionOf(claimed, cover[r]);
    }

    // Whatever nothing covers is software overhead / exposed latency.
    const Tick covered = sumLen(claimed);
    GASNUB_ASSERT(covered <= elapsed, "coverage exceeds the window");
    out.attributed[overheadRes] += elapsed - covered;

    _armed = false;
    resetPoint();
    return out;
}

void
TimeAccount::resetCumulative()
{
    std::fill(_busy.begin(), _busy.end(), 0);
    std::fill(_stall.begin(), _stall.end(), 0);
}

void
TimeAccount::mergeFrom(const TimeAccount &other)
{
    for (std::size_t i = 0; i < other._names.size(); ++i) {
        const ResId r = resource(other._names[i]);
        _busy[r] += other._busy[i];
        _stall[r] += other._stall[i];
    }
}

TimeAccountStat::TimeAccountStat(stats::Group *group, std::string name,
                                 std::string desc, TimeAccount *acct)
    : StatBase(group, std::move(name), std::move(desc)), _acct(acct)
{
    GASNUB_ASSERT(_acct != nullptr, "TimeAccountStat needs an account");
}

void
TimeAccountStat::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << _acct->names().size() << " # " << desc()
       << " (resources)\n";
    for (std::size_t i = 0; i < _acct->names().size(); ++i) {
        const auto r = static_cast<TimeAccount::ResId>(i);
        if (_acct->busyTicks(r) == 0 && _acct->stallTicks(r) == 0)
            continue;
        os << "  " << name() << '[' << _acct->names()[i] << "] busy="
           << _acct->busyTicks(r) << " stall=" << _acct->stallTicks(r)
           << "\n";
    }
}

void
TimeAccountStat::printJson(std::ostream &os) const
{
    os << "{\"name\":" << json::quoted(name())
       << ",\"type\":\"timeAccount\",\"desc\":"
       << json::quoted(desc()) << ",\"resources\":[";
    for (std::size_t i = 0; i < _acct->names().size(); ++i) {
        const auto r = static_cast<TimeAccount::ResId>(i);
        if (i)
            os << ',';
        os << "{\"name\":" << json::quoted(_acct->names()[i])
           << ",\"busyTicks\":" << _acct->busyTicks(r)
           << ",\"stallTicks\":" << _acct->stallTicks(r) << "}";
    }
    os << "]}";
}

void
TimeAccountStat::reset()
{
    _acct->resetCumulative();
}

void
TimeAccountStat::mergeFrom(const StatBase &other)
{
    const auto *peer = dynamic_cast<const TimeAccountStat *>(&other);
    GASNUB_ASSERT(peer != nullptr, "stat merge type mismatch at '",
                  name(), "' / '", other.name(), "'");
    _acct->mergeFrom(*peer->_acct);
}

} // namespace gasnub::sim
