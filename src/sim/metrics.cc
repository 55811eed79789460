#include "sim/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace gasnub::metrics {

namespace {

std::chrono::steady_clock::time_point
processStart()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

} // namespace

std::int64_t
monotonicSeconds()
{
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - processStart())
        .count();
}

std::uint64_t
monotonicMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - processStart())
            .count());
}

// ------------------------------------------------------------------
// Histogram

void
Histogram::sample(std::uint64_t v, std::int64_t now_sec)
{
    // Exact cumulative totals first (relaxed adds; CAS min/max).
    _count.fetch_add(1, std::memory_order_relaxed);
    _sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = _min.load(std::memory_order_relaxed);
    while (v < cur &&
           !_min.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
    }
    cur = _max.load(std::memory_order_relaxed);
    while (v > cur &&
           !_max.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
    }
    unsigned b = 0;
    if (v == 0) {
        _zeros.fetch_add(1, std::memory_order_relaxed);
    } else {
        b = std::min<unsigned>(stats::Histogram::bucketOf(v),
                               kBuckets - 1);
        _buckets[b].fetch_add(1, std::memory_order_relaxed);
    }

    // Rolling window slot.  The first thread to sample a new second
    // stamps the slot and clears it; a sample racing the rotation may
    // land in the retiring slot (monitoring-grade, see header).
    Slot &slot = _slots[static_cast<std::size_t>(now_sec) % kSlots];
    std::int64_t stamped = slot.second.load(std::memory_order_acquire);
    if (stamped != now_sec) {
        if (slot.second.compare_exchange_strong(
                stamped, now_sec, std::memory_order_acq_rel)) {
            slot.zeros.store(0, std::memory_order_relaxed);
            for (auto &bucket : slot.buckets)
                bucket.store(0, std::memory_order_relaxed);
        }
    }
    if (v == 0)
        slot.zeros.fetch_add(1, std::memory_order_relaxed);
    else
        slot.buckets[b].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Histogram::minSeen() const
{
    return count() ? _min.load(std::memory_order_relaxed) : 0;
}

std::uint64_t
Histogram::maxSeen() const
{
    return count() ? _max.load(std::memory_order_relaxed) : 0;
}

double
Histogram::percentile(double p) const
{
    // The count comes from the same bucket snapshot, so a sample
    // racing this read cannot push the rank past the buckets.
    std::uint64_t buckets[kBuckets];
    const std::uint64_t zeros = _zeros.load(std::memory_order_relaxed);
    std::uint64_t count = zeros;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        buckets[i] = _buckets[i].load(std::memory_order_relaxed);
        count += buckets[i];
    }
    return stats::Histogram::percentileOf(buckets, zeros, count,
                                          minSeen(), maxSeen(), p);
}

Histogram::Window
Histogram::window(int seconds, std::int64_t now_sec) const
{
    GASNUB_ASSERT(seconds >= 1 &&
                      static_cast<std::size_t>(seconds) < kSlots,
                  "window of ", seconds, "s exceeds the ", kSlots,
                  "-slot ring");
    Window w;
    w.seconds = seconds;
    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t zeros = 0;
    // The window covers [now_sec - seconds + 1, now_sec]: the current
    // partial second plus the preceding complete ones.
    for (int back = 0; back < seconds; ++back) {
        const std::int64_t sec = now_sec - back;
        if (sec < 0)
            break;
        const Slot &slot =
            _slots[static_cast<std::size_t>(sec) % kSlots];
        if (slot.second.load(std::memory_order_acquire) != sec)
            continue; // empty or already recycled
        zeros += slot.zeros.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets[i] +=
                slot.buckets[i].load(std::memory_order_relaxed);
    }
    // The count is what the merged buckets hold, so the rank always
    // lands inside them.
    w.count = zeros;
    for (const std::uint64_t b : buckets)
        w.count += b;
    w.rate = static_cast<double>(w.count) / seconds;
    w.p50 = stats::Histogram::interpolate(buckets, zeros, w.count, 0.50);
    w.p95 = stats::Histogram::interpolate(buckets, zeros, w.count, 0.95);
    w.p99 = stats::Histogram::interpolate(buckets, zeros, w.count, 0.99);
    return w;
}

// ------------------------------------------------------------------
// Registry

Registry &
Registry::instance()
{
    static Registry global;
    return global;
}

Metric *
Registry::findLocked(const std::string &name, Kind kind)
{
    for (Entry &e : _entries) {
        if (e.metric->name() != name)
            continue;
        if (e.kind != kind)
            GASNUB_FATAL("metric '", name,
                         "' is already registered as a different "
                         "kind; counter/gauge/histogram names must "
                         "not collide");
        return e.metric.get();
    }
    return nullptr;
}

Counter &
Registry::counter(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (Metric *m = findLocked(name, Kind::Counter))
        return *static_cast<Counter *>(m);
    _entries.push_back(
        Entry{Kind::Counter, std::make_unique<Counter>(name, desc)});
    return *static_cast<Counter *>(_entries.back().metric.get());
}

Gauge &
Registry::gauge(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (Metric *m = findLocked(name, Kind::Gauge))
        return *static_cast<Gauge *>(m);
    _entries.push_back(
        Entry{Kind::Gauge, std::make_unique<Gauge>(name, desc)});
    return *static_cast<Gauge *>(_entries.back().metric.get());
}

Histogram &
Registry::histogram(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (Metric *m = findLocked(name, Kind::Histogram))
        return *static_cast<Histogram *>(m);
    _entries.push_back(Entry{Kind::Histogram,
                             std::make_unique<Histogram>(name, desc)});
    return *static_cast<Histogram *>(_entries.back().metric.get());
}

const Metric *
Registry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const Entry &e : _entries)
        if (e.metric->name() == name)
            return e.metric.get();
    return nullptr;
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::string
prometheusName(const std::string &name)
{
    std::string out = "gasnub_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

namespace {

/** printf %g without locale surprises, for exposition values. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

void
prometheusHistogram(std::ostream &os, const Histogram &h,
                    std::int64_t now_sec)
{
    const std::string n = prometheusName(h.name());
    os << "# HELP " << n << " " << h.desc() << "\n";
    os << "# TYPE " << n << " summary\n";
    for (double q : {0.5, 0.95, 0.99})
        os << n << "{quantile=\"" << num(q) << "\"} "
           << num(h.percentile(q)) << "\n";
    os << n << "_sum " << h.sum() << "\n";
    os << n << "_count " << h.count() << "\n";
    os << "# HELP " << n << "_window rolling-window digest of " << n
       << "\n";
    os << "# TYPE " << n << "_window gauge\n";
    for (int secs : kWindows) {
        const Histogram::Window w = h.window(secs, now_sec);
        const std::string label =
            "{window=\"" + std::to_string(secs) + "s\",stat=\"";
        os << n << "_window" << label << "rate\"} " << num(w.rate)
           << "\n";
        os << n << "_window" << label << "p50\"} " << num(w.p50)
           << "\n";
        os << n << "_window" << label << "p95\"} " << num(w.p95)
           << "\n";
        os << n << "_window" << label << "p99\"} " << num(w.p99)
           << "\n";
    }
}

void
jsonHistogram(std::ostream &os, const Histogram &h,
              std::int64_t now_sec)
{
    os << "\"type\": \"histogram\", \"count\": " << h.count()
       << ", \"sum\": " << h.sum() << ", \"min\": " << h.minSeen()
       << ", \"max\": " << h.maxSeen()
       << ", \"p50\": " << num(h.percentile(0.5))
       << ", \"p95\": " << num(h.percentile(0.95))
       << ", \"p99\": " << num(h.percentile(0.99))
       << ", \"windows\": {";
    bool first = true;
    for (int secs : kWindows) {
        const Histogram::Window w = h.window(secs, now_sec);
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << secs << "s\": {\"count\": " << w.count
           << ", \"rate\": " << num(w.rate)
           << ", \"p50\": " << num(w.p50)
           << ", \"p95\": " << num(w.p95)
           << ", \"p99\": " << num(w.p99) << "}";
    }
    os << "}";
}

} // namespace

void
Registry::exportPrometheus(std::ostream &os, std::int64_t now_sec) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const Entry &e : _entries) {
        const std::string n = prometheusName(e.metric->name());
        switch (e.kind) {
        case Kind::Counter: {
            const auto &c = *static_cast<Counter *>(e.metric.get());
            os << "# HELP " << n << " " << c.desc() << "\n";
            os << "# TYPE " << n << " counter\n";
            os << n << " " << c.value() << "\n";
            break;
        }
        case Kind::Gauge: {
            const auto &g = *static_cast<Gauge *>(e.metric.get());
            os << "# HELP " << n << " " << g.desc() << "\n";
            os << "# TYPE " << n << " gauge\n";
            os << n << " " << g.value() << "\n";
            break;
        }
        case Kind::Histogram:
            prometheusHistogram(
                os, *static_cast<Histogram *>(e.metric.get()),
                now_sec);
            break;
        }
    }
}

void
Registry::exportJson(std::ostream &os, std::int64_t now_sec,
                     bool compact) const
{
    const char *sep = compact ? "" : "\n";
    const char *indent = compact ? "" : "  ";
    std::lock_guard<std::mutex> lock(_mutex);
    os << "{\"metrics\": [" << sep;
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        const Entry &e = _entries[i];
        os << indent << "{\"name\": " << json::quoted(e.metric->name())
           << ", \"desc\": " << json::quoted(e.metric->desc()) << ", ";
        switch (e.kind) {
        case Kind::Counter:
            os << "\"type\": \"counter\", \"value\": "
               << static_cast<Counter *>(e.metric.get())->value();
            break;
        case Kind::Gauge:
            os << "\"type\": \"gauge\", \"value\": "
               << static_cast<Gauge *>(e.metric.get())->value();
            break;
        case Kind::Histogram:
            jsonHistogram(os,
                          *static_cast<Histogram *>(e.metric.get()),
                          now_sec);
            break;
        }
        os << "}" << (i + 1 < _entries.size() ? "," : "") << sep;
    }
    os << "]}";
    if (!compact)
        os << "\n";
}

} // namespace gasnub::metrics
