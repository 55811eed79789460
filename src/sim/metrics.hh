/**
 * @file
 * sim::MetricsRegistry — live service telemetry for the serving layer.
 *
 * The existing observability channels (trace, stats, attribution,
 * profiler) are offline: they accumulate during a run and are dumped
 * once at the end.  A long-running service (tools/serve answering
 * millions of plan queries) needs the complementary discipline the
 * paper applies to hardware — continuous counters and latency
 * distributions you can watch *while* load runs.  This module is a
 * process-wide, lock-light registry of named
 *
 *  - counters   (monotonic, exact, atomic adds),
 *  - gauges     (last-value, atomic stores), and
 *  - histograms (log2 buckets with stats::Histogram percentile
 *    semantics, cumulative + rolling per-second time windows for
 *    1s/10s/60s rates and p50/p95/p99),
 *
 * exposed in Prometheus text exposition format and as JSON.
 *
 * Design constraints:
 *  - lock-light hot path: recording is relaxed atomics only; the
 *    registry mutex is touched at registration and export time, never
 *    per sample.  Tools that do not ask for telemetry register no
 *    metrics and record nothing.
 *  - zero perturbation: metrics only observe the host clock and the
 *    values handed to them; simulated results, query answers, and all
 *    golden surfaces are byte-identical with telemetry on or off
 *    (locked by tests/tools/test_serve_cli.sh).
 *  - monitoring-grade windows, accounting-grade totals: cumulative
 *    counter/histogram totals are exact under any concurrency;
 *    rolling windows rotate per-second ring slots with lock-free
 *    CAS stamping, so a handful of samples racing a second boundary
 *    may land in the retiring slot — windows are for watching load,
 *    totals are for asserting it (CI asserts request totals exactly).
 *
 * Time is passed in explicitly (seconds on some monotonic axis, e.g.
 * metrics::monotonicSeconds()) so unit tests can drive window
 * rotation synthetically and the library never hides a clock source.
 */

#ifndef GASNUB_SIM_METRICS_HH
#define GASNUB_SIM_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gasnub::metrics {

/**
 * Whole seconds of monotonic time since the first call to this or
 * monotonicMicros() (>= 0).
 */
std::int64_t monotonicSeconds();

/**
 * Microseconds on the same axis as monotonicSeconds() — the process's
 * one host clock: serve's trace spans, metric windows and
 * GASNUB_LOG_TIMESTAMPS prefixes all read it.
 */
std::uint64_t monotonicMicros();

/** The registry's rolling windows, in seconds. */
inline constexpr std::array<int, 3> kWindows = {1, 10, 60};

/** Base class for all registered metrics. */
class Metric
{
  public:
    Metric(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~Metric() = default;

    Metric(const Metric &) = delete;
    Metric &operator=(const Metric &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

  private:
    std::string _name;
    std::string _desc;
};

/** A monotonic counter; adds are exact under any concurrency. */
class Counter : public Metric
{
  public:
    using Metric::Metric;

    void
    add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** A last-value gauge (queue depth, cache occupancy, ...). */
class Gauge : public Metric
{
  public:
    using Metric::Metric;

    void
    set(std::int64_t v)
    {
        _value.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t n)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> _value{0};
};

/**
 * A log2-bucketed latency/size histogram with rolling windows.
 *
 * Bucket semantics are stats::Histogram's: bucket i counts samples in
 * [2^i, 2^(i+1)), zero-valued samples have their own counter, and
 * percentile() locates the rank's bucket exactly and interpolates
 * linearly within it.  On top of the exact cumulative totals, a ring
 * of per-second slots answers "what were the last 1/10/60 seconds
 * like": event rate plus the same percentile model over the window's
 * merged buckets.
 */
class Histogram : public Metric
{
  public:
    /** log2 buckets: values up to 2^48 - 1 resolve exactly. */
    static constexpr std::size_t kBuckets = 48;
    /** Ring slots; must exceed the widest window + 1 (rotation). */
    static constexpr std::size_t kSlots = 64;

    using Metric::Metric;

    /**
     * Record @p v (e.g.\ a latency in microseconds) at @p now_sec on
     * the caller's monotonic-seconds axis.  Relaxed atomics only.
     */
    void sample(std::uint64_t v, std::int64_t now_sec);

    std::uint64_t
    count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }

    std::uint64_t minSeen() const;
    std::uint64_t maxSeen() const;

    /**
     * Cumulative quantile @p p in [0, 1]:
     * stats::Histogram::percentileOf() over the current buckets.
     */
    double percentile(double p) const;

    /** One rolling window's digest. */
    struct Window
    {
        int seconds = 0;        ///< window width
        std::uint64_t count = 0;
        double rate = 0;        ///< events/sec over the window
        double p50 = 0;
        double p95 = 0;
        double p99 = 0;
    };

    /**
     * Digest of the last @p seconds (the current partial second plus
     * the preceding complete ones) ending at @p now_sec; percentiles
     * are stats::Histogram::interpolate() over the merged slots.
     */
    Window window(int seconds, std::int64_t now_sec) const;

  private:
    struct Slot
    {
        std::atomic<std::int64_t> second{-1};
        std::atomic<std::uint64_t> zeros{0};
        std::array<std::atomic<std::uint32_t>, kBuckets> buckets{};
    };

    std::atomic<std::uint64_t> _count{0};
    std::atomic<std::uint64_t> _sum{0};
    std::atomic<std::uint64_t> _zeros{0};
    std::atomic<std::uint64_t> _min{~std::uint64_t(0)};
    std::atomic<std::uint64_t> _max{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> _buckets{};
    std::array<Slot, kSlots> _slots{};
};

/**
 * The registry: named metrics, exported on demand.
 *
 * Registration (counter()/gauge()/histogram()) interns by name — the
 * same name always returns the same object — and is mutex-protected;
 * do it at startup, keep the returned reference for the hot path.
 * References stay valid for the registry's lifetime.
 */
class Registry
{
  public:
    /** The process-wide registry used by the serving tools. */
    static Registry &instance();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Intern a counter (same name -> same object; fatal on a name
     *  already registered as a different kind). */
    Counter &counter(const std::string &name,
                     const std::string &desc);

    /** Intern a gauge. */
    Gauge &gauge(const std::string &name, const std::string &desc);

    /** Intern a histogram. */
    Histogram &histogram(const std::string &name,
                         const std::string &desc);

    /** Find a metric by exact name; nullptr when absent. */
    const Metric *find(const std::string &name) const;

    /**
     * Prometheus text exposition: # HELP/# TYPE headers, sanitized
     * gasnub_* names, cumulative totals, summary quantiles, and
     * window series as labeled gauges.
     */
    void exportPrometheus(std::ostream &os, std::int64_t now_sec) const;

    /**
     * The same data as one JSON object {"metrics": [...]}; one line
     * per call when @p compact (the serve control-stream dump).
     */
    void exportJson(std::ostream &os, std::int64_t now_sec,
                    bool compact = false) const;

    /** Registered metric count (tests). */
    std::size_t size() const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::unique_ptr<Metric> metric;
    };

    Metric *findLocked(const std::string &name, Kind kind);

    mutable std::mutex _mutex; ///< guards the _entries layout
    std::vector<Entry> _entries;
};

/**
 * A Prometheus-legal series name for @p name: "gasnub_" + the name
 * with every character outside [a-zA-Z0-9_] mapped to '_'.
 */
std::string prometheusName(const std::string &name);

} // namespace gasnub::metrics

#endif // GASNUB_SIM_METRICS_HH
