/**
 * @file
 * Shared telemetry-file plumbing for the serving tools (serve,
 * loadgen): format selection by extension, atomic write-then-rename
 * exports, and the periodic task that re-runs a writer next to the
 * worker threads (--metrics-out, loadgen's --timeline).
 *
 * The atomic rename is the load-bearing part: a scraper (or the CI
 * smoke job) reading the file mid-flush must always see one complete
 * exposition, never a torn half-file, so every export goes to
 * "<path>.tmp" first and std::rename()s over the target.
 */

#ifndef GASNUB_TOOLS_METRICS_FLUSH_HH
#define GASNUB_TOOLS_METRICS_FLUSH_HH

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace gasnub::toolmetrics {

/** ".json" targets get the JSON exposition; everything else gets
 *  Prometheus text format. */
inline bool
jsonByExtension(const std::string &path)
{
    const auto dot = path.rfind('.');
    return dot != std::string::npos && path.substr(dot) == ".json";
}

/**
 * Export @p registry into @p path atomically (write "<path>.tmp",
 * rename over the target).  Fatal on I/O errors — a tool asked to
 * publish metrics it cannot write is misconfigured, not degraded.
 */
inline void
writeMetricsFile(const metrics::Registry &registry,
                 const std::string &path)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            GASNUB_FATAL("cannot open metrics file '", tmp,
                         "' for writing");
        if (jsonByExtension(path))
            registry.exportJson(os, metrics::monotonicSeconds());
        else
            registry.exportPrometheus(os,
                                      metrics::monotonicSeconds());
        os.flush();
        if (!os)
            GASNUB_FATAL("short write on metrics file '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        GASNUB_FATAL("cannot rename '", tmp, "' over '", path, "'");
}

/**
 * A background thread that runs @p fn every @p interval and once
 * more when the task is destroyed, so whatever @p fn writes always
 * ends at the run's true totals.  The destructor joins the thread.
 */
class PeriodicTask
{
  public:
    PeriodicTask(std::chrono::milliseconds interval,
                 std::function<void()> fn)
        : _fn(std::move(fn)), _thread([this, interval] { run(interval); })
    {}

    ~PeriodicTask()
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stop = true;
        }
        _cv.notify_all();
        _thread.join();
    }

    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

  private:
    void
    run(std::chrono::milliseconds interval)
    {
        std::unique_lock<std::mutex> lock(_mutex);
        for (;;) {
            const bool stop =
                _cv.wait_for(lock, interval, [this] { return _stop; });
            lock.unlock();
            _fn();
            if (stop)
                return;
            lock.lock();
        }
    }

    std::function<void()> _fn;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stop = false; ///< guarded by _mutex
    std::thread _thread;
};

/**
 * --metrics-out: export @p registry into @p path now, so scrapers find
 * the file at once, then every @p interval_ms from @p task, which
 * writes the final exposition when it is reset or destroyed.  An
 * empty @p path leaves @p task empty.  @p registry and @p path must
 * outlive @p task.
 */
inline void
startMetricsFlusher(std::optional<PeriodicTask> &task,
                    const metrics::Registry &registry,
                    const std::string &path, int interval_ms)
{
    if (path.empty())
        return;
    writeMetricsFile(registry, path);
    task.emplace(std::chrono::milliseconds(interval_ms),
                 [&registry, &path] { writeMetricsFile(registry, path); });
}

} // namespace gasnub::toolmetrics

#endif // GASNUB_TOOLS_METRICS_FLUSH_HH
