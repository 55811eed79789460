/**
 * @file
 * Host-side scoped wall-clock profiling of the simulator itself.
 *
 * Where sim::TimeAccount answers "which simulated resource consumed
 * the simulated ticks", the profiler answers "which of *our* functions
 * consumed the host's wall clock" — the observability layer that makes
 * ROADMAP item 2's perf work measurable.  Components open nested RAII
 * zones (GASNUB_PROF_ZONE); each thread accumulates a call tree of
 * (calls, total ns) per zone path, and the process-wide Profiler
 * merges the per-thread trees exactly (summed counts, path-keyed) into
 * one ranked report.
 *
 * Design constraints, mirroring trace.hh:
 *  - near-zero cost when disabled: every zone is guarded by one
 *    relaxed atomic load and a branch; no thread state is ever touched
 *    or allocated while profiling is off;
 *  - zero perturbation of measured surfaces: zones only read the host
 *    clock, never simulated state, so simulated results are
 *    byte-identical with profiling on or off (a ctest asserts this);
 *  - thread-aware: sim::ThreadPool workers profile into thread-local
 *    trees that outlive the thread (the registry keeps them), and
 *    report() folds them by zone path, so call counts merge exactly no
 *    matter how jobs were scheduled or stolen;
 *  - nesting: a zone's *total* time includes its children; its *self*
 *    time is total minus the children's totals.  steady_clock is
 *    monotonic and child intervals nest strictly inside the parent's,
 *    so self time is never negative.
 *
 * Enable with Profiler::enable(), the GASNUB_PROFILE environment
 * variable, or the tools' --profile switch.  Exporters: ranked text
 * report, JSON, and folded stacks ("a;b;c <self-us>" lines) that
 * flamegraph.pl / speedscope consume directly.
 */

#ifndef GASNUB_SIM_PROFILER_HH
#define GASNUB_SIM_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gasnub::prof {

namespace detail {
/** Process-wide on/off switch, read inline by every zone. */
extern std::atomic<bool> profilingEnabled;
} // namespace detail

/** @return true when zones are being recorded. */
inline bool
enabled()
{
    return detail::profilingEnabled.load(std::memory_order_relaxed);
}

/** One merged zone of the profile, identified by its full path. */
struct ZoneStats
{
    std::string path;        ///< "sweep.point;mem.read"
    std::string name;        ///< leaf zone name
    unsigned depth = 0;      ///< nesting depth (root zones = 0)
    std::uint64_t calls = 0; ///< zone entries, summed over threads
    std::uint64_t totalNs = 0; ///< inclusive wall time
    std::uint64_t selfNs = 0;  ///< totalNs minus children's totalNs
};

/**
 * The process-wide profile: a registry of per-thread zone trees and
 * the exporters that merge them.
 */
class Profiler
{
  public:
    static Profiler &instance();

    /**
     * Turn zone recording on or off process-wide.  Enabling also
     * honours a fresh start; call reset() to drop earlier data.
     * Thread-safe, but normally called once at program start (tools'
     * --profile) before worker threads exist.
     */
    static void enable(bool on = true);

    /** Enable iff GASNUB_PROFILE is set to a non-empty, non-0 value. */
    static void enableFromEnv();

    /**
     * Merge every thread's tree into one deterministic zone list:
     * depth-first, children ordered by name, counts and times summed
     * across threads by path.  Safe to call while profiling is
     * enabled as long as no zone is being entered/exited concurrently
     * (call after joining workers — ThreadPool's parallelFor barrier
     * suffices).
     */
    std::vector<ZoneStats> merged() const;

    /** Number of threads that recorded at least one zone. */
    std::size_t threads() const;

    /**
     * Ranked text report: zones sorted by self time (descending),
     * with calls, total, self, and the nested path; then one line per
     * registered thread with the summed calls and total time of its
     * top-level zones.
     */
    void report(std::ostream &os) const;

    /** The same data as one JSON object {"zones":[...]}. */
    void reportJson(std::ostream &os) const;

    /**
     * Folded-stack output: one "root;child;leaf <self-us>" line per
     * zone with non-zero self time, consumable by flamegraph.pl and
     * speedscope.
     */
    void reportFolded(std::ostream &os) const;

    /** Drop all recorded data (keeps the enabled flag). */
    void reset();

    // -- implementation interface for Zone (not for direct use) -----

    /** A node of one thread's zone tree. */
    struct Node
    {
        const char *name = nullptr;
        Node *parent = nullptr;
        std::uint64_t calls = 0;
        std::uint64_t totalNs = 0;
        std::vector<Node *> children; ///< owned by ThreadData::nodes
    };

    /** One thread's tree; owned by the registry, outlives the thread. */
    struct ThreadData
    {
        Node root; ///< synthetic root; its children are top zones
        Node *current = &root;
        std::vector<std::unique_ptr<Node>> nodes;
    };

    /** The calling thread's tree, registered on first use. */
    ThreadData &threadData();

  private:
    Profiler() = default;

    mutable std::mutex _mutex; ///< guards the registry vector
    std::vector<std::unique_ptr<ThreadData>> _threads;
};

/**
 * RAII scope: measures wall time between construction and destruction
 * and accounts it to the zone named @p name under the thread's
 * current zone.  @p name must be a string literal (it is stored by
 * pointer and compared by content when trees merge).
 */
class Zone
{
  public:
    explicit Zone(const char *name)
    {
        if (enabled())
            enter(name);
    }

    ~Zone()
    {
        if (_node)
            exit();
    }

    Zone(const Zone &) = delete;
    Zone &operator=(const Zone &) = delete;

  private:
    void enter(const char *name);
    void exit();

    Profiler::Node *_node = nullptr;
    std::chrono::steady_clock::time_point _start;
};

} // namespace gasnub::prof

#define GASNUB_PROF_CONCAT2(a, b) a##b
#define GASNUB_PROF_CONCAT(a, b) GASNUB_PROF_CONCAT2(a, b)

/**
 * Open a profiling zone for the rest of the enclosing scope.  One
 * relaxed load + branch when profiling is off.
 */
#define GASNUB_PROF_ZONE(name) \
    ::gasnub::prof::Zone GASNUB_PROF_CONCAT(gasnub_prof_zone_, \
                                            __LINE__)(name)

#endif // GASNUB_SIM_PROFILER_HH
