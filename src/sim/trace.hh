/**
 * @file
 * Category-tagged event tracing for the simulator.
 *
 * Components record interval events (a DRAM access, a torus packet, a
 * remote transfer, an FFT phase) against named tracks; the harnesses
 * export the bounded in-memory buffer as Chrome trace_event JSON
 * (loadable in chrome://tracing or Perfetto) or as plain CSV.
 *
 * Design constraints:
 *  - zero-cost when disabled: every trace point is guarded by a single
 *    load-and-test of a global category mask (see GASNUB_TRACE);
 *  - deterministic: event order and timestamps derive only from
 *    simulated time and call order, and the exporters format with
 *    integer arithmetic only — two identical runs produce
 *    byte-identical trace files;
 *  - bounded: the buffer holds at most capacity() events; further
 *    events are counted in dropped() and discarded.
 *
 * Tracer::instance() names the *calling thread's* tracer: by default
 * every thread resolves to one process-wide tracer, but a worker
 * thread of a parallel sweep can install its own private Tracer with
 * ScopedThreadTracer (the category mask is thread-local as well), so
 * concurrent workers never share a buffer.  Per-worker events are
 * merged back into the main tracer in deterministic job order by the
 * sweep engine (see core::SweepRunner and docs/parallel_sweeps.md).
 * Names passed to record() must be string literals or otherwise
 * outlive the tracer.
 */

#ifndef GASNUB_SIM_TRACE_HH
#define GASNUB_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace gasnub::trace {

/** Trace categories; one bit each so they compose into a mask. */
enum class Category : std::uint32_t {
    Mem = 1u << 0,    ///< caches, DRAM, write-back queues, streams
    Noc = 1u << 1,    ///< torus links, NICs, packets
    Remote = 1u << 2, ///< remote-transfer engines
    Kernel = 1u << 3, ///< benchmark kernels and application phases
    Sim = 1u << 4,    ///< harness-level events (grid points, barriers)
};

/** Mask with every category enabled. */
inline constexpr std::uint32_t allCategories = 0x1f;

/** Lower-case name of one category ("mem", "noc", ...). */
const char *categoryName(Category c);

/**
 * Parse a comma-separated category list ("mem,noc", "all") into a
 * mask. Fatal on an unknown name; an empty string means all.
 */
std::uint32_t parseCategories(const std::string &list);

namespace detail {
/**
 * The calling thread's active category mask; read inline by every
 * trace point.  Thread-local so parallel sweep workers can trace into
 * private buffers (or run with tracing off) without touching the main
 * thread's setting.  constinit tells every including file that the
 * variable needs no dynamic initialization, so reads are a plain TLS
 * load rather than a call through GCC's TLS init wrapper (which
 * UBSan reports as a null load when no wrapper is emitted).
 */
extern thread_local constinit std::uint32_t activeMask;
} // namespace detail

/** @return true if category @p c is currently being recorded. */
inline bool
enabled(Category c)
{
    return (detail::activeMask & static_cast<std::uint32_t>(c)) != 0;
}

/** Identifies a named track (one timeline row per component). */
using TrackId = std::uint16_t;

/** One recorded interval event. */
struct Event
{
    Tick start = 0;          ///< simulated start time (ticks)
    Tick dur = 0;            ///< duration in ticks
    const char *name = nullptr;
    const char *key0 = nullptr; ///< optional argument names
    const char *key1 = nullptr;
    std::uint64_t val0 = 0;
    std::uint64_t val1 = 0;
    TrackId track = 0;
    Category cat = Category::Sim;
};

/**
 * An event recorder.
 *
 * A single Tracer instance is not thread-safe; isolation comes from
 * giving each thread its own instance.  Tracer::instance() resolves to
 * the process-wide tracer unless the calling thread installed a
 * private one with ScopedThreadTracer.
 */
class Tracer
{
  public:
    /** The calling thread's tracer (the global one by default). */
    static Tracer &instance();

    /** A standalone tracer, e.g.\ one per sweep worker thread. */
    Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Enable recording for the categories in @p mask (0 = off) on the
     * calling thread.
     */
    void setMask(std::uint32_t mask);
    std::uint32_t mask() const { return detail::activeMask; }

    /**
     * Bound the buffer to @p cap events. Shrinking below the current
     * size drops the newest events (they would have been dropped had
     * the bound been in place).
     */
    void setCapacity(std::size_t cap);
    std::size_t capacity() const { return _capacity; }

    /**
     * Intern @p name as a track and return its id. Repeated calls
     * with the same name return the same id; ids are assigned in
     * first-registration order (deterministic).
     */
    TrackId track(const std::string &name);

    /** Name of track @p id. */
    const std::string &trackName(TrackId id) const;

    /** Number of registered tracks. */
    std::size_t numTracks() const { return _tracks.size(); }

    /**
     * Record one interval event. Callers normally go through the
     * GASNUB_TRACE* macros, which skip the call entirely when the
     * category is disabled.
     *
     * @param cat   Category (also re-checked here for direct callers).
     * @param track Track id from track().
     * @param name  Event name; must outlive the tracer (literal).
     * @param start Start tick.
     * @param end   End tick; must be >= start.
     */
    void record(Category cat, TrackId track, const char *name,
                Tick start, Tick end);

    /** Record with one named integer argument. */
    void record(Category cat, TrackId track, const char *name,
                Tick start, Tick end, const char *key0,
                std::uint64_t val0);

    /** Record with two named integer arguments. */
    void record(Category cat, TrackId track, const char *name,
                Tick start, Tick end, const char *key0,
                std::uint64_t val0, const char *key1,
                std::uint64_t val1);

    /** Events currently buffered. */
    std::size_t size() const { return _events.size(); }

    /** Events discarded because the buffer was full. */
    std::uint64_t dropped() const { return _dropped; }

    /** Read-only view of the buffer (insertion order). */
    const std::vector<Event> &events() const { return _events; }

    /** Drop all buffered events and the dropped counter; keep tracks,
     *  capacity, and the category mask. */
    void clear();

    /**
     * Export the buffer as Chrome trace_event JSON ("traceEvents"
     * array of complete events, timestamps in microseconds formatted
     * with integer arithmetic). Events are ordered by (start tick,
     * insertion order).
     */
    void exportChromeJson(std::ostream &os) const;

    /** Export the buffer as CSV with a header row, same ordering. */
    void exportCsv(std::ostream &os) const;

  private:
    /** Indices of _events ordered by (start, insertion order). */
    std::vector<std::size_t> sortedOrder() const;

    std::size_t _capacity = 1u << 20;
    std::uint64_t _dropped = 0;
    std::vector<Event> _events;
    std::vector<std::string> _tracks;
};

/**
 * RAII: route the calling thread's Tracer::instance() (and category
 * mask) to a private tracer for the lifetime of this object.  Used by
 * sweep workers so every component they build or drive records into
 * the worker's own buffer; the previous tracer and mask are restored
 * on destruction.
 */
class ScopedThreadTracer
{
  public:
    /**
     * @param tracer This thread's tracer until destruction.
     * @param mask   Category mask for this thread (normally the main
     *               thread's mask, so workers record what serial code
     *               would).
     */
    ScopedThreadTracer(Tracer &tracer, std::uint32_t mask);
    ~ScopedThreadTracer();

    ScopedThreadTracer(const ScopedThreadTracer &) = delete;
    ScopedThreadTracer &operator=(const ScopedThreadTracer &) = delete;

  private:
    Tracer *_prev;
    std::uint32_t _prevMask;
};

} // namespace gasnub::trace

/**
 * Record an interval event iff @p cat is enabled. The guard is a
 * single global load and mask test; all argument expressions are
 * evaluated only when tracing is on.
 */
#define GASNUB_TRACE(cat, ...) \
    do { \
        if (::gasnub::trace::enabled(cat)) { \
            ::gasnub::trace::Tracer::instance().record(cat, \
                                                       __VA_ARGS__); \
        } \
    } while (0)

#endif // GASNUB_SIM_TRACE_HH
