/**
 * @file
 * A small work-stealing thread pool for embarrassingly parallel
 * simulation sweeps.
 *
 * The simulator itself stays single-threaded: every worker operates on
 * its own machine::Machine instance, its own stats groups, and its own
 * thread-local trace::Tracer, so no simulator state is ever shared.
 * The pool only distributes *independent* jobs (grid points of a
 * characterization sweep) and joins them.
 *
 * Scheduling: each worker owns a deque seeded with a contiguous block
 * of job indices; it pops from the front of its own deque and, when
 * empty, steals from the back of a victim's.  Job *results* must be
 * written to per-job slots by the caller, so completion order never
 * affects output (see core::SweepRunner for the deterministic merge).
 */

#ifndef GASNUB_SIM_POOL_HH
#define GASNUB_SIM_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gasnub::sim {

/** Largest worker count GASNUB_JOBS and the tools' --jobs accept. */
constexpr int maxJobs = 4096;

/**
 * Resolve a worker count: an explicit @p requested > 0 wins, then the
 * GASNUB_JOBS environment variable, then the hardware concurrency
 * (falling back to 1 when unknown).  Fatal on a malformed GASNUB_JOBS
 * or one outside 1..maxJobs.
 */
int defaultJobs(int requested = 0);

/**
 * A fixed-size pool of worker threads executing indexed jobs.
 *
 * Workers are identified by a stable index in [0, workers()); callers
 * use it to address per-worker state (a worker's machine instance,
 * tracer, ...).  parallelFor() may be called repeatedly; the threads
 * persist across calls.
 */
class ThreadPool
{
  public:
    /** @param workers Worker threads; <= 0 resolves via defaultJobs(). */
    explicit ThreadPool(int workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workers() const { return static_cast<int>(_queues.size()); }

    /** Job callback: worker index and job index. */
    using Job = std::function<void(int worker, std::size_t job)>;

    /**
     * Run fn(worker, j) for every j in [0, num_jobs), distributed over
     * the workers with work stealing.  Blocks until every job has run;
     * the first exception thrown by a job is rethrown here (remaining
     * jobs still run).  Not reentrant: one parallelFor at a time.
     */
    void parallelFor(std::size_t num_jobs, const Job &fn);

  private:
    /** One worker's job queue: own pops front, thieves pop back. */
    struct Queue
    {
        std::mutex mutex;
        std::deque<std::size_t> jobs;
    };

    void workerLoop(int worker);
    bool nextJob(int worker, std::size_t &job);

    std::vector<std::unique_ptr<Queue>> _queues;
    std::vector<std::thread> _threads;

    std::mutex _mutex; ///< guards the run state below
    std::condition_variable _start;
    std::condition_variable _done;
    const Job *_fn = nullptr;
    std::uint64_t _generation = 0;
    int _pending = 0; ///< workers still draining this generation
    bool _stop = false;
    std::exception_ptr _error;
};

} // namespace gasnub::sim

#endif // GASNUB_SIM_POOL_HH
