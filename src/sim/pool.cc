#include "sim/pool.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace gasnub::sim {

int
defaultJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("GASNUB_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || v < 1 || v > maxJobs)
            GASNUB_FATAL("bad GASNUB_JOBS value '", env,
                         "' (expected an integer from 1 to ", maxJobs,
                         ")");
        return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers)
{
    const int n = defaultJobs(workers);
    _queues.reserve(n);
    for (int i = 0; i < n; ++i)
        _queues.push_back(std::make_unique<Queue>());
    _threads.reserve(n);
    for (int i = 0; i < n; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _start.notify_all();
    for (std::thread &t : _threads)
        t.join();
}

bool
ThreadPool::nextJob(int worker, std::size_t &job)
{
    // Own queue first, front end (cache-friendly contiguous block).
    {
        Queue &own = *_queues[worker];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.jobs.empty()) {
            job = own.jobs.front();
            own.jobs.pop_front();
            return true;
        }
    }
    // Steal from the back of the next non-empty victim.
    const int n = workers();
    for (int i = 1; i < n; ++i) {
        Queue &victim = *_queues[(worker + i) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.jobs.empty()) {
            job = victim.jobs.back();
            victim.jobs.pop_back();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(int worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        const Job *fn = nullptr;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _start.wait(lock, [this, seen] {
                return _stop || _generation != seen;
            });
            if (_stop)
                return;
            seen = _generation;
            fn = _fn;
        }
        std::size_t job;
        while (nextJob(worker, job)) {
            try {
                (*fn)(worker, job);
            } catch (...) {
                std::lock_guard<std::mutex> lock(_mutex);
                if (!_error)
                    _error = std::current_exception();
            }
        }
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (--_pending == 0)
                _done.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t num_jobs, const Job &fn)
{
    if (num_jobs == 0)
        return;
    GASNUB_ASSERT(fn, "parallelFor needs a callable job");

    // Seed each worker with a contiguous block of job indices.  The
    // queues are only touched by workers after they observe the
    // generation bump below (release/acquire on _mutex), so plain
    // writes are safe here.
    const std::size_t n = _queues.size();
    for (std::size_t w = 0; w < n; ++w) {
        const std::size_t lo = num_jobs * w / n;
        const std::size_t hi = num_jobs * (w + 1) / n;
        auto &q = _queues[w]->jobs;
        q.clear();
        for (std::size_t j = lo; j < hi; ++j)
            q.push_back(j);
    }

    {
        std::lock_guard<std::mutex> lock(_mutex);
        _fn = &fn;
        _pending = static_cast<int>(n);
        ++_generation;
    }
    _start.notify_all();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _done.wait(lock, [this] { return _pending == 0; });
        _fn = nullptr;
        error = _error;
        _error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace gasnub::sim
