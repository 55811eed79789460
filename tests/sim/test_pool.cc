/**
 * @file
 * Tests for the work-stealing thread pool behind the parallel sweep
 * engine: every job runs exactly once, stealing rebalances skewed
 * loads, exceptions propagate, and the GASNUB_JOBS resolution order
 * holds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/pool.hh"

namespace {

using namespace gasnub;

/** Save/restore GASNUB_JOBS so tests cannot leak into each other. */
class JobsEnvGuard
{
  public:
    JobsEnvGuard()
    {
        const char *v = std::getenv("GASNUB_JOBS");
        if (v) {
            _had = true;
            _value = v;
        }
        unsetenv("GASNUB_JOBS");
    }

    ~JobsEnvGuard()
    {
        if (_had)
            setenv("GASNUB_JOBS", _value.c_str(), 1);
        else
            unsetenv("GASNUB_JOBS");
    }

  private:
    bool _had = false;
    std::string _value;
};

TEST(ThreadPool, EveryJobRunsExactlyOnce)
{
    sim::ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4);
    constexpr std::size_t kJobs = 1000;
    std::vector<std::atomic<int>> runs(kJobs);
    pool.parallelFor(kJobs, [&](int, std::size_t j) {
        runs[j].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(runs[j].load(), 1) << "job " << j;
}

TEST(ThreadPool, ResultsLandInPerJobSlots)
{
    sim::ThreadPool pool(3);
    constexpr std::size_t kJobs = 257; // not a multiple of workers
    std::vector<std::size_t> out(kJobs, 0);
    pool.parallelFor(kJobs,
                     [&](int, std::size_t j) { out[j] = j * j; });
    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(out[j], j * j);
}

TEST(ThreadPool, StealsFromABlockedWorker)
{
    // Worker 0's seeded block is {0..3}; job 0 sleeps long enough for
    // the other workers to drain their own (trivial) blocks and steal
    // the rest of worker 0's.
    sim::ThreadPool pool(4);
    constexpr std::size_t kJobs = 16;
    std::vector<std::atomic<int>> ranBy(kJobs);
    for (auto &r : ranBy)
        r.store(-1);
    pool.parallelFor(kJobs, [&](int w, std::size_t j) {
        if (j == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        ranBy[j].store(w);
    });
    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_GE(ranBy[j].load(), 0) << "job " << j;
    // At least one of worker 0's seeded jobs (1..3) was stolen.
    bool stolen = false;
    for (std::size_t j = 1; j < 4; ++j)
        stolen = stolen || ranBy[j].load() != 0;
    EXPECT_TRUE(stolen);
}

TEST(ThreadPool, FirstExceptionPropagatesAndJobsStillDrain)
{
    sim::ThreadPool pool(4);
    constexpr std::size_t kJobs = 64;
    std::vector<std::atomic<int>> runs(kJobs);
    EXPECT_THROW(pool.parallelFor(kJobs,
                                  [&](int, std::size_t j) {
                                      runs[j].fetch_add(1);
                                      if (j == 7)
                                          throw std::runtime_error(
                                              "job 7 failed");
                                  }),
                 std::runtime_error);
    // The failure does not cancel the remaining jobs.
    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(runs[j].load(), 1) << "job " << j;
}

TEST(ThreadPool, ConcurrentThrowsRethrowExactlyOneAndDrain)
{
    // Many workers throw at the same moment: exactly one exception
    // must surface on the caller, every job must still run once, and
    // the pool must come back reusable (no deadlock, no torn state).
    sim::ThreadPool pool(4);
    constexpr std::size_t kJobs = 64;
    std::vector<std::atomic<int>> runs(kJobs);
    std::atomic<int> thrown{0};
    int caught = 0;
    std::string what;
    try {
        pool.parallelFor(kJobs, [&](int, std::size_t j) {
            runs[j].fetch_add(1);
            // Every 8th job throws; with 4 workers several of these
            // are in flight concurrently.
            if (j % 8 == 0) {
                thrown.fetch_add(1);
                throw std::runtime_error("job " + std::to_string(j) +
                                         " failed");
            }
        });
    } catch (const std::runtime_error &e) {
        ++caught;
        what = e.what();
    }
    EXPECT_EQ(caught, 1);
    EXPECT_GE(thrown.load(), 2); // the race actually happened
    EXPECT_TRUE(what.rfind("job ", 0) == 0) << what;
    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(runs[j].load(), 1) << "job " << j;
    // The pool survives for the next call.
    std::atomic<std::size_t> done{0};
    pool.parallelFor(kJobs, [&](int, std::size_t) {
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), kJobs);
}

TEST(ThreadPool, AllWorkersThrowingStillReleasesTheCaller)
{
    sim::ThreadPool pool(4);
    for (int round = 0; round < 8; ++round) {
        EXPECT_THROW(pool.parallelFor(16,
                                      [&](int, std::size_t) {
                                          throw std::logic_error(
                                              "every job fails");
                                      }),
                     std::logic_error);
    }
}

TEST(ThreadPool, ReusableAcrossParallelForCalls)
{
    sim::ThreadPool pool(2);
    for (int round = 0; round < 3; ++round) {
        std::vector<int> out(100, 0);
        pool.parallelFor(out.size(), [&](int, std::size_t j) {
            out[j] = round;
        });
        const int sum = std::accumulate(out.begin(), out.end(), 0);
        EXPECT_EQ(sum, round * 100);
    }
}

TEST(ThreadPool, ZeroJobsIsANoop)
{
    sim::ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](int, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreWorkersThanJobs)
{
    sim::ThreadPool pool(8);
    std::vector<std::atomic<int>> runs(3);
    pool.parallelFor(3, [&](int, std::size_t j) {
        runs[j].fetch_add(1);
    });
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_EQ(runs[j].load(), 1);
}

TEST(DefaultJobs, ExplicitRequestWins)
{
    JobsEnvGuard guard;
    setenv("GASNUB_JOBS", "3", 1);
    EXPECT_EQ(sim::defaultJobs(5), 5);
}

TEST(DefaultJobs, EnvOverridesHardwareConcurrency)
{
    JobsEnvGuard guard;
    setenv("GASNUB_JOBS", "6", 1);
    EXPECT_EQ(sim::defaultJobs(0), 6);
    EXPECT_EQ(sim::defaultJobs(-1), 6);
}

TEST(DefaultJobs, FallsBackToHardwareConcurrency)
{
    JobsEnvGuard guard;
    const unsigned hw = std::thread::hardware_concurrency();
    const int expect = hw > 0 ? static_cast<int>(hw) : 1;
    EXPECT_EQ(sim::defaultJobs(0), expect);
}

using DefaultJobsDeath = ::testing::Test;

TEST(DefaultJobsDeath, RejectsMalformedEnv)
{
    JobsEnvGuard guard;
    setenv("GASNUB_JOBS", "four", 1);
    EXPECT_EXIT(sim::defaultJobs(0), ::testing::ExitedWithCode(1),
                "bad GASNUB_JOBS");
}

TEST(DefaultJobsDeath, RejectsNonPositiveEnv)
{
    JobsEnvGuard guard;
    setenv("GASNUB_JOBS", "0", 1);
    EXPECT_EXIT(sim::defaultJobs(0), ::testing::ExitedWithCode(1),
                "bad GASNUB_JOBS");
}

TEST(DefaultJobsDeath, RejectsEnvAboveTheJobsBound)
{
    JobsEnvGuard guard;
    for (const char *v : {"4097", "99999999999"}) {
        setenv("GASNUB_JOBS", v, 1);
        EXPECT_EXIT(sim::defaultJobs(0), ::testing::ExitedWithCode(1),
                    "bad GASNUB_JOBS value '" + std::string(v) +
                        "' \\(expected an integer from 1 to 4096\\)");
    }
}

} // namespace
