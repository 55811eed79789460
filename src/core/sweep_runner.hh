/**
 * @file
 * Parallel characterization sweeps.
 *
 * The grid points of a characterization are fully independent
 * simulations (every kernel resets the machine before measuring), so
 * SweepRunner distributes them over a work-stealing thread pool.  Each
 * worker owns a private machine::Machine built from a shared
 * machine::SystemConfig, a private stats hierarchy (the machine's),
 * and a private thread-local trace::Tracer — no simulator state is
 * ever shared between threads.
 *
 * Determinism: results are written to per-point slots and merged in
 * grid order after the join, so the Surface, the merged stats, and the
 * merged trace are byte-identical to a serial Characterizer run no
 * matter how the points were scheduled (see docs/parallel_sweeps.md).
 */

#ifndef GASNUB_CORE_SWEEP_RUNNER_HH
#define GASNUB_CORE_SWEEP_RUNNER_HH

#include <memory>
#include <vector>

#include "core/characterizer.hh"
#include "machine/configs.hh"
#include "sim/pool.hh"

namespace gasnub::core {

/**
 * Runs characterization sweeps with one simulator replica per worker
 * thread.
 *
 * A SweepRunner may execute many sweeps; worker machines are built
 * lazily on first use and reused, accumulating stats across sweeps
 * exactly like a serial machine would.  Call mergeStatsInto() once,
 * after the last sweep, to fold the workers' stats into the main
 * machine's group.
 */
class SweepRunner
{
  public:
    /**
     * @param cfg  Recipe for the per-worker machine replicas.
     * @param jobs Worker threads; <= 0 resolves via sim::defaultJobs()
     *             (GASNUB_JOBS, then hardware concurrency).
     */
    explicit SweepRunner(machine::SystemConfig cfg, int jobs = 0);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    int workers() const { return _pool.workers(); }

    /**
     * Run one sweep in parallel.  Equivalent to
     * Characterizer::run(spec, cfg) on a fresh machine, including the
     * per-point trace events, which are re-recorded into the calling
     * thread's tracer in grid order.
     */
    Surface run(const SweepSpec &spec, const CharacterizeConfig &cfg);

    /**
     * Fold every worker machine's stats into @p target (normally the
     * main machine's statsGroup()).  Call exactly once, after the last
     * sweep; the result equals what a serial run would have
     * accumulated in @p target.
     */
    void mergeStatsInto(stats::Group &target);

  private:
    /** One worker's private simulator state (lazily built). */
    struct Worker;

    machine::SystemConfig _config;
    std::vector<std::unique_ptr<Worker>> _workers;
    sim::ThreadPool _pool;
};

/**
 * Run one characterization sweep on @p m, distributing grid points
 * over @p jobs workers when > 1.  Per-worker machine replicas are
 * built from m.systemConfig(); the surface, trace events, and stats
 * merge back into @p m deterministically, so every output is
 * byte-identical to a serial run (see docs/parallel_sweeps.md).
 */
Surface sweep(machine::Machine &m, const SweepSpec &spec,
              const CharacterizeConfig &cfg, int jobs);

} // namespace gasnub::core

#endif // GASNUB_CORE_SWEEP_RUNNER_HH
