/**
 * @file
 * serve::PlannerIndex — the serve-time half of the measure-once /
 * decide-often split.
 *
 * core::TransferPlanner is the sweep-side consumer: it is built per
 * process (or per worker) and answers one machine's queries.
 * PlannerIndex is the serving layer: an immutable, shareable
 * in-process index over one or more surface packs (one per machine)
 * that answers
 * (machine x pattern x working set) -> (method + predicted bandwidth)
 * queries from any number of threads without locks.
 *
 * Contract: plan() is byte-identical to TransferPlanner::best() over
 * the same options (same doubles, same tie-breaking) — both evaluate
 * the cost model through the one core::OptionEvaluator, which locates
 * a query on a shared option grid once rather than once per option.
 * A differential test over a golden query corpus, checked against a
 * frozen copy of the original per-option interpolation, locks this.
 */

#ifndef GASNUB_SERVE_PLANNER_INDEX_HH
#define GASNUB_SERVE_PLANNER_INDEX_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hh"
#include "serve/pack.hh"

namespace gasnub::serve {

/**
 * Decision-cache counters, kept only because the repository
 * benchmark's probe still reads them through cacheStats().  The index
 * has no cache, so they are always zero; they stay until a benchmark
 * change drops the probe's cache metrics.
 */
struct DecisionCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/**
 * A plan answer built for the serving hot path: trivially copyable,
 * no owned strings — @c label views into the index, which outlives
 * every query (the index is immutable once built).
 */
struct PlanAnswer
{
    std::uint32_t machine = 0;
    std::uint32_t optionIndex = 0;
    remote::TransferMethod method = remote::TransferMethod::Deposit;
    bool strideOnSource = true;
    double predictedMBs = 0;
    double predictedSeconds = 0;
    std::string_view label;
};

class PlannerIndex
{
  public:
    /**
     * Build an index over @p packs (at least one; machine names must
     * be unique, every option surface complete).  After construction
     * the index never changes, so const queries are safe from any
     * thread.
     */
    explicit PlannerIndex(std::vector<MachinePack> packs);

    /** Load @p paths (one pack file per machine) and build. */
    static PlannerIndex
    fromPackFiles(const std::vector<std::string> &paths);

    std::size_t numMachines() const { return _machines.size(); }

    const std::string &
    machineName(std::size_t id) const
    {
        return _machines[id].name;
    }

    /** Id for @p name, or -1 when the index has no such machine. */
    int machineId(std::string_view name) const;

    std::size_t
    numOptions(std::size_t machine_id) const
    {
        return _machines[machine_id].options.size();
    }

    const core::PlanOption &option(std::size_t machine_id,
                                   std::size_t i) const;

    /**
     * Answer @p query for machine @p machine_id: the option with the
     * highest predicted bandwidth, ties keeping the first-registered
     * option — exactly TransferPlanner::best().  Zero-allocation.
     * Fatal (clear diagnostic) on a bad machine id or a degenerate
     * query, like the planner.
     */
    PlanAnswer plan(std::size_t machine_id,
                    const core::TransferQuery &query) const;

    /** plan() widened to core::Plan (allocates the label string). */
    core::Plan planFull(std::size_t machine_id,
                        const core::TransferQuery &query) const;

    /** Predicted MB/s of every option, in registration order. */
    void predictAll(std::size_t machine_id,
                    const core::TransferQuery &query,
                    std::vector<double> &out) const;

    /** Always zero (see DecisionCacheStats). */
    DecisionCacheStats cacheStats() const { return {}; }
    void resetCacheStats() {}

  private:
    struct Machine
    {
        std::string name;
        core::OptionEvaluator options;
    };

    std::vector<Machine> _machines;
};

} // namespace gasnub::serve

#endif // GASNUB_SERVE_PLANNER_INDEX_HH
