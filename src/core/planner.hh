/**
 * @file
 * The transfer planner: the compiler-facing cost-benefit model.
 *
 * "If a given platform allows more than one way to implement a
 * communication step, the modeled bandwidth metric is used to
 * determine the best way to implement this communication step"
 * (Section 4.1).  The planner holds one characterization surface per
 * implementation option (fetch vs. deposit, strided loads vs. strided
 * stores, coherent pull) and, for a queried communication step,
 * returns the option with the highest predicted bandwidth — e.g.\ it
 * reproduces the paper's back-end decisions: deposit on the T3D,
 * fetch on the T3E (especially for even strides), pull on the 8400.
 */

#ifndef GASNUB_CORE_PLANNER_HH
#define GASNUB_CORE_PLANNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/surface.hh"
#include "remote/remote_ops.hh"

namespace gasnub::core {

/**
 * One way to implement a communication step.
 *
 * The characterization surface is held by shared_ptr so copying an
 * option — replicating a planner per sweep worker, registering the
 * same recipe into many runtimes, building a serving index — shares
 * the immutable measurement instead of deep-copying its grid.
 */
struct PlanOption
{
    PlanOption() = default;

    /** Wrap a freshly measured surface (moved into shared storage). */
    PlanOption(std::string label_, remote::TransferMethod method_,
               bool stride_on_source, Surface surface_,
               std::uint64_t block_bytes = 0)
        : label(std::move(label_)), method(method_),
          strideOnSource(stride_on_source),
          surface(std::make_shared<const Surface>(
              std::move(surface_))),
          blockBytes(block_bytes)
    {}

    /** Share an already-immutable surface (no copy). */
    PlanOption(std::string label_, remote::TransferMethod method_,
               bool stride_on_source,
               std::shared_ptr<const Surface> surface_,
               std::uint64_t block_bytes = 0)
        : label(std::move(label_)), method(method_),
          strideOnSource(stride_on_source),
          surface(std::move(surface_)), blockBytes(block_bytes)
    {}

    std::string label;
    remote::TransferMethod method =
        remote::TransferMethod::Deposit;
    bool strideOnSource = true; ///< which side carries the stride
    /** Measured characterization, shared between option copies. */
    std::shared_ptr<const Surface> surface;
    /**
     * Cache blocking: when nonzero, this option processes the
     * transfer in blocks of at most this many bytes, so its
     * bandwidth is the surface at min(query ws, blockBytes) — the
     * Section 6.2 observation that "strided remote transfers can be
     * done faster from L3 cache if a global communication operation
     * can be blocked"; "the characterization quantifies the
     * advantage for this interesting compiler optimization."
     */
    std::uint64_t blockBytes = 0;
};

/** A communication step a compiler wants to implement. */
struct TransferQuery
{
    std::uint64_t bytes = 0;    ///< total data to move
    std::uint64_t wsBytes = 0;  ///< communication working set
    std::uint64_t stride = 1;   ///< access-pattern stride (words)
};

/** The planner's answer. */
struct Plan
{
    std::size_t optionIndex = 0;
    std::string label;
    remote::TransferMethod method =
        remote::TransferMethod::Deposit;
    bool strideOnSource = true;
    double predictedMBs = 0;
    double predictedSeconds = 0;
};

/**
 * The working set the cost model looks up for @p query: the explicit
 * communication working set when given, otherwise the transfer size
 * itself.  Shared by TransferPlanner and serve::PlannerIndex so both
 * consumers evaluate the model identically (bit-for-bit).
 */
inline double
planQueryWorkingSet(const TransferQuery &query)
{
    return query.wsBytes != 0 ? static_cast<double>(query.wsBytes)
                              : static_cast<double>(query.bytes);
}

/**
 * The working set option @p option's surface is read at for query
 * working set @p ws.  A blocked option works on cache-sized chunks:
 * its working set — and therefore its bandwidth row — is capped at
 * blockBytes.
 */
inline double
effectiveWorkingSet(const PlanOption &option, double ws)
{
    return option.blockBytes != 0 &&
                   static_cast<double>(option.blockBytes) < ws
               ? static_cast<double>(option.blockBytes)
               : ws;
}

/** Predicted time for @p query at @p mbs (0 when it moves no bytes). */
inline double
planSeconds(const TransferQuery &query, double mbs)
{
    return query.bytes > 0
               ? static_cast<double>(query.bytes) / (mbs * 1e6)
               : 0.0;
}

/**
 * The cost model over an ordered list of options — the one evaluator
 * TransferPlanner and serve::PlannerIndex share, so the two consumers
 * answer bit-for-bit alike.
 *
 * A query is located on a surface grid once, not once per option: an
 * option reuses the previous option's GridCell when its surface has
 * the same axes (checked once, in add()) and its effective working
 * set is the same.  Options swept on one characterize grid therefore
 * share a single locate; a blocked option, or one on another grid,
 * locates afresh in the same loop.
 */
class OptionEvaluator
{
  public:
    /** The winning option of best() and its predicted bandwidth. */
    struct Choice
    {
        std::size_t index = 0;
        double mbs = 0;
    };

    /** Append @p option; fatal when its surface is missing or
     *  incomplete. */
    void add(PlanOption option);

    std::size_t size() const { return _options.size(); }
    bool empty() const { return _options.empty(); }
    const PlanOption &operator[](std::size_t i) const
    {
        return _options[i];
    }

    /**
     * Call @p visit(i, mbs) with each option's predicted bandwidth at
     * query working set @p ws (planQueryWorkingSet) and @p stride, in
     * registration order.
     */
    template <class Visit>
    void
    predictEach(double ws, std::uint64_t stride, Visit &&visit) const
    {
        const double st = static_cast<double>(stride);
        GridCell cell;
        double cell_ws = 0;
        for (std::size_t i = 0; i < _options.size(); ++i) {
            const Surface &s = *_options[i].surface;
            const double eff_ws = effectiveWorkingSet(_options[i], ws);
            if (!_sameAxesAsPrev[i] || eff_ws != cell_ws) {
                cell = s.locate(eff_ws, st);
                cell_ws = eff_ws;
            }
            visit(i, s.interpolateAt(cell));
        }
    }

    /**
     * The option with the highest predicted bandwidth, ties keeping
     * the first-registered one.  Options with a nonzero entry in
     * @p skip (parallel to the options; null skips none) never win;
     * at least one option must remain.
     */
    Choice best(double ws, std::uint64_t stride,
                const char *skip = nullptr) const;

  private:
    std::vector<PlanOption> _options;
    /** Option i's surface has option i-1's axes (never option 0). */
    std::vector<char> _sameAxesAsPrev;
};

/**
 * Picks the cheapest implementation of a communication step from
 * measured characterization surfaces.
 */
class TransferPlanner
{
  public:
    TransferPlanner() = default;

    /** Register an implementation option. */
    void addOption(PlanOption option);

    /** Number of registered options. */
    std::size_t numOptions() const { return _options.size(); }

    /** Access a registered option. */
    const PlanOption &option(std::size_t i) const;

    /**
     * Choose the best option for @p query (highest predicted
     * bandwidth at the query's working set and stride), as
     * OptionEvaluator::best with the same @p skip mask.  Ties keep
     * the first-registered option.  Fatal (clear diagnostic, not UB)
     * when no options are registered, when the query moves zero
     * words (bytes and wsBytes both 0), or when stride is 0.
     */
    Plan best(const TransferQuery &query,
              const char *skip = nullptr) const;

    /**
     * Predicted bandwidth of every option at the query point, in
     * registration order.  Same fatal conditions as best().
     */
    std::vector<double> predictAll(const TransferQuery &query) const;

  private:
    OptionEvaluator _options;
};

} // namespace gasnub::core

#endif // GASNUB_CORE_PLANNER_HH
