#include "core/planner.hh"

#include <utility>

#include "sim/logging.hh"

namespace gasnub::core {

void
OptionEvaluator::add(PlanOption option)
{
    GASNUB_ASSERT(option.surface, "option '", option.label,
                  "' has no surface");
    GASNUB_ASSERT(option.surface->complete(),
                  "option '", option.label,
                  "' has an incomplete surface");
    _sameAxesAsPrev.push_back(
        !_options.empty() &&
        option.surface->sameAxes(*_options.back().surface));
    _options.push_back(std::move(option));
}

OptionEvaluator::Choice
OptionEvaluator::best(double ws, std::uint64_t stride,
                      const char *skip) const
{
    // Strict > keeps the first-registered option on ties, so the
    // winner is independent of how many equal options follow it.
    Choice best{_options.size(), 0};
    predictEach(ws, stride, [&](std::size_t i, double mbs) {
        if (skip && skip[i])
            return;
        if (best.index == _options.size() || mbs > best.mbs)
            best = {i, mbs};
    });
    GASNUB_ASSERT(best.index < _options.size(),
                  "every planner option is skipped");
    return best;
}

void
TransferPlanner::addOption(PlanOption option)
{
    _options.add(std::move(option));
}

const PlanOption &
TransferPlanner::option(std::size_t i) const
{
    GASNUB_ASSERT(i < _options.size(), "bad option index ", i);
    return _options[i];
}

namespace {

/** The planner's fatal preconditions on a query. */
void
validateQuery(const OptionEvaluator &options,
              const TransferQuery &query)
{
    if (options.empty())
        GASNUB_FATAL("transfer planner has no registered options; "
                     "addOption() a characterization surface (or "
                     "loadPlannerDir()) before planning");
    if (query.bytes == 0 && query.wsBytes == 0)
        GASNUB_FATAL("transfer planner query moves zero words: both "
                     "bytes and wsBytes are 0, so there is no working "
                     "set to look up");
    if (query.stride == 0)
        GASNUB_FATAL("transfer planner query has stride 0; strides "
                     "are in words and start at 1 (contiguous)");
}

} // namespace

std::vector<double>
TransferPlanner::predictAll(const TransferQuery &query) const
{
    validateQuery(_options, query);
    std::vector<double> out;
    out.reserve(_options.size());
    _options.predictEach(planQueryWorkingSet(query), query.stride,
                         [&](std::size_t, double mbs) {
                             out.push_back(mbs);
                         });
    return out;
}

Plan
TransferPlanner::best(const TransferQuery &query,
                      const char *skip) const
{
    validateQuery(_options, query);
    const OptionEvaluator::Choice c = _options.best(
        planQueryWorkingSet(query), query.stride, skip);
    const PlanOption &o = _options[c.index];
    Plan p;
    p.optionIndex = c.index;
    p.label = o.label;
    p.method = o.method;
    p.strideOnSource = o.strideOnSource;
    p.predictedMBs = c.mbs;
    p.predictedSeconds = planSeconds(query, c.mbs);
    return p;
}

} // namespace gasnub::core
