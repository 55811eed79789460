#include "core/planner.hh"

#include <algorithm>
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
    _strikes.push_back(0);
    _demoted.push_back(0);
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
TransferPlanner::best(const TransferQuery &query) const
{
    validateQuery(_options, query);
    // Demotions only apply while a healthy option remains; a fully
    // demoted planner behaves like an undemoted one rather than
    // stranding the transfer.
    const bool honor_demotions = numDemoted() < _options.size();
    const OptionEvaluator::Choice c =
        _options.best(planQueryWorkingSet(query), query.stride,
                      honor_demotions ? _demoted.data() : nullptr);
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

void
TransferPlanner::setDegradePolicy(const DegradePolicy &policy)
{
    GASNUB_ASSERT(policy.minRatio > 0 && policy.minRatio <= 1,
                  "degrade minRatio must be in (0, 1]");
    GASNUB_ASSERT(policy.strikes >= 1, "degrade strikes must be >= 1");
    _degrade = policy;
}

bool
TransferPlanner::observe(std::size_t i, const TransferQuery &query,
                         double achievedMBs)
{
    GASNUB_ASSERT(i < _options.size(), "bad option index ", i);
    const std::vector<double> mbs = predictAll(query);
    const double predicted = mbs[i];
    if (predicted <= 0)
        return false;
    if (achievedMBs >= _degrade.minRatio * predicted) {
        _strikes[i] = 0;
        return false;
    }
    if (_demoted[i])
        return false;
    if (++_strikes[i] < _degrade.strikes)
        return false;
    _demoted[i] = 1;
    GASNUB_WARN("planner option '", _options[i].label,
                "' demoted: delivered ", achievedMBs,
                " MB/s for ", _strikes[i],
                " consecutive transfers against a predicted ",
                predicted, " MB/s");
    return true;
}

void
TransferPlanner::demote(std::size_t i)
{
    GASNUB_ASSERT(i < _options.size(), "bad option index ", i);
    _demoted[i] = 1;
}

void
TransferPlanner::restore(std::size_t i)
{
    GASNUB_ASSERT(i < _options.size(), "bad option index ", i);
    _demoted[i] = 0;
    _strikes[i] = 0;
}

void
TransferPlanner::restoreAll()
{
    std::fill(_demoted.begin(), _demoted.end(), 0);
    std::fill(_strikes.begin(), _strikes.end(), 0);
}

bool
TransferPlanner::demoted(std::size_t i) const
{
    GASNUB_ASSERT(i < _options.size(), "bad option index ", i);
    return _demoted[i] != 0;
}

std::size_t
TransferPlanner::numDemoted() const
{
    std::size_t n = 0;
    for (const char d : _demoted)
        n += d != 0;
    return n;
}

} // namespace gasnub::core
