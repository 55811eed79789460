#include "serve/planner_index.hh"

#include <utility>

#include "sim/logging.hh"

namespace gasnub::serve {

PlannerIndex::PlannerIndex(std::vector<MachinePack> packs)
{
    GASNUB_ASSERT(!packs.empty(),
                  "a planner index needs at least one pack");
    _machines.reserve(packs.size());
    for (MachinePack &p : packs) {
        GASNUB_ASSERT(!p.machine.empty(), "pack has no machine name");
        if (machineId(p.machine) >= 0)
            GASNUB_FATAL("duplicate machine '", p.machine,
                         "' in planner index; each machine must come "
                         "from exactly one pack");
        GASNUB_ASSERT(!p.options.empty(), "machine '", p.machine,
                      "' has no planner options");
        Machine m{std::move(p.machine), {}};
        for (core::PlanOption &o : p.options)
            m.options.add(std::move(o));
        _machines.push_back(std::move(m));
    }
}

PlannerIndex
PlannerIndex::fromPackFiles(const std::vector<std::string> &paths)
{
    std::vector<MachinePack> packs;
    packs.reserve(paths.size());
    for (const std::string &path : paths)
        packs.push_back(loadPackFile(path));
    return PlannerIndex(std::move(packs));
}

int
PlannerIndex::machineId(std::string_view name) const
{
    for (std::size_t i = 0; i < _machines.size(); ++i)
        if (_machines[i].name == name)
            return static_cast<int>(i);
    return -1;
}

const core::PlanOption &
PlannerIndex::option(std::size_t machine_id, std::size_t i) const
{
    GASNUB_ASSERT(machine_id < _machines.size(), "bad machine id ",
                  machine_id);
    GASNUB_ASSERT(i < _machines[machine_id].options.size(),
                  "bad option index ", i);
    return _machines[machine_id].options[i];
}

namespace {

/** The planner's fatal preconditions, with the serving context. */
void
validateQuery(std::size_t machine_id, std::size_t num_machines,
              const core::TransferQuery &query)
{
    if (machine_id >= num_machines)
        GASNUB_FATAL("plan query names machine id ", machine_id,
                     " but the index serves ", num_machines,
                     " machine(s)");
    if (query.bytes == 0 && query.wsBytes == 0)
        GASNUB_FATAL("plan query moves zero words: both bytes and "
                     "wsBytes are 0, so there is no working set to "
                     "look up");
    if (query.stride == 0)
        GASNUB_FATAL("plan query has stride 0; strides are in words "
                     "and start at 1 (contiguous)");
}

} // namespace

PlanAnswer
PlannerIndex::plan(std::size_t machine_id,
                   const core::TransferQuery &query) const
{
    validateQuery(machine_id, _machines.size(), query);
    // The same evaluator and selection rule as TransferPlanner::best,
    // so the two consumers never disagree.
    const core::OptionEvaluator &options = _machines[machine_id].options;
    const core::OptionEvaluator::Choice c = options.best(
        core::planQueryWorkingSet(query), query.stride);
    const core::PlanOption &o = options[c.index];
    PlanAnswer a;
    a.machine = static_cast<std::uint32_t>(machine_id);
    a.optionIndex = static_cast<std::uint32_t>(c.index);
    a.method = o.method;
    a.strideOnSource = o.strideOnSource;
    a.predictedMBs = c.mbs;
    a.predictedSeconds = core::planSeconds(query, c.mbs);
    a.label = o.label;
    return a;
}

core::Plan
PlannerIndex::planFull(std::size_t machine_id,
                       const core::TransferQuery &query) const
{
    const PlanAnswer a = plan(machine_id, query);
    core::Plan p;
    p.optionIndex = a.optionIndex;
    p.label = std::string(a.label);
    p.method = a.method;
    p.strideOnSource = a.strideOnSource;
    p.predictedMBs = a.predictedMBs;
    p.predictedSeconds = a.predictedSeconds;
    return p;
}

void
PlannerIndex::predictAll(std::size_t machine_id,
                         const core::TransferQuery &query,
                         std::vector<double> &out) const
{
    validateQuery(machine_id, _machines.size(), query);
    const core::OptionEvaluator &options = _machines[machine_id].options;
    out.clear();
    out.reserve(options.size());
    options.predictEach(core::planQueryWorkingSet(query), query.stride,
                        [&](std::size_t, double mbs) {
                            out.push_back(mbs);
                        });
}

} // namespace gasnub::serve
