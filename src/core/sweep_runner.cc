#include "core/sweep_runner.hh"

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace gasnub::core {

struct SweepRunner::Worker
{
    /** Installed as the thread's tracer while this worker simulates. */
    trace::Tracer tracer;
    std::unique_ptr<machine::Machine> machine;
    std::unique_ptr<Characterizer> chr;
};

SweepRunner::SweepRunner(machine::SystemConfig cfg, int jobs)
    : _config(std::move(cfg)), _pool(jobs)
{
    // A serial run interns the characterizer's trace track at
    // Characterizer construction — before any lazily-created component
    // track (e.g. the T3D engine's capture queue, first deposit).  The
    // merge replay would otherwise intern it after them, reordering
    // the track metadata in the exported trace.
    trace::Tracer::instance().track(characterizerTrackName);
    _workers.reserve(_pool.workers());
    for (int i = 0; i < _pool.workers(); ++i)
        _workers.push_back(std::make_unique<Worker>());
}

SweepRunner::~SweepRunner() = default;

Surface
SweepRunner::run(const SweepSpec &spec, const CharacterizeConfig &cfg)
{
    std::vector<std::uint64_t> ws, strides;
    resolveGrid(cfg, ws, strides);
    const std::size_t cols = strides.size();

    // The caller's tracer and mask: workers trace with the same mask
    // into private buffers, and the merge below replays their events
    // here in grid order.
    trace::Tracer &global = trace::Tracer::instance();
    const std::uint32_t mask = global.mask();
    const std::size_t capacity = global.capacity();

    struct PointResult
    {
        SweepPoint point;
        int worker = -1;
        std::vector<trace::Event> events;
    };
    std::vector<PointResult> results(ws.size() * cols);

    _pool.parallelFor(results.size(), [&](int w, std::size_t j) {
        Worker &ctx = *_workers[w];
        GASNUB_PROF_ZONE("sweep.worker");
        // Route Tracer::instance() (machine construction registers
        // tracks; kernels record events) to this worker's buffer.
        trace::ScopedThreadTracer scoped(ctx.tracer, mask);
        if (!ctx.machine) {
            GASNUB_PROF_ZONE("build-replica");
            ctx.tracer.setCapacity(capacity);
            ctx.machine = machine::makeMachine(_config);
            ctx.chr = std::make_unique<Characterizer>(*ctx.machine);
        }
        ctx.tracer.clear();
        PointResult &res = results[j];
        res.point = ctx.chr->measure(spec, ws[j / cols],
                                     strides[j % cols], cfg.capBytes);
        res.worker = w;
        if (mask != 0)
            res.events = ctx.tracer.events();
    });

    GASNUB_PROF_ZONE("sweep.merge");
    // Deterministic merge: fill the surface and replay trace events in
    // grid order, exactly the order a serial sweep produces them.
    // Track ids are worker-local, so remap by name; record() re-applies
    // the global capacity bound.  Every replica registers the identical
    // attribution resource list (see Machine's attribution block), so
    // any worker's characterizer shapes the surface.
    Surface s = _workers[results.front().worker]->chr->surface(
        spec, ws, strides);
    for (std::size_t j = 0; j < results.size(); ++j) {
        const PointResult &res = results[j];
        setPoint(s, ws[j / cols], strides[j % cols], res.point);
        if (res.events.empty())
            continue;
        const trace::Tracer &wt = _workers[res.worker]->tracer;
        for (const trace::Event &e : res.events) {
            global.record(e.cat, global.track(wt.trackName(e.track)),
                          e.name, e.start, e.start + e.dur, e.key0,
                          e.val0, e.key1, e.val1);
        }
    }
    return s;
}

void
SweepRunner::mergeStatsInto(stats::Group &target)
{
    for (const auto &w : _workers)
        if (w->machine)
            target.mergeFrom(w->machine->statsGroup());
}

Surface
sweep(machine::Machine &m, const SweepSpec &spec,
      const CharacterizeConfig &cfg, int jobs)
{
    if (jobs <= 1) {
        Characterizer c(m);
        return c.run(spec, cfg);
    }
    SweepRunner runner(m.systemConfig(), jobs);
    Surface s = runner.run(spec, cfg);
    runner.mergeStatsInto(m.statsGroup());
    return s;
}

} // namespace gasnub::core
