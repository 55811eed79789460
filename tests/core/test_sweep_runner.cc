/**
 * @file
 * Determinism tests for the parallel sweep engine: a SweepRunner with
 * any worker count must produce the surface, the merged stats tree,
 * and the merged trace byte-identically to a serial Characterizer run
 * on a fresh machine.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/characterizer.hh"
#include "core/surface_io.hh"
#include "core/sweep_runner.hh"
#include "machine/machine.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::core;

CharacterizeConfig
tinyGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {4_KiB, 64_KiB, 2_MiB};
    cfg.strides = {1, 8, 64};
    cfg.capBytes = 2_MiB;
    return cfg;
}

CharacterizeConfig
tinyRemoteGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {64_KiB, 256_KiB};
    cfg.strides = {1, 2, 3};
    cfg.capBytes = 256_KiB;
    return cfg;
}

/** Every observable output of one sweep, as strings. */
struct RunOutput
{
    std::string surface;
    std::string stats;
    std::string trace;

    bool
    operator==(const RunOutput &o) const
    {
        return surface == o.surface && stats == o.stats &&
               trace == o.trace;
    }
};

/**
 * Byte-compare two outputs, reporting only the first difference.
 * (gtest's EXPECT_EQ would try to line-diff the ~50 MB trace strings
 * on failure, which is quadratic.)
 */
void
expectIdentical(const char *what, const std::string &serial,
                const std::string &parallel)
{
    if (serial == parallel)
        return;
    std::size_t i = 0;
    while (i < serial.size() && i < parallel.size() &&
           serial[i] == parallel[i])
        ++i;
    const std::size_t from = i > 40 ? i - 40 : 0;
    ADD_FAILURE() << what << " differs: " << serial.size() << " vs "
                  << parallel.size() << " bytes, first difference at "
                  << i << "\n  serial:   ..."
                  << serial.substr(from, 100) << "\n  parallel: ..."
                  << parallel.substr(from, 100);
}

void
expectIdentical(const RunOutput &serial, const RunOutput &parallel)
{
    expectIdentical("surface", serial.surface, parallel.surface);
    expectIdentical("stats", serial.stats, parallel.stats);
    expectIdentical("trace", serial.trace, parallel.trace);
}

/**
 * Run @p specs serially on a fresh machine, with full tracing into a
 * private tracer so the test never disturbs the global one.
 */
RunOutput
serialRun(machine::SystemKind kind,
          const std::vector<SweepSpec> &specs,
          const CharacterizeConfig &cfg)
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, trace::allCategories);
    machine::SystemConfig sys;
    sys.kind = kind;
    machine::Machine m(sys);
    Characterizer c(m);
    RunOutput out;
    std::ostringstream so;
    for (const SweepSpec &spec : specs)
        saveSurface(c.run(spec, cfg), so);
    out.surface = so.str();
    std::ostringstream st;
    m.statsGroup().dumpJson(st);
    out.stats = st.str();
    std::ostringstream tr;
    tracer.exportChromeJson(tr);
    out.trace = tr.str();
    return out;
}

/** Same sweeps through a SweepRunner with @p jobs workers. */
RunOutput
parallelRun(machine::SystemKind kind,
            const std::vector<SweepSpec> &specs,
            const CharacterizeConfig &cfg, int jobs)
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, trace::allCategories);
    machine::SystemConfig sys;
    sys.kind = kind;
    // The main machine exists in the parallel path too (it owns the
    // stats tree the workers merge into and registers the same trace
    // tracks a serial run would).
    machine::Machine m(sys);
    SweepRunner runner(sys, jobs);
    RunOutput out;
    std::ostringstream so;
    for (const SweepSpec &spec : specs)
        saveSurface(runner.run(spec, cfg), so);
    out.surface = so.str();
    runner.mergeStatsInto(m.statsGroup());
    std::ostringstream st;
    m.statsGroup().dumpJson(st);
    out.stats = st.str();
    std::ostringstream tr;
    tracer.exportChromeJson(tr);
    out.trace = tr.str();
    return out;
}

TEST(SweepRunner, LoadsSweepIdenticalAcrossJobCounts)
{
    const std::vector<SweepSpec> specs = {SweepSpec::localLoads(0)};
    const RunOutput serial =
        serialRun(machine::SystemKind::CrayT3E, specs, tinyGrid());
    const RunOutput one = parallelRun(machine::SystemKind::CrayT3E,
                                      specs, tinyGrid(), 1);
    const RunOutput eight = parallelRun(machine::SystemKind::CrayT3E,
                                        specs, tinyGrid(), 8);
    EXPECT_FALSE(serial.surface.empty());
    EXPECT_FALSE(serial.stats.empty());
    EXPECT_FALSE(serial.trace.empty());
    expectIdentical(serial, one);
    expectIdentical(serial, eight);
}

TEST(SweepRunner, RemoteSweepMatchesSerial)
{
    const std::vector<SweepSpec> specs = {
        SweepSpec::remote(remote::TransferMethod::Deposit, false, 0,
                          2)};
    const RunOutput serial = serialRun(machine::SystemKind::CrayT3D,
                                       specs, tinyRemoteGrid());
    const RunOutput par = parallelRun(machine::SystemKind::CrayT3D,
                                      specs, tinyRemoteGrid(), 7);
    expectIdentical(serial, par);
}

TEST(SweepRunner, TwoParallelRunsIdentical)
{
    const std::vector<SweepSpec> specs = {SweepSpec::localStores(0)};
    const RunOutput a = parallelRun(machine::SystemKind::Dec8400,
                                    specs, tinyGrid(), 8);
    const RunOutput b = parallelRun(machine::SystemKind::Dec8400,
                                    specs, tinyGrid(), 8);
    expectIdentical(a, b);
}

TEST(SweepRunner, MultiSweepStatsAccumulateLikeSerial)
{
    // A runner may execute many sweeps before the single merge; the
    // workers' machines accumulate stats across sweeps exactly like a
    // serial machine does.
    const std::vector<SweepSpec> specs = {
        SweepSpec::localLoads(0),
        SweepSpec::localCopy(kernels::CopyVariant::StridedStores, 0)};
    const RunOutput serial =
        serialRun(machine::SystemKind::CrayT3D, specs, tinyGrid());
    const RunOutput par = parallelRun(machine::SystemKind::CrayT3D,
                                      specs, tinyGrid(), 5);
    expectIdentical(serial, par);
}

TEST(SweepRunner, EverySpecKindMatchesCharacterizerRun)
{
    // Workers and the serial loop share Characterizer::measure(); the
    // merged surface (attribution rows included) must agree for every
    // kind of sweep, on a grid the Differential fixtures do not cover.
    CharacterizeConfig cfg;
    cfg.workingSets = {1_KiB, 16_KiB, 512_KiB};
    cfg.strides = {2, 5, 24};
    cfg.capBytes = 256_KiB;
    const std::vector<SweepSpec> specs = {
        SweepSpec::localLoads(0), SweepSpec::localStores(0),
        SweepSpec::localCopy(kernels::CopyVariant::StridedLoads, 0),
        SweepSpec::localCopy(kernels::CopyVariant::StridedStores, 0),
        SweepSpec::remote(remote::TransferMethod::Fetch, true, 1, 0),
        SweepSpec::remote(remote::TransferMethod::Deposit, false, 0, 2)};
    machine::SystemConfig sys;
    sys.kind = machine::SystemKind::CrayT3E;
    sys.attribution = true;

    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, 0);
    machine::Machine m(sys);
    Characterizer serial(m);
    SweepRunner one(sys, 1);
    SweepRunner four(sys, 4);
    EXPECT_EQ(four.workers(), 4);
    for (const SweepSpec &spec : specs) {
        const std::string name = sweepName(sys.kind, spec);
        std::ostringstream want;
        const Surface s = serial.run(spec, cfg);
        ASSERT_TRUE(s.hasAttribution()) << name;
        saveSurface(s, want);
        for (SweepRunner *runner : {&one, &four}) {
            std::ostringstream got;
            saveSurface(runner->run(spec, cfg), got);
            EXPECT_EQ(got.str(), want.str())
                << name << " at jobs " << runner->workers();
        }
    }
}

/**
 * Surface and stats of @p specs swept one after another through
 * core::sweep() with @p jobs, into one caller-owned machine.
 */
RunOutput
sweepCalls(machine::SystemKind kind, const std::vector<SweepSpec> &specs,
           const CharacterizeConfig &cfg, int jobs)
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, trace::allCategories);
    machine::SystemConfig sys;
    sys.kind = kind;
    machine::Machine m(sys);
    RunOutput out;
    std::ostringstream so;
    for (const SweepSpec &spec : specs)
        saveSurface(sweep(m, spec, cfg, jobs), so);
    out.surface = so.str();
    std::ostringstream st;
    m.statsGroup().dumpJson(st);
    out.stats = st.str();
    std::ostringstream tr;
    tracer.exportChromeJson(tr);
    out.trace = tr.str();
    return out;
}

TEST(Sweep, EveryJobCountMatchesASerialRun)
{
    // characterize and the figure benches call sweep() with the
    // user's --jobs; each sweep builds its own runner and merges its
    // stats into the caller's machine.
    const std::vector<SweepSpec> specs = {
        SweepSpec::localLoads(0),
        SweepSpec::localCopy(kernels::CopyVariant::StridedLoads, 0)};
    const RunOutput serial =
        serialRun(machine::SystemKind::CrayT3E, specs, tinyGrid());
    for (int jobs : {-1, 0, 1, 2, 3}) {
        SCOPED_TRACE(jobs);
        expectIdentical(serial, sweepCalls(machine::SystemKind::CrayT3E,
                                           specs, tinyGrid(), jobs));
    }
}

TEST(Sweep, RemoteSweepsAccumulateIntoTheCallerMachine)
{
    const std::vector<SweepSpec> specs = {
        SweepSpec::remote(remote::TransferMethod::Deposit, false, 0, 2),
        SweepSpec::remote(remote::TransferMethod::Fetch, true, 1, 0)};
    expectIdentical(
        serialRun(machine::SystemKind::CrayT3D, specs, tinyRemoteGrid()),
        sweepCalls(machine::SystemKind::CrayT3D, specs, tinyRemoteGrid(),
                   4));
}

TEST(Sweep, ProfilingChangesNoOutputAndCountsEveryPoint)
{
    // The profiler is the only host-time channel: it records one
    // sweep.worker zone per grid point and leaves the surface, stats
    // and trace of the sweep untouched.
    const std::vector<SweepSpec> specs = {SweepSpec::localLoads(0)};
    const RunOutput plain =
        sweepCalls(machine::SystemKind::Dec8400, specs, tinyGrid(), 2);
    prof::Profiler::enable(true);
    prof::Profiler::instance().reset();
    const RunOutput profiled =
        sweepCalls(machine::SystemKind::Dec8400, specs, tinyGrid(), 2);
    prof::Profiler::enable(false);
    expectIdentical(plain, profiled);
    std::uint64_t jobs = 0;
    for (const prof::ZoneStats &z : prof::Profiler::instance().merged())
        if (z.path == "sweep.worker")
            jobs = z.calls;
    EXPECT_EQ(jobs, tinyGrid().workingSets.size() *
                        tinyGrid().strides.size());
}

} // namespace
