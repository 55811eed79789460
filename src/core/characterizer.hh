/**
 * @file
 * The characterizer: runs the micro-benchmark suite over the
 * (working set x stride) grid of the paper and produces
 * characterization surfaces — the empirical cost model that "allows
 * the compiler writer, the compiler or the runtime-system to pick the
 * least expensive way to move data in the system" (Section 2.1).
 */

#ifndef GASNUB_CORE_CHARACTERIZER_HH
#define GASNUB_CORE_CHARACTERIZER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/surface.hh"
#include "kernels/kernels.hh"
#include "kernels/remote_kernels.hh"
#include "machine/machine.hh"
#include "remote/remote_ops.hh"
#include "sim/time_account.hh"
#include "sim/trace.hh"

namespace gasnub::core {

/** Grid and simulation parameters of a characterization run. */
struct CharacterizeConfig
{
    /** Working-set grid; empty = the paper's 0.5 KB .. max grid. */
    std::vector<std::uint64_t> workingSets;
    /** Stride grid; empty = the paper's 1..192 selection. */
    std::vector<std::uint64_t> strides;
    /** Largest working set for the default grid. */
    std::uint64_t maxWorkingSet = 8ull << 20;
    /** Simulation cap per grid point (0 = auto from cache sizes). */
    std::uint64_t capBytes = 0;
};

/** The paper's stride axis: 1..8, 12, 15, 16, 24, 31, 32, ... 192. */
std::vector<std::uint64_t> paperStrides();

/** The paper's working-set axis from 0.5 KB up to @p max_bytes. */
std::vector<std::uint64_t> paperWorkingSets(std::uint64_t max_bytes);

/**
 * Resolve the (working set, stride) axes of @p cfg, substituting the
 * paper's default grids for empty axes.  Exposed so parallel drivers
 * can partition the exact grid a serial run would sweep.
 */
void resolveGrid(const CharacterizeConfig &cfg,
                 std::vector<std::uint64_t> &ws,
                 std::vector<std::uint64_t> &strides);

/**
 * Names one characterization sweep — which kernel family, on which
 * node(s), with which variant or transfer method — independent of the
 * grid.  A (SweepSpec, CharacterizeConfig) pair fully determines a
 * Surface, which lets serial (Characterizer::run) and parallel
 * (SweepRunner) drivers execute the same measurement.
 */
struct SweepSpec
{
    enum class Kind { LocalLoads, LocalStores, LocalCopy, Remote };

    Kind kind = Kind::LocalLoads;
    /** Measuring node of the local sweeps. */
    NodeId node = 0;
    /** Copy direction (LocalCopy only). */
    kernels::CopyVariant variant = kernels::CopyVariant::StridedLoads;
    /** Transfer method (Remote only). */
    remote::TransferMethod method = remote::TransferMethod::Fetch;
    bool strideOnSource = true; ///< Remote: strided loads vs stores
    NodeId src = 1;             ///< Remote: producer node
    NodeId dst = 0;             ///< Remote: consumer node

    static SweepSpec localLoads(NodeId node = 0);
    static SweepSpec localStores(NodeId node = 0);
    static SweepSpec localCopy(kernels::CopyVariant variant,
                               NodeId node = 0);
    static SweepSpec remote(remote::TransferMethod method,
                            bool stride_on_source, NodeId src = 1,
                            NodeId dst = 0);

    /**
     * Decode a benchmark name of tools/characterize on a machine of
     * kind @p kind: loads, stores, copy-sload, copy-sstore, or one of
     * the five remote option names of core::planOptionKind.  Local
     * sweeps measure node 0; remote ones move data 0 -> 2 on the T3D
     * (distinct network nodes, as the paper's p0,1 -> p2,3) and
     * 1 -> 0 elsewhere.  Nothing when @p name is none of these.
     */
    static std::optional<SweepSpec> fromName(machine::SystemKind kind,
                                             const std::string &name);
};

/** Surface name of sweep @p spec on a machine of kind @p kind. */
std::string sweepName(machine::SystemKind kind, const SweepSpec &spec);

/**
 * Trace-track name of the characterizer's per-grid-point events.
 * Registered at Characterizer construction; SweepRunner registers it
 * too so serial and parallel runs intern tracks in the same order.
 */
inline constexpr const char *characterizerTrackName = "characterizer";

/**
 * One measured grid point: the kernel result plus, when the machine
 * keeps an attribution ledger, the point's per-resource attribution
 * (empty otherwise).
 */
struct SweepPoint
{
    kernels::KernelResult result;
    sim::TimeAccount::PointAttribution attribution;
};

/**
 * Benchmark driver producing surfaces for one machine: Load-Sum
 * (Figures 1, 3, 6), Store-Constant, Load/Store Copy (Figures 9-11)
 * and the remote transfers (Figures 2, 4, 5, 7, 8 and the 65 MB slices
 * of Figures 12-14).
 */
class Characterizer
{
  public:
    /** @param m Machine under test (not owned). */
    explicit Characterizer(machine::Machine &m);

    /** Run the sweep described by @p spec over the grid of @p cfg. */
    Surface run(const SweepSpec &spec, const CharacterizeConfig &cfg);

    /**
     * Measure one grid point of @p spec: the only per-point
     * measurement, shared by run() and SweepRunner's workers.  Runs
     * the kernel under the `sweep.<kind>` / `point` profile zones,
     * arms and finishes the attribution ledger, records the point's
     * trace event.
     */
    SweepPoint measure(const SweepSpec &spec, std::uint64_t ws_bytes,
                       std::uint64_t stride, std::uint64_t cap_bytes);

    /**
     * The empty surface of @p spec over the given axes, with
     * attribution enabled when the machine keeps a ledger.
     */
    Surface surface(const SweepSpec &spec,
                    const std::vector<std::uint64_t> &ws,
                    const std::vector<std::uint64_t> &strides);

    machine::Machine &machine() { return _machine; }

  private:
    machine::Machine &_machine;
    trace::TrackId _traceTrack;
};

/** Store measured point @p p at (@p ws_bytes, @p stride) of @p s. */
void setPoint(Surface &s, std::uint64_t ws_bytes, std::uint64_t stride,
              const SweepPoint &p);

} // namespace gasnub::core

#endif // GASNUB_CORE_CHARACTERIZER_HH
