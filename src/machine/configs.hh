/**
 * @file
 * Calibrated configurations of the three machines the paper measures
 * (Section 3): the DEC 8400 (AlphaServer 8400, 300 MHz 21164 EV-5),
 * the Cray T3D (150 MHz 21064 EV-4) and the Cray T3E (300 MHz 21164).
 *
 * Cache geometries, clock rates, and policies come straight from the
 * paper's hardware description; latency/occupancy parameters are
 * calibrated so the simulated micro-benchmarks land on the measured
 * plateaus of Figures 1-14 (see EXPERIMENTS.md for paper-vs-model).
 */

#ifndef GASNUB_MACHINE_CONFIGS_HH
#define GASNUB_MACHINE_CONFIGS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mem/hierarchy.hh"

namespace gasnub::machine {

class Machine;

/** The three systems evaluated in the paper. */
enum class SystemKind { Dec8400, CrayT3D, CrayT3E };

/** Human-readable name of a system. */
std::string systemName(SystemKind kind);

/**
 * Node-local memory system of the DEC 8400.
 *
 * 300 MHz 21164: 8 KB direct-mapped write-through L1 (32 B lines),
 * 96 KB 3-way write-back unified L2 (64 B lines), 4 MB board-level
 * write-back L3 of 10 ns SRAM, and bus-attached interleaved DRAM with
 * "modest stream support for large contiguous transfers".
 *
 * @param name Stat-name prefix for this node.
 */
mem::HierarchyConfig dec8400Node(const std::string &name = "dec8400");

/**
 * Node-local memory system of the Cray T3D.
 *
 * 150 MHz 21064: 8 KB direct-mapped write-through read-allocate L1
 * only (32 B lines), a coalescing write-back queue (32-byte entities),
 * external read-ahead logic for contiguous loads, and fast page-mode
 * local DRAM.
 *
 * @param name Stat-name prefix for this node.
 */
mem::HierarchyConfig crayT3dNode(const std::string &name = "t3d");

/**
 * Node-local memory system of the Cray T3E.
 *
 * 300 MHz 21164 (same on-chip L1/L2 as the DEC 8400 node), no L3, six
 * hardware stream buffers feeding DRAM at high contiguous bandwidth.
 *
 * @param name Stat-name prefix for this node.
 */
mem::HierarchyConfig crayT3eNode(const std::string &name = "t3e");

/** Node configuration by system kind. */
mem::HierarchyConfig nodeConfig(SystemKind kind,
                                const std::string &name);

/**
 * A complete, value-semantic recipe for building a Machine.
 *
 * Machine instances themselves are stateful simulators and cannot be
 * copied; a SystemConfig can, so independent replicas — one per
 * parallel sweep worker, for example — are built by handing the same
 * config to makeMachine().  A default-constructed node field means
 * "the calibrated nodeConfig() of @a kind".
 */
struct SystemConfig
{
    SystemKind kind = SystemKind::Dec8400;
    int numNodes = 4; ///< the paper's configurations use 4 processors
    /** Node memory system override; nullopt = nodeConfig(kind, "node"). */
    std::optional<mem::HierarchyConfig> node;
    /**
     * Build the per-resource time-accounting ledger
     * (sim::TimeAccount) and wire every timed component to it.  Off
     * by default: without it no component holds an account pointer,
     * so the hot paths pay nothing and simulated timing is identical
     * either way (accounting only observes, never schedules).
     */
    bool attribution = false;
};

/**
 * Build a fresh Machine from @p cfg.  Every call returns a fully
 * independent instance (own nodes, interconnect, engines, stats); two
 * machines built from the same config never share mutable state.
 */
std::unique_ptr<Machine> makeMachine(const SystemConfig &cfg);

} // namespace gasnub::machine

#endif // GASNUB_MACHINE_CONFIGS_HH
