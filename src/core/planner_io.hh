/**
 * @file
 * Building a TransferPlanner from saved surfaces on disk.
 *
 * The measure-once / decide-often split of the paper becomes a file
 * convention: `tools/characterize <machine> <benchmark> --out DIR/`
 * writes one `<benchmark>.surface` file per implementation option,
 * and loadPlannerDir() turns such a directory back into the cost
 * model the runtime consults on every communication step.  The file
 * *stem* names the option and determines its transfer method and
 * which side carries the stride:
 *
 *   pull.surface            coherent pull       (strided loads)
 *   fetch-sload.surface     fetch, gather side  (strided loads)
 *   fetch-sstore.surface    fetch, scatter side (strided stores)
 *   deposit-sload.surface   deposit, gather side
 *   deposit-sstore.surface  deposit, scatter side
 *
 * These are exactly the remote benchmark names of tools/characterize,
 * so the CLI output plugs straight into the planner.
 */

#ifndef GASNUB_CORE_PLANNER_IO_HH
#define GASNUB_CORE_PLANNER_IO_HH

#include <optional>
#include <string>
#include <vector>

#include "core/planner.hh"
#include "remote/remote_ops.hh"

namespace gasnub::core {

/** Method + stride side encoded by an option file stem. */
struct PlanOptionKind
{
    remote::TransferMethod method = remote::TransferMethod::Fetch;
    bool strideOnSource = true;
};

/**
 * Decode an option name ("pull", "fetch-sload", ...; see file
 * comment), or nothing when @p stem is not one of them.
 */
std::optional<PlanOptionKind> findPlanOptionKind(const std::string &stem);

/**
 * findPlanOptionKind(), fatal with the list of valid names when
 * @p stem is not one of them; when @p context is non-empty (e.g.\ the
 * file path the stem came from) the diagnostic names it, so directory
 * loads point at the offending file.
 */
PlanOptionKind planOptionKind(const std::string &stem,
                              const std::string &context = "");

/**
 * Validate a surface destined for the planner: every bandwidth entry
 * must be finite and strictly positive, because the planner divides
 * by these values to predict transfer times.  Fatal on violation,
 * naming @p path and the 1-based line and column of the offending
 * entry in the `*.surface` file format.
 */
void validatePlannerSurface(const Surface &surface,
                            const std::string &path);

/**
 * Load every `*.surface` file in directory @p dir as one PlanOption
 * whose label, method and stride side derive from the file stem.
 * Files are loaded in sorted name order, so the planner's
 * registration order (and therefore its tie-breaking) is independent
 * of directory enumeration order.  Other files are ignored.  Fatal —
 * naming the offending path — on a missing directory, on a directory
 * with no `*.surface` files, on an unknown option stem, on a
 * malformed surface file, and (via validatePlannerSurface) on NaN,
 * negative, or zero bandwidth entries.
 */
std::vector<PlanOption> loadPlanOptionsDir(const std::string &dir);

/** Convenience: loadPlanOptionsDir() registered into a planner. */
TransferPlanner loadPlannerDir(const std::string &dir);

} // namespace gasnub::core

#endif // GASNUB_CORE_PLANNER_IO_HH
