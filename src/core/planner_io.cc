#include "core/planner_io.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/surface_io.hh"
#include "sim/logging.hh"

namespace gasnub::core {

namespace fs = std::filesystem;

std::optional<PlanOptionKind>
findPlanOptionKind(const std::string &stem)
{
    using remote::TransferMethod;
    if (stem == "pull")
        return PlanOptionKind{TransferMethod::CoherentPull, true};
    if (stem == "fetch-sload")
        return PlanOptionKind{TransferMethod::Fetch, true};
    if (stem == "fetch-sstore")
        return PlanOptionKind{TransferMethod::Fetch, false};
    if (stem == "deposit-sload")
        return PlanOptionKind{TransferMethod::Deposit, true};
    if (stem == "deposit-sstore")
        return PlanOptionKind{TransferMethod::Deposit, false};
    return std::nullopt;
}

PlanOptionKind
planOptionKind(const std::string &stem, const std::string &context)
{
    if (const auto kind = findPlanOptionKind(stem))
        return *kind;
    // Name the offending file when decoding a directory manifest, so
    // the user knows which file to rename — matching the surface
    // loader's file/line diagnostics.
    const std::string in =
        context.empty() ? std::string() : " in '" + context + "'";
    GASNUB_FATAL("unknown plan option name '", stem, "'", in,
                 "; expected pull, fetch-sload, fetch-sstore, "
                 "deposit-sload or deposit-sstore");
}

void
validatePlannerSurface(const Surface &surface,
                       const std::string &path)
{
    // In the fixed *.surface format the header is exactly five lines
    // (magic, name, workingsets, strides, "data"), so the data row of
    // working-set index i sits on line 6 + i; columns follow the
    // stride order.
    const auto &ws = surface.workingSets();
    const auto &strides = surface.strides();
    for (std::size_t i = 0; i < ws.size(); ++i) {
        for (std::size_t j = 0; j < strides.size(); ++j) {
            const double v = surface.at(ws[i], strides[j]);
            const char *bad = nullptr;
            if (std::isnan(v))
                bad = "NaN";
            else if (std::isinf(v))
                bad = "infinite";
            else if (v < 0)
                bad = "negative";
            else if (v == 0)
                bad = "zero";
            if (bad)
                GASNUB_FATAL(
                    "surface file '", path, "', line ", 6 + i,
                    ", column ", j + 1, " (working set ", ws[i],
                    ", stride ", strides[j], "): ", bad,
                    " bandwidth ", v,
                    "; the planner divides by this value, refusing "
                    "to load");
        }
    }
}

std::vector<PlanOption>
loadPlanOptionsDir(const std::string &dir)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        GASNUB_FATAL("surface directory '", dir,
                     "' does not exist or is not a directory");

    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".surface")
            files.push_back(entry.path());
    }
    if (files.empty())
        GASNUB_FATAL("no *.surface files in '", dir,
                     "'; run tools/characterize with --out to "
                     "export them");
    std::sort(files.begin(), files.end());

    std::vector<PlanOption> options;
    options.reserve(files.size());
    for (const fs::path &path : files) {
        const std::string stem = path.stem().string();
        const PlanOptionKind kind =
            planOptionKind(stem, path.string());
        Surface s = loadSurfaceFile(path.string());
        validatePlannerSurface(s, path.string());
        options.push_back(PlanOption{stem, kind.method,
                                     kind.strideOnSource, std::move(s),
                                     0});
    }
    return options;
}

TransferPlanner
loadPlannerDir(const std::string &dir)
{
    TransferPlanner planner;
    for (PlanOption &o : loadPlanOptionsDir(dir))
        planner.addOption(std::move(o));
    return planner;
}

} // namespace gasnub::core
