/**
 * @file
 * Shared command-line helpers for the tools and the figure benches:
 * value parsing and the --trace-out / --stats-json writers.  A
 * malformed numeric flag must fail loudly: "1e6", "4x", "-1" or an
 * out-of-range count never silently becomes some other number.
 */

#ifndef GASNUB_TOOLS_CLI_UTIL_HH
#define GASNUB_TOOLS_CLI_UTIL_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace gasnub::toolcli {

/**
 * Parse @p val, the value of option @p opt, as a decimal integer in
 * [@p lo, @p hi].  Anything else — empty, trailing characters, an
 * exponent, or a value out of range — prints
 * "<tool>: bad value '<val>' for <opt> (expected an integer from lo
 * to hi)" on stderr and exits with status 2.
 */
inline std::int64_t
parseIntOpt(const char *tool, const std::string &opt,
            const std::string &val, std::int64_t lo, std::int64_t hi)
{
    std::int64_t v = 0;
    const char *first = val.data();
    const char *last = first + val.size();
    const auto [end, ec] = std::from_chars(first, last, v);
    if (val.empty() || ec != std::errc() || end != last || v < lo ||
        v > hi) {
        std::cerr << tool << ": bad value '" << val << "' for " << opt
                  << " (expected an integer from " << lo << " to " << hi
                  << ")\n";
        std::exit(2);
    }
    return v;
}

/**
 * --trace-out: write the calling thread's trace to @p path (CSV when
 * it ends in .csv, Chrome trace JSON otherwise) and note the event
 * count, and any dropped events, on stderr.
 */
inline void
writeTrace(const std::string &path)
{
    const trace::Tracer &tracer = trace::Tracer::instance();
    std::ofstream os(path);
    if (!os)
        GASNUB_FATAL("cannot open ", path);
    if (path.size() > 4 &&
        path.compare(path.size() - 4, 4, ".csv") == 0)
        tracer.exportCsv(os);
    else
        tracer.exportChromeJson(os);
    std::cerr << "trace: " << tracer.size() << " events to " << path;
    if (tracer.dropped())
        std::cerr << " (" << tracer.dropped() << " dropped)";
    std::cerr << "\n";
}

/** --stats-json: dump the stats tree @p root as JSON to @p path. */
inline void
writeStatsJson(const stats::Group &root, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        GASNUB_FATAL("cannot open ", path);
    root.dumpJson(os);
    os << "\n";
    std::cerr << "stats: " << path << "\n";
}

} // namespace gasnub::toolcli

#endif // GASNUB_TOOLS_CLI_UTIL_HH
