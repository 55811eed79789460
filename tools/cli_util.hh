/**
 * @file
 * Shared command-line value parsing for the tools.  A malformed
 * numeric flag must fail loudly: "1e6", "4x", "-1" or an out-of-range
 * count never silently becomes some other number.
 */

#ifndef GASNUB_TOOLS_CLI_UTIL_HH
#define GASNUB_TOOLS_CLI_UTIL_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

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

} // namespace gasnub::toolcli

#endif // GASNUB_TOOLS_CLI_UTIL_HH
