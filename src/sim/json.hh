/**
 * @file
 * The one JSON writer for every telemetry channel (stats, time
 * accounts, traces, profiles, live metrics, and the tools' reports).
 *
 * Values are streamed, not built: `os << json::quoted(name)` writes a
 * string literal with every quote, backslash and control byte
 * escaped, and `os << json::number(v)` writes a double the way the
 * stats tree always has — integers without a fraction, other values
 * with round-trip precision, NaN/inf as null.
 */

#ifndef GASNUB_SIM_JSON_HH
#define GASNUB_SIM_JSON_HH

#include <iosfwd>
#include <string_view>

namespace gasnub::json {

/** A string to be written as a quoted, escaped JSON literal. */
struct Quoted
{
    std::string_view text;
};

/** A double to be written as a JSON number. */
struct Number
{
    double value;
};

inline Quoted quoted(std::string_view s) { return Quoted{s}; }
inline Number number(double v) { return Number{v}; }

std::ostream &operator<<(std::ostream &os, Quoted q);
std::ostream &operator<<(std::ostream &os, Number n);

} // namespace gasnub::json

#endif // GASNUB_SIM_JSON_HH
