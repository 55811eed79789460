#include "sim/json.hh"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

namespace gasnub::json {

std::ostream &
operator<<(std::ostream &os, Quoted q)
{
    os << '"';
    for (const char c : q.text) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char hex[] = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    return os << '"';
}

/**
 * Integral values (the common case for counters) print without a
 * fraction; everything else with round-trip precision.  NaN/inf
 * (possible in formulas) become null, which JSON requires.
 */
std::ostream &
operator<<(std::ostream &os, Number n)
{
    const double v = n.value;
    if (!std::isfinite(v))
        return os << "null";
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        return os << static_cast<long long>(v);
    const auto flags = os.flags();
    const auto prec = os.precision();
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    os.flags(flags);
    os.precision(prec);
    return os;
}

} // namespace gasnub::json
