/**
 * @file
 * serve's JSON wire codec: one query line in, one answer line out,
 * with no tree, and no allocation unless a string holds escapes
 * (docs/planner_service.md, "The JSON wire codec").
 *
 * decodeQuery() walks the line's members with
 * tooljson::JsonParser::members(); encodeAnswer() formats the answer
 * with std::to_chars, which prints a double exactly as printf's
 * "%.17g" does, around names and labels escaped once at load
 * (WireNames).  Both keep serve's wire bytes and diagnostics as
 * they were when the line went through a parse() tree and snprintf.
 */

#ifndef GASNUB_TOOLS_SERVE_JSON_HH
#define GASNUB_TOOLS_SERVE_JSON_HH

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hh"
#include "json_util.hh"
#include "serve/planner_index.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace gasnub::servejson {

/**
 * The lines of a file descriptor, read in blocks and split with
 * memchr.  A read() takes what the pipe holds and is made only when
 * no whole line is buffered, so the reader never waits past the
 * current line: a client may wait for its answers before it sends
 * more.  Lines end in '\n', which is dropped; the last line needs
 * none.  A line longer than the buffer grows it.
 */
class LineReader
{
  public:
    explicit LineReader(int fd, std::size_t block = std::size_t{1} << 16)
        : _fd(fd), _buf(block)
    {
    }

    /** The next line, valid until the next call; false at the end
     *  of input (or a read error). */
    bool
    next(std::string_view &line)
    {
        for (;;) {
            const char *begin = _buf.data() + _begin;
            const std::size_t held = _end - _begin;
            if (const void *nl = std::memchr(begin + _scanned, '\n',
                                             held - _scanned)) {
                const char *end = static_cast<const char *>(nl);
                line = std::string_view(begin, end - begin);
                _begin += line.size() + 1;
                _scanned = 0;
                return true;
            }
            _scanned = held;
            if (_eof) {
                if (held == 0)
                    return false;
                line = std::string_view(begin, held);
                _begin = _end;
                _scanned = 0;
                return true;
            }
            fill();
        }
    }

  private:
    /** Move the partial line to the front and read more after it. */
    void
    fill()
    {
        if (_begin > 0) {
            std::memmove(_buf.data(), _buf.data() + _begin, _end - _begin);
            _end -= _begin;
            _begin = 0;
        }
        if (_end == _buf.size())
            _buf.resize(2 * _buf.size());
        ssize_t got;
        do {
            got = ::read(_fd, _buf.data() + _end, _buf.size() - _end);
        } while (got < 0 && errno == EINTR);
        if (got <= 0)
            _eof = true;
        else
            _end += static_cast<std::size_t>(got);
    }

    int _fd;
    std::vector<char> _buf;
    std::size_t _begin = 0;   ///< first byte of the current line
    std::size_t _end = 0;     ///< end of the bytes read
    std::size_t _scanned = 0; ///< bytes past _begin known to hold no '\n'
    bool _eof = false;
};

/** One decoded query line: a plan query, or {"cmd": "metrics"}. */
struct QueryLine
{
    bool metrics = false;
    std::size_t machine = 0;
    core::TransferQuery query;
};

/**
 * A JSON number field as a query: an integer in [0, 2^53).  A double
 * holds every integer below 2^53 exactly; from 2^53 on it cannot tell
 * n from n + 1.  A fraction, or a value that large, would otherwise
 * be cast into a different query (or overflow the cast).
 */
inline std::uint64_t
queryInteger(const tooljson::JsonFieldView *f, const char *key,
             std::uint64_t line_no)
{
    constexpr double kExactLimit = 9007199254740992.0; // 2^53
    if (!f || f->kind != tooljson::JsonValue::Kind::Number ||
        f->number < 0)
        GASNUB_FATAL("serve: query line ", line_no,
                     ": missing or bad '", key,
                     "' (want a non-negative number)");
    // Below 2^53 the integer cast is exact, so a fraction shows as
    // a difference.
    if (!(f->number < kExactLimit) ||
        static_cast<double>(static_cast<std::uint64_t>(f->number)) !=
            f->number)
        GASNUB_FATAL("serve: query line ", line_no, ": '", key,
                     "' is ", f->number,
                     ", not an integer below 2^53");
    return static_cast<std::uint64_t>(f->number);
}

/**
 * Decode non-empty line @p line_no of a query stream against
 * @p index.  A duplicate key keeps its first value; unknown keys are
 * checked and ignored.  Bad JSON exits 2, a bad query exits 1, each
 * naming the line.
 */
inline QueryLine
decodeQuery(std::string_view text, std::uint64_t line_no,
            const serve::PlannerIndex &index)
{
    using Kind = tooljson::JsonValue::Kind;
    // The first value of each key, copied out as it passes: a later
    // escaped string reuses the parser's scratch buffer.
    tooljson::JsonFieldView fields[3];
    bool seen[3] = {false, false, false};
    bool cmd_seen = false, cmd_metrics = false;
    bool machine_seen = false, machine_string = false;
    int machine_id = -1;
    std::string unknown_machine; // only filled when not served

    tooljson::JsonParser parser(text, "serve: query", line_no);
    parser.members([&](std::string_view key,
                       const tooljson::JsonFieldView &v) {
        static constexpr std::string_view kNumbers[3] = {"bytes", "ws",
                                                         "stride"};
        for (int k = 0; k < 3; ++k) {
            if (key == kNumbers[k]) {
                if (!seen[k]) {
                    seen[k] = true;
                    fields[k] = v;
                }
                return;
            }
        }
        if (key == "machine" && !machine_seen) {
            machine_seen = true;
            machine_string = v.kind == Kind::String;
            if (machine_string) {
                machine_id = index.machineId(v.string);
                if (machine_id < 0)
                    unknown_machine.assign(v.string);
            }
        } else if (key == "cmd" && !cmd_seen) {
            cmd_seen = true;
            cmd_metrics =
                v.kind == Kind::String && v.string == "metrics";
        }
    });

    QueryLine q;
    if (cmd_seen) {
        if (!cmd_metrics)
            GASNUB_FATAL("serve: query line ", line_no,
                         ": unknown control command; the only "
                         "one is {\"cmd\": \"metrics\"}");
        q.metrics = true;
        return q;
    }
    if (!machine_string)
        GASNUB_FATAL("serve: query line ", line_no,
                     ": missing or bad 'machine' (want a string)");
    if (machine_id < 0)
        GASNUB_FATAL("serve: query line ", line_no,
                     ": unknown machine '", unknown_machine,
                     "'; the loaded packs serve ",
                     index.numMachines(), " machine(s)");
    q.machine = static_cast<std::size_t>(machine_id);
    q.query.bytes =
        queryInteger(seen[0] ? &fields[0] : nullptr, "bytes", line_no);
    q.query.wsBytes =
        queryInteger(seen[1] ? &fields[1] : nullptr, "ws", line_no);
    q.query.stride =
        queryInteger(seen[2] ? &fields[2] : nullptr, "stride", line_no);
    return q;
}

/** Room for an answer line besides its machine and option literals:
 *  87 bytes of fixed text, the longest method name (13,
 *  "coherent-pull") and two doubles of at most 24 characters each
 *  ("-2.2250738585072014e-308"), each given writeG17()'s 34 bytes of
 *  room, rounded up. */
constexpr std::size_t kAnswerFixedBytes = 192;

/** @p s as a quoted JSON string literal (sim/json.hh escapes). */
inline std::string
quotedJson(std::string_view s)
{
    std::ostringstream os;
    os << json::quoted(s);
    return os.str();
}

/**
 * An index's machine names and option labels as quoted, escaped JSON
 * literals, built once at load so the per-answer path only copies
 * bytes.  A name or label with no quote, backslash or control byte
 * comes out as itself in quotes.
 */
class WireNames
{
  public:
    explicit WireNames(const serve::PlannerIndex &index)
    {
        _labels.resize(index.numMachines());
        for (std::size_t m = 0; m < index.numMachines(); ++m) {
            _machines.push_back(quotedJson(index.machineName(m)));
            for (std::size_t o = 0; o < index.numOptions(m); ++o) {
                _labels[m].push_back(
                    quotedJson(index.option(m, o).label));
                _longest = std::max(_longest, _machines[m].size() +
                                                  _labels[m].back().size());
            }
        }
    }

    std::string_view machine(std::size_t m) const { return _machines[m]; }

    std::string_view
    label(std::size_t m, std::size_t option) const
    {
        return _labels[m][option];
    }

    /** Room encodeAnswer() may need for any answer of the index. */
    std::size_t
    maxAnswerBytes() const
    {
        return kAnswerFixedBytes + _longest;
    }

  private:
    std::vector<std::string> _machines;
    std::vector<std::vector<std::string>> _labels; ///< [machine][option]
    std::size_t _longest = 0; ///< longest machine + label literals
};

inline char *
put(char *p, std::string_view s)
{
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

namespace detail {

/** 5^s for s in [0, 27]; 5^27 < 2^63. */
inline constexpr auto kPow5 = [] {
    std::array<std::uint64_t, 28> pow5{};
    pow5[0] = 1;
    for (std::size_t s = 1; s < pow5.size(); ++s)
        pow5[s] = 5 * pow5[s - 1];
    return pow5;
}();

/**
 * The 8 decimal digits of @p v < 10^8 as the bytes of a word, most
 * significant first in memory order (little-endian), each 0-9: v is
 * split into 4-digit, then 2-digit, then 1-digit lanes with one
 * multiply-shift per level.
 */
inline std::uint64_t
eightDigits(std::uint32_t v)
{
    const std::uint64_t x = (v / 10000) | std::uint64_t{v % 10000} << 32;
    const std::uint64_t hundreds = (x * 10486 >> 20) & 0x0000007f0000007fULL;
    const std::uint64_t y = hundreds | (x - hundreds * 100) << 16;
    const std::uint64_t tens = (y * 103 >> 10) & 0x000f000f000f000fULL;
    return tens | (y - tens * 10) << 8;
}

} // namespace detail

/** Room writeG17() needs past its output pointer: it writes at most
 *  24 characters, but may scribble up to 34 bytes. */
constexpr std::size_t kDoubleRoom = 34;

/**
 * Write @p x at @p out exactly as printf's "%.17g" does; returns the
 * end.  Positive doubles in [1e-11, 1e17), every magnitude a plan
 * answer takes, are formatted here with integer arithmetic; zero,
 * negatives, subnormals, NaN, infinities and other magnitudes go to
 * std::to_chars (general, precision 17), which prints the same bytes.
 *
 * With x = m * 2^e and k = floor(log10 x), the 17 significant digits
 * are D = round(x * 10^(16 - k)) = round(m * 5^s * 2^(e + s)) for
 * s = 16 - k, exact in 128 bits (m < 2^53, 5^s <= 5^28), rounded
 * half to even as glibc's printf rounds an exact tie.  k is estimated
 * from the binary exponent and lowered by one if the quotient before
 * rounding is below 10^16; a D that rounds up to 10^17 carries into
 * k.  Then %g's layout: fixed notation for -4 <= k < 17, otherwise
 * d.ddde[+-]XX, with trailing fraction zeros and a bare point dropped.
 */
inline char *
writeG17(char *out, double x)
{
    if (!(x >= 1e-11 && x < 1e17))
        return std::to_chars(out, out + kDoubleRoom, x,
                             std::chars_format::general, 17)
            .ptr;
    constexpr std::uint64_t kP16 = 10'000'000'000'000'000ULL;
    using u128 = unsigned __int128;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const int biased = static_cast<int>(bits >> 52); // sign bit is 0
    const std::uint64_t m =
        (bits & ((std::uint64_t{1} << 52) - 1)) | std::uint64_t{1} << 52;
    // floor(log2 x) * log10(2), floored: k is that or one more.
    int k = std::min(((biased - 1023) * 78913 >> 18) + 1, 16);
    int s = 16 - k;
    int sh = biased - 1075 + s; // x * 10^s = m * 5^s * 2^sh
    u128 n = static_cast<u128>(m) * detail::kPow5[s];
    auto quotient = [&] { return sh >= 0 ? n << sh : n >> -sh; };
    const bool low = quotient() < kP16;
    k -= low;
    sh += low;
    n *= low ? 5 : 1;
    std::uint64_t d = static_cast<std::uint64_t>(quotient());
    if (sh < 0) {
        const u128 rem = n & ((u128{1} << -sh) - 1);
        const u128 half = u128{1} << (-sh - 1);
        d += rem > half || (rem == half && (d & 1));
    }
    if (d == 10 * kP16) {
        d = kP16;
        ++k;
    }

    // The 17 digits: a lead digit and two words of 8, as one 16-byte
    // value of ASCII digits.  `last` is the last digit %g keeps (it
    // drops trailing fraction zeros).
    static_assert(std::endian::native == std::endian::little);
    const std::uint64_t head = d / 100'000'000;
    const char lead = static_cast<char>('0' + head / 100'000'000);
    const std::uint64_t w1 = detail::eightDigits(
        static_cast<std::uint32_t>(head % 100'000'000));
    const std::uint64_t w2 = detail::eightDigits(
        static_cast<std::uint32_t>(d % 100'000'000));
    const int last = w2   ? 16 - std::countl_zero(w2) / 8
                     : w1 ? 8 - std::countl_zero(w1) / 8
                          : 0;
    constexpr std::uint64_t kZeros = 0x3030303030303030ULL;
    const u128 tail = (static_cast<u128>(w2 | kZeros) << 64) | (w1 | kZeros);

    // Every store has a fixed size; what lands past the end is cut off.
    if (k < -4 || k >= 17) {
        out[0] = lead;
        out[1] = '.';
        std::memcpy(out + 2, &tail, 16);
        char *p = out + (last > 0 ? last + 2 : 1);
        p[0] = 'e';
        p[1] = k < 0 ? '-' : '+';
        const int exponent = k < 0 ? -k : k; // below 100
        p[2] = static_cast<char>('0' + exponent / 10);
        p[3] = static_cast<char>('0' + exponent % 10);
        return p + 4;
    }
    if (k >= 0) {
        out[0] = lead;
        std::memcpy(out + 1, &tail, 16);
        if (last <= k)
            return out + k + 1;
        out[k + 1] = '.';
        const u128 fraction = tail >> (8 * k); // k < last <= 16
        std::memcpy(out + k + 2, &fraction, 16);
        return out + last + 2;
    }
    std::memcpy(out, "0.000000", 8);
    out[1 - k] = lead;
    std::memcpy(out + 2 - k, &tail, 16);
    return out + 2 - k + last;
}

/**
 * Write the answer line for @p a at @p out, which has room for
 * kAnswerFixedBytes plus @p machine and @p label, the answer's
 * machine name and option label as quoted literals (WireNames);
 * returns the end.  For names and labels that need no escape the
 * bytes are those of printf with
 *   {"machine": "%s", "option": "%s", "method": "%s",
 *    "strideOnSource": %s, "mbs": %.17g, "seconds": %.17g}\n
 * on one line (tests/serve/test_serve_json.cc holds them equal).
 */
inline char *
encodeAnswer(char *out, std::string_view machine, std::string_view label,
             const serve::PlanAnswer &a)
{
    char *p = put(out, "{\"machine\": ");
    p = put(p, machine);
    p = put(p, ", \"option\": ");
    p = put(p, label);
    p = put(p, ", \"method\": \"");
    p = put(p, remote::methodName(a.method));
    p = put(p, a.strideOnSource ? "\", \"strideOnSource\": true"
                                : "\", \"strideOnSource\": false");
    p = put(p, ", \"mbs\": ");
    p = writeG17(p, a.predictedMBs);
    p = put(p, ", \"seconds\": ");
    p = writeG17(p, a.predictedSeconds);
    return put(p, "}\n");
}

} // namespace gasnub::servejson

#endif // GASNUB_TOOLS_SERVE_JSON_HH
