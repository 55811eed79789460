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

#include <algorithm>
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
    if (!(f->number < kExactLimit) ||
        f->number != std::floor(f->number))
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
 *  ("-2.2250738585072014e-308"), with to_chars given 32 for each. */
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
    constexpr int kDigits = 17;
    char *p = put(out, "{\"machine\": ");
    p = put(p, machine);
    p = put(p, ", \"option\": ");
    p = put(p, label);
    p = put(p, ", \"method\": \"");
    p = put(p, remote::methodName(a.method));
    p = put(p, a.strideOnSource ? "\", \"strideOnSource\": true"
                                : "\", \"strideOnSource\": false");
    p = put(p, ", \"mbs\": ");
    p = std::to_chars(p, p + 32, a.predictedMBs,
                      std::chars_format::general, kDigits)
            .ptr;
    p = put(p, ", \"seconds\": ");
    p = std::to_chars(p, p + 32, a.predictedSeconds,
                      std::chars_format::general, kDigits)
            .ptr;
    return put(p, "}\n");
}

} // namespace gasnub::servejson

#endif // GASNUB_TOOLS_SERVE_JSON_HH
