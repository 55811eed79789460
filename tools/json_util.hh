/**
 * @file
 * Minimal JSON reader shared by the tools: report and serve's query
 * lines.
 *
 * Covers exactly what this repo's writers emit — stats
 * Group::dumpJson trees, profiler exports: objects, arrays, strings, numbers, bools and null, with
 * sim/json.hh's control-byte escapes; any other \uXXXX escape,
 * surrogate pairs included, decodes to UTF-8.  Numbers follow RFC
 * 8259's grammar exactly and convert with std::from_chars, except
 * that a plain integer of at most 15 digits converts inline, exactly;
 * literals are spelled out in full.  parse() builds a JsonValue
 * tree; members() walks one object's members with the same lexer and
 * builds nothing.
 * Parse errors are fatal (exit 2) with the caller-supplied context
 * in the message.
 */

#ifndef GASNUB_TOOLS_JSON_UTIL_HH
#define GASNUB_TOOLS_JSON_UTIL_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace gasnub::tooljson {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *find(const std::string &key) const
    {
        for (const auto &kv : object)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }
};

/**
 * One member value as JsonParser::members() sees it: no tree and no
 * owned strings.  A nested array or object carries only its kind.
 */
struct JsonFieldView
{
    JsonValue::Kind kind = JsonValue::Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string_view string; ///< Kind::String only
};

class JsonParser
{
  public:
    /**
     * @param text Parsed in place; must outlive the parser.
     * @param context Error prefix, e.g. "report: stats.json".
     */
    JsonParser(std::string_view text, std::string context)
        : _s(text), _ctx(std::move(context))
    {
    }

    /**
     * A parser whose error prefix "<stem> line <line>" is formatted
     * only if the text turns out to be bad, so a good line costs no
     * string building.
     */
    JsonParser(std::string_view text, const char *stem,
               std::uint64_t line)
        : _s(text), _stem(stem), _line(line)
    {
    }

    /** A temporary would dangle: the parser keeps a view of it. */
    JsonParser(std::string &&, std::string) = delete;

    JsonValue parse()
    {
        JsonValue v;
        value(&v);
        finish();
        return v;
    }

    /**
     * Walk one object's members without building a tree: @p visit
     * (std::string_view key, const JsonFieldView &value) runs once per
     * member, in input order, duplicates included.  The grammar,
     * escapes, depth bound and errors are parse()'s.  Keys and string
     * values are views into the text, or into a scratch buffer (valid
     * until the next member) when they hold escapes.  A nested array
     * or object is checked and skipped.  A top-level value that is not
     * an object is checked and has no members, just as find() on a
     * parse()d non-object finds nothing.
     */
    template <class Visit>
    void members(Visit &&visit)
    {
        if (peek() != '{') {
            value(nullptr);
            finish();
            return;
        }
        ++_depth;
        eachMember(_keyScratch, [&](std::string_view key) {
            JsonFieldView v;
            if (!scalar(v)) {
                v.kind = _s[_i] == '{' ? JsonValue::Kind::Object
                                       : JsonValue::Kind::Array;
                value(nullptr);
            }
            visit(key, v);
        });
        --_depth;
        finish();
    }

  private:
    /** Errors are out of line and cold, so the lexer's hot helpers
     *  stay small enough to inline. */
    [[noreturn, gnu::cold, gnu::noinline]] void fail(std::string_view what)
    {
        if (_stem)
            std::cerr << _stem << " line " << _line;
        else
            std::cerr << _ctx;
        std::cerr << ": JSON error at byte " << _i << ": " << what
                  << "\n";
        std::exit(2);
    }

    [[noreturn, gnu::cold, gnu::noinline]] void failExpected(char c)
    {
        fail(std::string("expected '") + c + "'");
    }

    [[gnu::always_inline]] void skipWs()
    {
        while (_i < _s.size() &&
               (_s[_i] == ' ' || _s[_i] == '\t' || _s[_i] == '\n' ||
                _s[_i] == '\r'))
            ++_i;
    }

    [[gnu::always_inline]] char peek()
    {
        skipWs();
        if (_i >= _s.size()) [[unlikely]]
            fail("unexpected end of input");
        return _s[_i];
    }

    [[gnu::always_inline]] void expect(char c)
    {
        if (peek() != c) [[unlikely]]
            failExpected(c);
        ++_i;
    }

    void finish()
    {
        skipWs();
        if (_i != _s.size())
            fail("trailing garbage");
    }

    /** Lex the scalar at peek() into @p v; false, consuming nothing,
     *  at an array or object. */
    bool scalar(JsonFieldView &v)
    {
        switch (peek()) {
          case '{':
          case '[':
            return false;
          case '"':
            v.kind = JsonValue::Kind::String;
            v.string = string(_scratch);
            return true;
          case 't':
            literal("true");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return true;
          case 'f':
            literal("false");
            v.kind = JsonValue::Kind::Bool;
            return true;
          case 'n':
            literal("null");
            return true;
          default:
            v.kind = JsonValue::Kind::Number;
            v.number = number();
            return true;
        }
    }

    /** One value, built into *out, or only checked when out is null. */
    void value(JsonValue *out)
    {
        JsonFieldView v;
        if (scalar(v)) {
            if (out) {
                out->kind = v.kind;
                out->boolean = v.boolean;
                out->number = v.number;
                out->string.assign(v.string);
            }
            return;
        }
        // Recursive descent: bound the nesting so adversarial input
        // ("[[[[...") cannot blow the stack.
        if (++_depth > kMaxDepth)
            fail("nesting too deep");
        if (_s[_i] == '{')
            object(out);
        else
            array(out);
        --_depth;
    }

    void literal(std::string_view word)
    {
        if (_s.substr(_i, word.size()) != word)
            fail("bad literal");
        _i += word.size();
    }

    /** The four hex digits of a \u escape at _i, consumed.  Checked
     *  by hand: std::stoi would throw (not fail) on non-hex digits. */
    std::uint32_t hex4()
    {
        if (_i + 4 > _s.size())
            fail("truncated \\u escape");
        std::uint32_t code = 0;
        for (int k = 0; k < 4; ++k) {
            const char h = _s[_i + k];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<std::uint32_t>(h - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        _i += 4;
        return code;
    }

    /**
     * Decode the \uXXXX escape whose 'u' was just read, appending its
     * code point to @p out as UTF-8.  A surrogate pair is one code
     * point; a lone surrogate is fatal at the byte of its backslash.
     */
    void unicodeEscape(std::string &out)
    {
        const std::size_t at = _i - 2;
        std::uint32_t code = hex4();
        if (code >= 0xd800 && code <= 0xdfff) {
            const bool high = code <= 0xdbff;
            std::uint32_t low = 0;
            if (high && _s.substr(_i, 2) == "\\u") {
                _i += 2;
                low = hex4();
            }
            if (low < 0xdc00 || low > 0xdfff) {
                _i = at;
                fail("lone surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        auto put = [&out](std::uint32_t byte) {
            out.push_back(static_cast<char>(byte));
        };
        if (code < 0x80) {
            put(code);
        } else if (code < 0x800) {
            put(0xc0 | code >> 6);
            put(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            put(0xe0 | code >> 12);
            put(0x80 | (code >> 6 & 0x3f));
            put(0x80 | (code & 0x3f));
        } else {
            put(0xf0 | code >> 18);
            put(0x80 | (code >> 12 & 0x3f));
            put(0x80 | (code >> 6 & 0x3f));
            put(0x80 | (code & 0x3f));
        }
    }

    /** A string token: a view into the text when it has no escapes,
     *  else decoded into @p scratch. */
    std::string_view string(std::string &scratch)
    {
        expect('"');
        const std::size_t start = _i;
        while (_i < _s.size() && _s[_i] != '"' && _s[_i] != '\\')
            ++_i;
        if (_i < _s.size() && _s[_i] == '"') [[likely]]
            return {_s.data() + start, _i++ - start};
        return escapedString(start, scratch);
    }

    /** The rest of string() from its first backslash (or the end). */
    [[gnu::noinline]] std::string_view
    escapedString(std::size_t start, std::string &scratch)
    {
        scratch.assign(_s.substr(start, _i - start));
        while (_i < _s.size() && _s[_i] != '"') {
            char c = _s[_i++];
            if (c == '\\') {
                if (_i >= _s.size())
                    fail("truncated escape");
                const char e = _s[_i++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    unicodeEscape(scratch);
                    continue;
                  default: c = e; break;
                }
            }
            scratch.push_back(c);
        }
        expect('"');
        return scratch;
    }

    /**
     * Strict RFC 8259 number grammar:
     *   -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
     */
    static bool
    isNumberToken(std::string_view t)
    {
        std::size_t i = 0;
        auto digits = [&] {
            const std::size_t from = i;
            while (i < t.size() && t[i] >= '0' && t[i] <= '9')
                ++i;
            return i > from;
        };
        if (i < t.size() && t[i] == '-')
            ++i;
        if (i < t.size() && t[i] == '0')
            ++i;
        else if (!digits())
            return false;
        if (i < t.size() && t[i] == '.') {
            ++i;
            if (!digits())
                return false;
        }
        if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
            ++i;
            if (i < t.size() && (t[i] == '+' || t[i] == '-'))
                ++i;
            if (!digits())
                return false;
        }
        return i == t.size();
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    /** A byte that may continue a number token once it has begun. */
    static bool
    continuesNumber(char c)
    {
        return isDigit(c) || c == '-' || c == '+' || c == '.' ||
               c == 'e' || c == 'E';
    }

    /**
     * A number.  A run of at most 15 digits with no leading zero,
     * ended by a byte that cannot continue the token, is an integer
     * below 10^15 that a double holds exactly, so it converts here;
     * every other token takes numberToken().
     */
    double number()
    {
        if (_i < _s.size() && _s[_i] >= '1' && _s[_i] <= '9') {
            const std::size_t stop =
                _s.size() - _i > 15 ? _i + 15 : _s.size();
            std::size_t j = _i;
            std::uint64_t v = 0;
            while (j < stop && isDigit(_s[j]))
                v = v * 10 + static_cast<std::uint64_t>(_s[j++] - '0');
            if (j == _s.size() || !continuesNumber(_s[j])) {
                _i = j;
                return static_cast<double>(v);
            }
        }
        return numberToken();
    }

    /**
     * The run of number bytes at _i, which must match isNumberToken()
     * as a whole ("1-2", "-", "+7", "01" and "1.2.3" are errors at
     * their first byte, never a prefix's value).
     */
    [[gnu::noinline]] double numberToken()
    {
        const std::size_t start = _i;
        while (_i < _s.size() && continuesNumber(_s[_i]))
            ++_i;
        if (_i == start)
            fail("expected a value");
        const std::string_view token = _s.substr(start, _i - start);
        if (!isNumberToken(token)) {
            _i = start;
            fail("bad number");
        }
        double d = 0;
        const auto r = std::from_chars(
            token.data(), token.data() + token.size(), d);
        // Past double's range from_chars stores nothing; strtod
        // gives the rounded value (+-inf, a subnormal or +-0).
        if (r.ec != std::errc())
            d = std::strtod(std::string(token).c_str(), nullptr);
        return d;
    }

    void array(JsonValue *out)
    {
        expect('[');
        if (out)
            out->kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++_i;
            return;
        }
        for (;;) {
            if (out) {
                out->array.emplace_back();
                value(&out->array.back());
            } else {
                value(nullptr);
            }
            if (peek() == ',') {
                ++_i;
                continue;
            }
            expect(']');
            return;
        }
    }

    /** The object at peek(): @p member (key) runs once per member,
     *  with the member's value next in the text, and must consume it.
     *  Keys with escapes decode into @p key_scratch. */
    template <class Member>
    void eachMember(std::string &key_scratch, Member &&member)
    {
        expect('{');
        if (peek() == '}') {
            ++_i;
            return;
        }
        for (;;) {
            const std::string_view key = string(key_scratch);
            expect(':');
            member(key);
            if (peek() == ',') {
                ++_i;
                continue;
            }
            expect('}');
            return;
        }
    }

    void object(JsonValue *out)
    {
        if (out)
            out->kind = JsonValue::Kind::Object;
        eachMember(_scratch, [&](std::string_view key) {
            if (!out) {
                value(nullptr);
                return;
            }
            out->object.emplace_back(std::string(key), JsonValue{});
            value(&out->object.back().second);
        });
    }

    /** Far deeper than any writer in this repo emits. */
    static constexpr int kMaxDepth = 128;

    std::string_view _s;
    std::string _ctx;
    const char *_stem = nullptr; ///< lazy "<stem> line <line>" prefix
    std::uint64_t _line = 0;
    std::string _scratch;    ///< escaped strings
    std::string _keyScratch; ///< escaped members() keys
    std::size_t _i = 0;
    int _depth = 0;
};

} // namespace gasnub::tooljson

#endif // GASNUB_TOOLS_JSON_UTIL_HH
