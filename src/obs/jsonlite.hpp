// JSON in one place (no external deps): one recursive-descent parser, one
// string escaper and one streaming writer.
//
// The parser accepts exactly RFC 8259 grammar into a small Value tree and,
// on failure, reports the byte offset of the first error; valid() is the
// same parser with the tree discarded, so there is one depth cap and one
// escape table. Writer holds the one JSON number rule: integers print as
// integers, finite doubles as %.17g (which round-trips), and non-finite
// doubles as null, because NaN and Inf are not JSON. The run report, the
// memory, health and progress documents, the run ledger, merged traces
// and bench tables are all written through it; only the Chrome trace
// export and the signal-safe progress renderer (which may not allocate)
// format their own.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace svsim::obs::jsonlite {

/// The largest magnitude a checked integer read accepts: 2^53, below which
/// a JSON number (a double) holds every integer exactly.
inline constexpr std::int64_t kMaxExactInt = std::int64_t{1} << 53;

/// One parsed JSON value. Object members keep document order (every
/// document is written in a fixed order, which keeps diffs and tests
/// stable).
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> items;                           // kArray
  std::vector<std::pair<std::string, Value>> members; // kObject

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Typed getters with fallbacks (tolerant readers for additive schemas).
  double num_or(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
  std::string str_or(const std::string& fallback) const {
    return type == Type::kString ? str : fallback;
  }
  bool bool_or(bool fallback) const {
    return type == Type::kBool ? boolean : fallback;
  }
  double member_num(const std::string& key, double fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->num_or(fallback) : fallback;
  }
  /// This number as an integer in [lo, hi] (within ±kMaxExactInt). A
  /// value that is not finite, not integral or out of range — whose cast
  /// would be undefined — throws svsim::Error naming `what`.
  std::int64_t int_in(std::int64_t lo, std::int64_t hi,
                      const std::string& what) const {
    const double x = number;
    if (type == Type::kNumber && x >= static_cast<double>(lo) &&
        x <= static_cast<double>(hi) && x == std::trunc(x)) {
      return static_cast<std::int64_t>(x);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " = %.17g is not an integer in [%lld, %lld]", x,
                  static_cast<long long>(lo), static_cast<long long>(hi));
    throw Error(what + (type == Type::kNumber ? buf : " is not a number"));
  }
  /// Member `key` through int_in; `fallback` when it is absent or not a
  /// number (tolerant of additive schemas, strict on what is there).
  std::int64_t member_int(const std::string& key, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const {
    const Value* v = find(key);
    return v != nullptr && v->type == Type::kNumber ? v->int_in(lo, hi, key)
                                                    : fallback;
  }
  /// A count member (bytes, gates, seconds since the epoch): an integer
  /// in [0, kMaxExactInt], 0 when absent.
  std::uint64_t member_count(const std::string& key) const {
    return static_cast<std::uint64_t>(member_int(key, 0, 0, kMaxExactInt));
  }
  std::string member_str(const std::string& key,
                         const std::string& fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->str_or(fallback) : fallback;
  }
};

namespace detail {

/// Containers may nest at most this deep. The recursive-descent parser
/// burns one C++ stack frame per level, so without a cap a hostile
/// `[[[[...` input (a few KB of brackets) overflows the stack instead of
/// returning false.
constexpr int kMaxDepth = 96;

struct Cursor {
  const std::string& s;
  std::size_t i = 0;
  int depth = 0;

  bool eof() const { return i >= s.size(); }
  char peek() const { return eof() ? '\0' : s[i]; }
  void skip_ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++i;
    return true;
  }
  bool consume_lit(const char* lit) {
    std::size_t j = i;
    for (const char* p = lit; *p != '\0'; ++p, ++j) {
      if (j >= s.size() || s[j] != *p) return false;
    }
    i = j;
    return true;
  }
};

/// RAII nesting counter for the parser.
struct DepthGuard {
  Cursor& c;
  explicit DepthGuard(Cursor& cur) : c(cur) { ++c.depth; }
  ~DepthGuard() { --c.depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
  bool ok() const { return c.depth <= kMaxDepth; }
};

inline bool parse_number(Cursor& c) {
  const std::size_t start = c.i;
  c.consume('-');
  if (c.peek() == '0') {
    ++c.i;
  } else if (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) {
    while (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) ++c.i;
  } else {
    return false;
  }
  if (c.consume('.')) {
    if (std::isdigit(static_cast<unsigned char>(c.peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) ++c.i;
  }
  if (c.peek() == 'e' || c.peek() == 'E') {
    ++c.i;
    if (c.peek() == '+' || c.peek() == '-') ++c.i;
    if (std::isdigit(static_cast<unsigned char>(c.peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) ++c.i;
  }
  return c.i > start;
}

inline bool build_value(Cursor& c, Value* out);

/// Append a Unicode code point as UTF-8.
inline void append_utf8(std::string* s, std::uint32_t cp) {
  if (cp < 0x80) {
    s->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

inline bool hex4(Cursor& c, std::uint32_t* out) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    if (c.eof()) return false;
    const char ch = c.s[c.i];
    std::uint32_t d;
    if (ch >= '0' && ch <= '9') {
      d = static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      d = static_cast<std::uint32_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      d = static_cast<std::uint32_t>(ch - 'A' + 10);
    } else {
      return false;
    }
    v = v * 16 + d;
    ++c.i;
  }
  *out = v;
  return true;
}

inline bool build_string(Cursor& c, std::string* out) {
  if (!c.consume('"')) return false;
  out->clear();
  while (!c.eof()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) return false;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c.eof()) return false;
    const char esc = c.s[c.i++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        std::uint32_t cp = 0;
        if (!hex4(c, &cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF && c.i + 1 < c.s.size() &&
            c.s[c.i] == '\\' && c.s[c.i + 1] == 'u') {
          // Surrogate pair.
          const std::size_t save = c.i;
          c.i += 2;
          std::uint32_t lo = 0;
          if (hex4(c, &lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            c.i = save; // lone high surrogate: emit as-is
          }
        }
        append_utf8(out, cp);
        break;
      }
      default: return false;
    }
  }
  return false; // unterminated
}

inline bool build_object(Cursor& c, Value* out) {
  if (!c.consume('{')) return false;
  const DepthGuard depth(c);
  if (!depth.ok()) return false;
  out->type = Value::Type::kObject;
  c.skip_ws();
  if (c.consume('}')) return true;
  while (true) {
    c.skip_ws();
    std::string key;
    if (!build_string(c, &key)) return false;
    c.skip_ws();
    if (!c.consume(':')) return false;
    Value v;
    if (!build_value(c, &v)) return false;
    out->members.emplace_back(std::move(key), std::move(v));
    c.skip_ws();
    if (c.consume(',')) continue;
    return c.consume('}');
  }
}

inline bool build_array(Cursor& c, Value* out) {
  if (!c.consume('[')) return false;
  const DepthGuard depth(c);
  if (!depth.ok()) return false;
  out->type = Value::Type::kArray;
  c.skip_ws();
  if (c.consume(']')) return true;
  while (true) {
    Value v;
    if (!build_value(c, &v)) return false;
    out->items.push_back(std::move(v));
    c.skip_ws();
    if (c.consume(',')) continue;
    return c.consume(']');
  }
}

inline bool build_value(Cursor& c, Value* out) {
  c.skip_ws();
  switch (c.peek()) {
    case '{': return build_object(c, out);
    case '[': return build_array(c, out);
    case '"':
      out->type = Value::Type::kString;
      return build_string(c, &out->str);
    case 't':
      out->type = Value::Type::kBool;
      out->boolean = true;
      return c.consume_lit("true");
    case 'f':
      out->type = Value::Type::kBool;
      out->boolean = false;
      return c.consume_lit("false");
    case 'n':
      out->type = Value::Type::kNull;
      return c.consume_lit("null");
    default: {
      const std::size_t start = c.i;
      if (!parse_number(c)) return false;
      out->type = Value::Type::kNumber;
      out->number = std::strtod(c.s.substr(start, c.i - start).c_str(), nullptr);
      return true;
    }
  }
}

} // namespace detail

/// Parse one complete JSON value into a tree. On failure *error_offset
/// (if non-null) is the byte position of the first error.
inline bool parse(const std::string& text, Value* out,
                  std::size_t* error_offset = nullptr) {
  *out = Value{};
  detail::Cursor c{text};
  const bool ok = detail::build_value(c, out);
  c.skip_ws();
  const bool done = ok && c.eof();
  if (!done && error_offset != nullptr) *error_offset = c.i;
  return done;
}

/// True iff `text` is one complete, well-formed JSON value: parse() with
/// the tree discarded.
inline bool valid(const std::string& text,
                  std::size_t* error_offset = nullptr) {
  Value discard;
  return parse(text, &discard, error_offset);
}

namespace detail {

/// Append `s` to `out` as a JSON string literal (the escaping quote()
/// documents).
inline void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

} // namespace detail

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// backslash-escaped, \n \r \t take their short forms, every other
/// control byte becomes \u00XX, and bytes >= 0x20 pass through (UTF-8
/// stays UTF-8).
inline std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  detail::append_quoted(out, s);
  return out;
}

/// Streaming writer. Object and array scopes place commas automatically;
/// keys and strings are escaped as quote() escapes them. It holds the one
/// number rule: integers print as integers, finite doubles as %.17g, and
/// non-finite doubles as null.
class Writer {
public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  /// An object member's key; the next value written is its value.
  Writer& key(std::string_view k) {
    separate();
    detail::append_quoted(out_, k);
    out_ += ':';
    return *this;
  }

  Writer& null() { return token("null"); }
  Writer& value(bool b) { return token(b ? "true" : "false"); }
  Writer& value(std::string_view s) {
    separate();
    detail::append_quoted(out_, s);
    comma_ = true;
    return *this;
  }
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v) {
    if (!std::isfinite(v)) return null();
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    return token(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  Writer& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return token(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }

  /// A parsed value, written back under the same rules.
  Writer& write(const Value& v) {
    switch (v.type) {
      case Value::Type::kNull: return null();
      case Value::Type::kBool: return value(v.boolean);
      case Value::Type::kNumber: return value(v.number);
      case Value::Type::kString: return value(v.str);
      case Value::Type::kArray:
        begin_array();
        for (const Value& item : v.items) write(item);
        return end_array();
      case Value::Type::kObject:
        begin_object();
        for (const auto& [k, member] : v.members) key(k).write(member);
        return end_object();
    }
    return *this;
  }

  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Start the next element, or the closing bracket, on a new line (for
  /// documents kept one row per line so their diffs stay readable).
  Writer& newline() {
    newline_ = true;
    return *this;
  }

  /// The finished document, moved out: call once, at the end.
  std::string take() { return std::move(out_); }

private:
  /// Emit what belongs before the next element: a comma after a sibling,
  /// then a requested line break.
  void separate() {
    if (comma_) out_ += ',';
    if (newline_) out_ += '\n';
    comma_ = newline_ = false;
  }
  Writer& token(std::string_view text) {
    separate();
    out_ += text;
    comma_ = true;
    return *this;
  }
  Writer& open(char bracket) {
    separate();
    out_ += bracket;
    return *this;
  }
  Writer& close(char bracket) {
    if (newline_) out_ += '\n';
    newline_ = false;
    out_ += bracket;
    comma_ = true;
    return *this;
  }

  std::string out_;
  bool comma_ = false;   // a sibling precedes the next element
  bool newline_ = false; // newline() pending
};

} // namespace svsim::obs::jsonlite
