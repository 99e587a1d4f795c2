// Minimal JSON validator, value-tree parser and string writer (no
// external deps).
//
// Exists so the trace exporter, the bench JSON emitter, and the
// profile-smoke ctest can assert "this file is well-formed JSON" without
// pulling in a JSON library. Accepts exactly RFC 8259 grammar; on failure
// reports the byte offset of the first error. The Value tree (added for
// tools/svsim_analyze, which must *read* reports, traces and ledger
// lines, not just validate them) parses the same grammar into a small
// tagged struct; the original validator remains the zero-allocation fast
// path. quote() is the one string-literal writer every hand-rolled
// emitter (reports, ledger, progress, memory, bench tables) shares.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace svsim::obs::jsonlite {

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

inline bool parse_value(Cursor& c);

/// RAII nesting counter shared by the validator and the tree builder.
struct DepthGuard {
  Cursor& c;
  explicit DepthGuard(Cursor& cur) : c(cur) { ++c.depth; }
  ~DepthGuard() { --c.depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
  bool ok() const { return c.depth <= kMaxDepth; }
};

inline bool parse_string(Cursor& c) {
  if (!c.consume('"')) return false;
  while (!c.eof()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) return false;
    if (ch == '\\') {
      if (c.eof()) return false;
      const char esc = c.s[c.i++];
      if (esc == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (c.eof() || std::isxdigit(static_cast<unsigned char>(c.s[c.i])) == 0) {
            return false;
          }
          ++c.i;
        }
      } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                 esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
        return false;
      }
    }
  }
  return false; // unterminated
}

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

inline bool parse_object(Cursor& c) {
  if (!c.consume('{')) return false;
  const DepthGuard depth(c);
  if (!depth.ok()) return false;
  c.skip_ws();
  if (c.consume('}')) return true;
  while (true) {
    c.skip_ws();
    if (!parse_string(c)) return false;
    c.skip_ws();
    if (!c.consume(':')) return false;
    if (!parse_value(c)) return false;
    c.skip_ws();
    if (c.consume(',')) continue;
    return c.consume('}');
  }
}

inline bool parse_array(Cursor& c) {
  if (!c.consume('[')) return false;
  const DepthGuard depth(c);
  if (!depth.ok()) return false;
  c.skip_ws();
  if (c.consume(']')) return true;
  while (true) {
    if (!parse_value(c)) return false;
    c.skip_ws();
    if (c.consume(',')) continue;
    return c.consume(']');
  }
}

inline bool parse_value(Cursor& c) {
  c.skip_ws();
  switch (c.peek()) {
    case '{': return parse_object(c);
    case '[': return parse_array(c);
    case '"': return parse_string(c);
    case 't': return c.consume_lit("true");
    case 'f': return c.consume_lit("false");
    case 'n': return c.consume_lit("null");
    default: return parse_number(c);
  }
}

} // namespace detail

/// True iff `text` is one complete, well-formed JSON value. On failure,
/// *error_offset (if non-null) is the byte position of the first error.
inline bool valid(const std::string& text, std::size_t* error_offset = nullptr) {
  detail::Cursor c{text};
  const bool ok = detail::parse_value(c);
  c.skip_ws();
  const bool done = ok && c.eof();
  if (!done && error_offset != nullptr) *error_offset = c.i;
  return done;
}

// ---------------------------------------------------------------------------
// Value tree
// ---------------------------------------------------------------------------

/// One parsed JSON value. Object members keep document order (the report
/// and ledger emitters write deterministic order, which keeps diffs and
/// tests stable).
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> items;                           // kArray
  std::vector<std::pair<std::string, Value>> members; // kObject

  bool is_null() const { return type == Type::kNull; }
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
  std::string member_str(const std::string& key,
                         const std::string& fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->str_or(fallback) : fallback;
  }
};

namespace detail {

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

/// Parse one complete JSON value into a tree. Same grammar as valid();
/// on failure *error_offset (if non-null) is the first bad byte.
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

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// backslash-escaped, \n \r \t take their short forms, every other
/// control byte becomes \u00XX, and bytes >= 0x20 pass through (UTF-8
/// stays UTF-8).
inline std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
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
  return out;
}

} // namespace svsim::obs::jsonlite
