// The one JSON writer and the one JSON reader behind every telemetry export
// and schema validator (registry, series, flight, trace_export, health).
// This is NOT a general JSON library.
//
// The writer owns every format decision that makes same-seed exports
// byte-identical: exact u64, "%.17g" doubles, one string escaper and one
// file write. Each exporter keeps its own layout strings.
//
// The reader is a streaming recursive-descent cursor that builds no
// document tree: validators walk objects and arrays with object()/array()
// and check each value as it goes by, so the 76 MB fig5 trace validates in
// one pass. Documents are produced by this repo's own writers, so it
// favours simplicity over strict RFC 8259 conformance (\u escapes are
// skipped, not decoded), but it does reject a raw control byte in a string.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"

namespace dgiwarp::telemetry {

// ---------------------------------------------------------------------------
// Writer.

inline void append_u64(std::string& out, u64 v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// %.17g round-trips exactly, so the same value always prints the same
/// bytes.
inline void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// The contents of a JSON string (no quotes): `"` and `\` escaped, newline
/// and tab as \n and \t, every other byte below 0x20 as \u00XX.
inline void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Writes `body` to `path`; fails unless the file opens, takes every byte
/// and closes cleanly.
inline Status write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status(Errc::kNotFound, "cannot open " + path);
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  if (std::fclose(f) != 0 || n != body.size())
    return Status(Errc::kResourceExhausted, "short write to " + path);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reader.

struct JsonParser {
  explicit JsonParser(std::string_view doc) : s(doc) {}

  std::string_view s;
  std::size_t i = 0;
  std::string err;  // first failure, with its offset

  /// Records the first failure; always returns false.
  bool fail(const std::string& m) {
    if (err.empty()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " at offset %zu", i);
      err = m + buf;
    }
    return false;
  }
  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }
  bool expect(char c) {
    ws();
    if (i >= s.size() || s[i] != c)
      return fail(std::string("expected '") + c + "'");
    ++i;
    return true;
  }
  bool peek_is(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }

  /// The object at the cursor: `member(key)` runs once per member with the
  /// cursor on its value, and must consume that value.
  template <typename F>
  bool object(F&& member) {
    if (!expect('{')) return false;
    if (peek_is('}')) return expect('}');
    std::string key;
    while (true) {
      if (!parse_string(&key) || !expect(':') || !member(key)) return false;
      if (!peek_is(',')) return expect('}');
      ++i;
    }
  }

  /// The array at the cursor: `element()` runs once per element and must
  /// consume it.
  template <typename F>
  bool array(F&& element) {
    if (!expect('[')) return false;
    if (peek_is(']')) return expect(']');
    while (true) {
      if (!element()) return false;
      if (!peek_is(',')) return expect(']');
      ++i;
    }
  }

  /// The whole input: one object, then nothing but whitespace.
  template <typename F>
  bool document(F&& member) {
    if (!object(member)) return false;
    ws();
    return i == s.size() || fail("trailing garbage");
  }

  /// A validator's verdict: ok, or "<what>: <first failure>".
  Status status(bool ok, const char* what) const {
    if (ok) return Status::Ok();
    return Status(Errc::kInvalidArgument, std::string(what) + ": " + err);
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    std::string v;
    for (; i < s.size() && s[i] != '"'; ++i) {
      const char c = s[i];
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        v += c;
        continue;
      }
      if (++i >= s.size()) return fail("truncated escape");
      switch (s[i]) {
        case '"': v += '"'; break;
        case '\\': v += '\\'; break;
        case '/': v += '/'; break;
        case 'n': v += '\n'; break;
        case 't': v += '\t'; break;
        case 'r': v += '\r'; break;
        case 'b': case 'f': break;
        case 'u':
          if (i + 4 >= s.size()) return fail("truncated \\u escape");
          i += 4;
          v += '?';
          break;
        default: return fail("bad escape");
      }
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    if (out) *out = std::move(v);
    return true;
  }

  /// A schema tag: a string that must equal `want`.
  bool parse_schema(std::string_view want) {
    std::string v;
    return parse_string(&v) && (v == want || fail("wrong schema '" + v + "'"));
  }

  bool parse_number(double* out) {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    while (i < s.size() &&
           ((s[i] >= '0' && s[i] <= '9') || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || s[i] == '-' || s[i] == '+'))
      digits = true, ++i;
    if (!digits) return fail("expected number");
    if (out) *out = std::strtod(std::string(s.substr(start, i - start)).c_str(),
                                nullptr);
    return true;
  }

  bool skip_value() {
    ws();
    if (i >= s.size()) return fail("unexpected end");
    const char c = s[i];
    if (c == '"') return parse_string(nullptr);
    if (c == '{')
      return object([this](const std::string&) { return skip_value(); });
    if (c == '[') return array([this] { return skip_value(); });
    if (s.compare(i, 4, "true") == 0) { i += 4; return true; }
    if (s.compare(i, 5, "false") == 0) { i += 5; return true; }
    if (s.compare(i, 4, "null") == 0) { i += 4; return true; }
    return parse_number(nullptr);
  }
};

}  // namespace dgiwarp::telemetry
