#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>

namespace sgp::obs {

namespace {

/// One UTF-8 sequence: its byte length, or why the bytes at the
/// scanned position do not start one.
struct Utf8Scan {
  std::size_t length = 0;
  const char* error = nullptr;  ///< nullptr when the sequence is valid
};

/// The grammar's one UTF-8 decoder (RFC 3629: no overlong forms, no
/// surrogates, nothing above U+10FFFF), shared by the parser and
/// json_quote.
Utf8Scan scan_utf8(std::string_view s, std::size_t pos) {
  const unsigned char b0 = static_cast<unsigned char>(s[pos]);
  if (b0 < 0x80) return {1, nullptr};
  std::size_t len = 0;
  std::uint32_t cp = 0;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    cp = b0 & 0x1Fu;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    cp = b0 & 0x0Fu;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    cp = b0 & 0x07u;
  } else {
    return {0, "invalid UTF-8 byte in string"};
  }
  if (pos + len > s.size()) {
    return {0, "truncated UTF-8 sequence in string"};
  }
  for (std::size_t i = 1; i < len; ++i) {
    const unsigned char b = static_cast<unsigned char>(s[pos + i]);
    if ((b & 0xC0) != 0x80) return {0, "invalid UTF-8 continuation byte"};
    cp = (cp << 6) | (b & 0x3Fu);
  }
  static constexpr std::uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800,
                                                  0x10000};
  if (cp < kMinForLen[len]) return {0, "overlong UTF-8 encoding"};
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    return {0, "invalid Unicode code point"};
  }
  return {len, nullptr};
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (std::size_t i = 0; i < s.size();) {
    const char ch = s[i];
    if (static_cast<unsigned char>(ch) >= 0x80) {
      const std::size_t len = scan_utf8(s, i).length;
      if (len == 0) {
        out += "\xEF\xBF\xBD";  // U+FFFD REPLACEMENT CHARACTER
        ++i;
      } else {
        out.append(s.substr(i, len));
        i += len;
      }
      continue;
    }
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(ch >> 4) & 0xf];
          out += hex[ch & 0xf];
        } else {
          out += ch;
        }
    }
    ++i;
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_number(std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty() || s.size() > 20) return std::nullopt;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  // No leading zeros (except "0" itself): "007" is not a canonical
  // integer and accepting it would make duplicate-request detection
  // depend on formatting.
  if (s.size() > 1 && s[0] == '0') return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

namespace {

/// Recursive-descent parser over a string_view; positions double as
/// error offsets. All failures funnel through fail() so the error
/// message is set exactly once (the first problem wins).
class Parser {
 public:
  Parser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  JsonParse run() {
    JsonParse out;
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) {
      out.error = error_;
      out.offset = error_pos_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      out.error = "trailing bytes after JSON value";
      out.offset = pos_;
      return out;
    }
    out.value = std::move(v);
    return out;
  }

 private:
  bool fail(std::string msg) {
    if (error_.empty()) {
      error_ = std::move(msg);
      error_pos_ = pos_;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool count_element() {
    if (++elements_ > limits_.max_elements) {
      return fail("too many elements (limit " +
                  std::to_string(limits_.max_elements) + ")");
    }
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > limits_.max_depth) {
      return fail("nesting too deep (limit " +
                  std::to_string(limits_.max_depth) + ")");
    }
    if (!count_element()) return false;
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n': return parse_literal("null", out, JsonValue::Kind::Null);
      case 't': {
        if (!parse_literal("true", out, JsonValue::Kind::Bool)) return false;
        out.boolean = true;
        return true;
      }
      case 'f': {
        if (!parse_literal("false", out, JsonValue::Kind::Bool)) return false;
        out.boolean = false;
        return true;
      }
      case '"': return parse_string(out.string) &&
                       (out.kind = JsonValue::Kind::String, true);
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default:  return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, JsonValue& out,
                     JsonValue::Kind kind) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return fail("invalid literal");
    }
    pos_ += lit.size();
    out.kind = kind;
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') {
      pos_ = start;
      return fail("invalid number");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        return fail("digit expected after decimal point");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        return fail("digit expected in exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || ptr != tok.data() + tok.size()) {
      pos_ = start;
      return fail("number out of range");
    }
    out.kind = JsonValue::Kind::Number;
    out.number = v;
    out.raw.assign(tok);
    return true;
  }

  /// Validates one UTF-8 sequence starting at pos_ inside a string and
  /// appends it to `out`.
  bool consume_utf8(std::string& out) {
    const Utf8Scan seq = scan_utf8(text_, pos_);
    if (seq.error != nullptr) return fail(seq.error);
    out.append(text_.substr(pos_, seq.length));
    pos_ += seq.length;
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      std::uint32_t d = 0;
      if (c >= '0' && c <= '9') {
        d = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        d = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid hex digit in \\u escape");
      }
      out = (out << 4) | d;
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      if (out.size() > limits_.max_string_bytes) {
        return fail("string too long (limit " +
                    std::to_string(limits_.max_string_bytes) + " bytes)");
      }
      const char c = peek();
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        if (!consume_utf8(out)) return false;
        continue;
      }
      ++pos_;  // backslash
      if (at_end()) return fail("truncated escape sequence");
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"':  out.push_back('"');  break;
        case '\\': out.push_back('\\'); break;
        case '/':  out.push_back('/');  break;
        case 'b':  out.push_back('\b'); break;
        case 'f':  out.push_back('\f'); break;
        case 'n':  out.push_back('\n'); break;
        case 'r':  out.push_back('\r'); break;
        case 't':  out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return fail("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate in \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          return fail("invalid escape character");
      }
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::Array;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      skip_ws();
      if (!parse_value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("',' or ']' expected in array");
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::Object;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') {
        return fail("object key must be a string");
      }
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) {
        return fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      if (at_end() || peek() != ':') return fail("':' expected after key");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("',' or '}' expected in object");
    }
  }

  std::string_view text_;
  const JsonLimits& limits_;
  std::size_t pos_ = 0;
  std::size_t elements_ = 0;
  std::string error_;
  std::size_t error_pos_ = 0;
};

/// The self-check's limits: the nesting cap artifacts have always been
/// held to, and no element or string-size cap, so large traces still
/// validate.
constexpr JsonLimits kArtifactLimits{
    128, std::numeric_limits<std::size_t>::max(),
    std::numeric_limits<std::size_t>::max()};

}  // namespace

JsonParse json_parse(std::string_view text, const JsonLimits& limits) {
  return Parser(text, limits).run();
}

std::optional<std::string> json_error(std::string_view text) {
  const JsonParse parsed = json_parse(text, kArtifactLimits);
  if (parsed.ok()) return std::nullopt;
  return parsed.error + " at offset " + std::to_string(parsed.offset);
}

}  // namespace sgp::obs
