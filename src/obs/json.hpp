// The repository's one JSON grammar, plus the writers' helpers.
//
// json_parse is a strict RFC 8259 reader that builds a small DOM under
// hard limits (depth, element counts, string size) and never throws on
// malformed input: every failure is a structured error with an
// approximate byte offset, classified deterministically so a fuzzer
// can replay it. sgp-serve reads its untrusted request lines with it;
// json_error runs the same grammar as the self-check on every file the
// obs layer writes, before it is handed to about:tracing, Perfetto or
// downstream tooling.
//
// Strictness beyond the bare grammar:
//   * exactly one top-level value, no trailing bytes;
//   * strings must be valid UTF-8 (overlong encodings, lone surrogates
//     in \u escapes and stray continuation bytes are rejected);
//   * numbers must round-trip through from_chars;
//   * duplicate object keys are rejected (a request with two "id"
//     fields is ambiguous, and ambiguity on untrusted input is a bug).
//
// The writers (json_quote, json_number) only emit what the grammar
// accepts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::obs {

/// `s` as a quoted JSON string with control characters, quotes and
/// backslashes escaped. Any byte that does not start a valid UTF-8
/// sequence becomes U+FFFD, so text from outside the program (argv,
/// INI packs) always renders as valid JSON; ASCII and valid UTF-8 pass
/// through unchanged.
std::string json_quote(std::string_view s);

/// A double as a JSON number token, locale-independent
/// (std::to_chars). Non-finite values have no JSON representation and
/// are emitted as null.
std::string json_number(double v);
std::string json_number(std::uint64_t v);

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Ordered map: error messages ("unknown field ...") are deterministic.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// One parsed JSON value. Numbers keep their raw token so integer
/// fields can be re-parsed at full 64-bit range (a double loses
/// precision above 2^53).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;     ///< exact number token (Kind::Number only)
  std::string string;  ///< decoded text (Kind::String only)
  JsonArray array;
  JsonObject object;

  bool is_number() const noexcept { return kind == Kind::Number; }
  bool is_string() const noexcept { return kind == Kind::String; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_object() const noexcept { return kind == Kind::Object; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
};

/// Outcome of one parse: either `value` is set, or `error` holds a
/// human-readable message with `offset` pointing near the problem.
struct JsonParse {
  std::optional<JsonValue> value;
  std::string error;
  std::size_t offset = 0;

  bool ok() const noexcept { return value.has_value(); }
};

/// Defaults are the sgp-serve request limits.
struct JsonLimits {
  std::size_t max_depth = 32;        ///< nesting of arrays/objects
  std::size_t max_elements = 4096;   ///< total values in the document
  std::size_t max_string_bytes = 64 * 1024;  ///< one decoded string
};

/// Parses exactly one JSON document from `text`. Never throws on
/// malformed input; limits violations are ordinary parse errors.
JsonParse json_parse(std::string_view text, const JsonLimits& limits = {});

/// Validates that `text` is one well-formed JSON value under the same
/// grammar, with nesting capped at 128 and no element or string-size
/// cap. Returns std::nullopt on success, or the parse error with its
/// byte offset.
std::optional<std::string> json_error(std::string_view text);

inline bool json_valid(std::string_view text) {
  return !json_error(text).has_value();
}

/// Full-string, range-checked unsigned 64-bit parser: accepts only a
/// plain decimal integer ("0".."18446744073709551615"), rejects signs,
/// leading '+', leading zeros, whitespace, hex, empty strings and
/// overflow. The CLIs' count and seed flags and the daemon's integer
/// request fields share it, so none of them can wrap a negative value.
std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

}  // namespace sgp::obs
