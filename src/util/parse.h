// Checked numeric parsing for untrusted inputs.
//
// Every byte that arrives from outside the process — NDJSON request
// fields, snapshot MANIFEST rows, TSV cells, argv — must go through one
// of these helpers instead of atoi/stoi/strtol. The contract is strict
// on purpose:
//
//   * the WHOLE string must be consumed ("2junk", "1 ", "" all fail),
//   * the value must land inside the caller-supplied closed range,
//   * failure is a Status (INVALID_ARGUMENT for malformed text,
//     OUT_OF_RANGE for well-formed values outside the bounds), never a
//     silent 0 or a partial prefix.
//
// exea_lint's `atoi-on-untrusted` rule bans the libc/std parsers across
// src/, tools/ and bench/; its taint pass treats these functions as
// sanitizers that kill taint on the parsed output.

#ifndef EXEA_UTIL_PARSE_H_
#define EXEA_UTIL_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/status.h"

namespace exea {
namespace util {

// Parses `text` as a base-10 signed integer into `*out`. The full string
// must parse and the value must satisfy min_value <= value <= max_value;
// on failure `*out` is left untouched.
[[nodiscard]] Status ParseInt32(const std::string& text, int32_t min_value,
                                int32_t max_value, int32_t* out);
[[nodiscard]] Status ParseInt64(const std::string& text, int64_t min_value,
                                int64_t max_value, int64_t* out);

// Parses `text` as a decimal floating-point value. NaN never satisfies
// the range check, so "nan" is rejected; "inf" only passes if the bounds
// admit it (they never should for untrusted input).
[[nodiscard]] Status ParseDouble(const std::string& text, double min_value,
                                 double max_value, double* out);

// Parses `text` as an unsigned base-16 integer (no "0x" prefix), the
// format snapshot MANIFEST checksums are written in.
[[nodiscard]] Status ParseUint64Hex(const std::string& text, uint64_t* out);

// Reads whitespace-separated tokens out of one in-memory text buffer: the
// tokenizer for every numeric snapshot payload (embedding matrices, the
// IVF index). A token is a maximal run of bytes other than the C-locale
// spaces " \t\n\v\f\r". Next() holds each token to the contract above:
// std::from_chars must consume it whole, so "1.5abc", "1.5e", "0x1p3"
// and a leading '+' fail, and an out-of-range value fails, including
// float overflow ("1e39") and underflow to zero ("1e-50"). A float must
// also be finite, so "nan" and "inf" fail. On failure Next() returns
// false and leaves `*out` untouched; the scanner's position is then
// unspecified.
class NumberScanner {
 public:
  // Borrows `text`, which must outlive the scanner.
  explicit NumberScanner(std::string_view text) : rest_(text) {}

  // The next token, or an empty view at the end of the buffer.
  std::string_view NextToken();

  // Parses the next token as a T (an unsigned integer or a float).
  template <typename T>
  [[nodiscard]] bool Next(T* out);

 private:
  static bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  void SkipSpace() {
    size_t i = 0;
    while (i < rest_.size() && IsSpace(rest_[i])) ++i;
    rest_.remove_prefix(i);
  }

  std::string_view rest_;  // not yet consumed
};

template <typename T>
bool NumberScanner::Next(T* out) {
  SkipSpace();
  const char* begin = rest_.data();
  const char* end = begin + rest_.size();
  T value{};
  auto [ptr, ec] = std::from_chars(begin, end, value);
  // from_chars stops at the first byte it cannot use; the token is
  // whole only if that byte is a separator or the end of the buffer.
  if (ec != std::errc() || (ptr != end && !IsSpace(*ptr))) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  rest_.remove_prefix(static_cast<size_t>(ptr - begin));
  *out = value;
  return true;
}

}  // namespace util
}  // namespace exea

#endif  // EXEA_UTIL_PARSE_H_
