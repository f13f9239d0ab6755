#include "util/parse.h"

#include <charconv>
#include <system_error>

namespace exea {
namespace util {

namespace {

// Untrusted strings end up quoted in Status messages and from there in
// logs and NDJSON error responses; keep them short and printable.
std::string Excerpt(const std::string& text) {
  constexpr size_t kMax = 48;
  std::string out;
  out.reserve(text.size() < kMax ? text.size() : kMax + 3);
  for (size_t i = 0; i < text.size() && i < kMax; ++i) {
    char c = text[i];
    out.push_back((c >= 0x20 && c < 0x7f) ? c : '?');
  }
  if (text.size() > kMax) out += "...";
  return out;
}

template <typename T>
Status ParseWhole(const std::string& text, int base, T* value) {
  if (text.empty()) {
    return Status::InvalidArgument("expected a number, got an empty string");
  }
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *value, base);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("number out of range: '" + Excerpt(text) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("not a number: '" + Excerpt(text) + "'");
  }
  return Status::Ok();
}

template <typename T>
Status CheckRange(T value, T min_value, T max_value, const std::string& text) {
  // Written as a negated conjunction so a NaN (which fails every
  // comparison) is rejected rather than accepted.
  if (!(value >= min_value && value <= max_value)) {
    return Status::OutOfRange("value '" + Excerpt(text) +
                              "' is outside the allowed range");
  }
  return Status::Ok();
}

}  // namespace

Status ParseInt32(const std::string& text, int32_t min_value,
                  int32_t max_value, int32_t* out) {
  int32_t value = 0;
  Status parsed = ParseWhole(text, 10, &value);
  if (!parsed.ok()) return parsed;
  Status ranged = CheckRange(value, min_value, max_value, text);
  if (!ranged.ok()) return ranged;
  *out = value;
  return Status::Ok();
}

Status ParseInt64(const std::string& text, int64_t min_value,
                  int64_t max_value, int64_t* out) {
  int64_t value = 0;
  Status parsed = ParseWhole(text, 10, &value);
  if (!parsed.ok()) return parsed;
  Status ranged = CheckRange(value, min_value, max_value, text);
  if (!ranged.ok()) return ranged;
  *out = value;
  return Status::Ok();
}

Status ParseDouble(const std::string& text, double min_value, double max_value,
                   double* out) {
  if (text.empty()) {
    return Status::InvalidArgument("expected a number, got an empty string");
  }
  double value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("number out of range: '" + Excerpt(text) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("not a number: '" + Excerpt(text) + "'");
  }
  Status ranged = CheckRange(value, min_value, max_value, text);
  if (!ranged.ok()) return ranged;
  *out = value;
  return Status::Ok();
}

Status ParseUint64Hex(const std::string& text, uint64_t* out) {
  uint64_t value = 0;
  Status parsed = ParseWhole(text, 16, &value);
  if (!parsed.ok()) return parsed;
  *out = value;
  return Status::Ok();
}

std::string_view NumberScanner::NextToken() {
  SkipSpace();
  size_t i = 0;
  while (i < rest_.size() && !IsSpace(rest_[i])) ++i;
  std::string_view token = rest_.substr(0, i);
  rest_.remove_prefix(i);
  return token;
}

}  // namespace util
}  // namespace exea
