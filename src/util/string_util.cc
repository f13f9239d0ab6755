#include "util/string_util.h"

#include <cctype>
#include <cfloat>
#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "util/check.h"

namespace exea {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      parts.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // +1 for the terminating NUL vsnprintf writes.
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendFixed6(double value, std::string* out) {
  // Sign, every integer digit of DBL_MAX, the point and six decimals.
  char buf[1 + DBL_MAX_10_EXP + 1 + 1 + 6];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, 6);
  EXEA_CHECK(ec == std::errc());
  out->append(buf, end);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string StripDigits(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace exea
