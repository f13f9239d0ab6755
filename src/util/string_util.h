// Small string helpers used across the library (splitting, trimming,
// joining, printf-style formatting).

#ifndef EXEA_UTIL_STRING_UTIL_H_
#define EXEA_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace exea {

// Splits `input` on `delim`. Empty fields are preserved ("a||b" -> 3 parts).
std::vector<std::string> Split(std::string_view input, char delim);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Appends `value` to `out` exactly as printf("%.6f", value) prints it,
// without printf: std::to_chars in fixed format is defined as printf's.
void AppendFixed6(double value, std::string* out);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

// Strips ASCII digits from a string ("GeForce 400" -> "GeForce ").
// Used by the simulated LLM to model numeric insensitivity.
std::string StripDigits(std::string_view s);

// Lowercases ASCII letters.
std::string AsciiLower(std::string_view s);

}  // namespace exea

#endif  // EXEA_UTIL_STRING_UTIL_H_
