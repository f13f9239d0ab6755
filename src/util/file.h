// Whole-file I/O. Each payload moves between disk and one in-memory
// buffer in a single pass, so the parsers on top (TSV, matrix, index)
// work on a std::string_view instead of making one stream call per line
// or per value.

#ifndef EXEA_UTIL_FILE_H_
#define EXEA_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace exea {

// The whole contents of `path`; IO_ERROR if it cannot be opened or read.
[[nodiscard]] StatusOr<std::string> ReadFile(const std::string& path);

// Replaces the contents of `path` with `bytes`; IO_ERROR if it cannot be
// opened, written or closed.
[[nodiscard]] Status WriteFile(const std::string& path,
                               std::string_view bytes);

}  // namespace exea

#endif  // EXEA_UTIL_FILE_H_
