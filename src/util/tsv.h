// Tab-separated-value reading/writing, the on-disk format for KG triples
// and alignment files (matching the DBP15K/OpenEA distribution format).

#ifndef EXEA_UTIL_TSV_H_
#define EXEA_UTIL_TSV_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace exea {

// The rows of a TSV buffer, each field a view into the buffer, which must
// outlive them.
struct TsvRows {
  std::vector<std::string_view> fields;  // every row's fields, in order
  std::vector<size_t> row_ends;          // one past each row's last field

  size_t size() const { return row_ends.size(); }
  std::span<const std::string_view> operator[](size_t row) const {
    size_t begin = row == 0 ? 0 : row_ends[row - 1];
    return {fields.data() + begin, row_ends[row] - begin};
  }
};

// Splits `text` into rows of fields. Each line is trimmed of surrounding
// whitespace; blank lines and lines starting with '#' are skipped, and
// the rest split on every tab. Fails if any row has fewer than
// `min_fields` fields; the message names the line as "<name>:<line>".
[[nodiscard]] StatusOr<TsvRows> SplitTsv(std::string_view text,
                                         size_t min_fields,
                                         const std::string& name);

// ReadFile plus SplitTsv, with the path as the name, each field copied.
[[nodiscard]] StatusOr<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path, size_t min_fields);

// Writes rows as TSV. Overwrites `path`.
[[nodiscard]] Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows);

}  // namespace exea

#endif  // EXEA_UTIL_TSV_H_
