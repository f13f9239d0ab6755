// Plain-text persistence for dense matrices (embedding tables).
//
// Format: first line "rows cols", then one whitespace-separated row per
// line, full float precision (%.9g round-trips IEEE single). The parser
// takes each value out of one in-memory buffer through
// util::NumberScanner, so every value token must be a whole, finite
// decimal float; bytes after the last value are ignored.

#ifndef EXEA_LA_MATRIX_IO_H_
#define EXEA_LA_MATRIX_IO_H_

#include <string>
#include <string_view>

#include "la/matrix.h"
#include "util/status.h"

namespace exea::la {

[[nodiscard]] Status SaveMatrix(const Matrix& matrix, const std::string& path);

// Parses a matrix out of `text`; `name` (the path, for a file) prefixes
// every error message.
[[nodiscard]] StatusOr<Matrix> ParseMatrix(std::string_view text,
                                           const std::string& name);

// ReadFile plus ParseMatrix, with the path as the name.
[[nodiscard]] StatusOr<Matrix> LoadMatrix(const std::string& path);

// Appends the rows of `matrix` in the body format above: one line per
// row, values separated by single spaces, each formatted as "%.9g".
void AppendMatrixRows(const Matrix& matrix, std::string* out);

}  // namespace exea::la

#endif  // EXEA_LA_MATRIX_IO_H_
