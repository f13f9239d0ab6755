#include "la/matrix_io.h"

#include <charconv>
#include <sstream>

#include "util/check.h"
#include "util/file.h"
#include "util/parse.h"

namespace exea::la {

void AppendMatrixRows(const Matrix& matrix, std::string* out) {
  char buf[32];
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const float* row = matrix.Row(r);
    for (size_t c = 0; c < matrix.cols(); ++c) {
      if (c > 0) out->push_back(' ');
      // The standard defines this as printf's "%.9g".
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf),
                                     static_cast<double>(row[c]),
                                     std::chars_format::general, 9);
      EXEA_DCHECK(ec == std::errc());
      out->append(buf, end);
    }
    out->push_back('\n');
  }
}

Status SaveMatrix(const Matrix& matrix, const std::string& path) {
  std::string text =
      std::to_string(matrix.rows()) + " " + std::to_string(matrix.cols()) +
      "\n";
  // A "%.9g" float takes at most 15 bytes, plus its separator.
  text.reserve(text.size() + matrix.rows() * matrix.cols() * 16);
  AppendMatrixRows(matrix, &text);
  return WriteFile(path, text);
}

StatusOr<Matrix> ParseMatrix(std::string_view text, const std::string& name) {
  util::NumberScanner in(text);
  size_t rows = 0;
  size_t cols = 0;
  if (!in.Next(&rows) || !in.Next(&cols)) {
    return Status::InvalidArgument("bad matrix header in " + name);
  }
  // A garbled header can decode to absurd dimensions; refuse before the
  // allocation instead of aborting inside it. The element budget caps the
  // buffer at kMaxElements * sizeof(float) = 400 MB, far beyond any
  // embedding table this library produces. The product is tested by
  // division so rows * cols cannot wrap around 64 bits and sneak a huge
  // allocation past the guard.
  constexpr uint64_t kMaxElements = 100'000'000;
  if (rows > kMaxElements || cols > kMaxElements ||
      (cols != 0 && rows > kMaxElements / cols)) {
    std::ostringstream msg;
    msg << name << ": implausible matrix dimensions " << rows << "x" << cols;
    return Status::InvalidArgument(msg.str());
  }
  Matrix matrix(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    float* row = matrix.Row(r);
    for (size_t c = 0; c < cols; ++c) {
      if (!in.Next(&row[c])) {
        std::ostringstream msg;
        msg << name << ": truncated at row " << r << " col " << c;
        return Status::InvalidArgument(msg.str());
      }
    }
  }
  return matrix;
}

StatusOr<Matrix> LoadMatrix(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseMatrix(*text, path);
}

}  // namespace exea::la
