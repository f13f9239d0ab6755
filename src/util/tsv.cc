#include "util/tsv.h"

#include <fstream>
#include <sstream>

#include "util/file.h"
#include "util/string_util.h"

namespace exea {

StatusOr<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path, size_t min_fields) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  std::vector<std::vector<std::string>> rows;
  std::string_view rest = *text;
  size_t line_no = 0;
  while (!rest.empty()) {
    size_t newline = rest.find('\n');
    std::string_view line = rest.substr(0, newline);
    rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                         : newline + 1);
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> fields = Split(trimmed, '\t');
    if (fields.size() < min_fields) {
      std::ostringstream msg;
      msg << path << ":" << line_no << ": expected at least " << min_fields
          << " fields, got " << fields.size();
      return Status::InvalidArgument(msg.str());
    }
    rows.push_back(std::move(fields));
  }
  return rows;
}

Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << '\t';
      out << row[i];
    }
    out << '\n';
  }
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace exea
