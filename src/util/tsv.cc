#include "util/tsv.h"

#include <fstream>
#include <sstream>

#include "util/file.h"
#include "util/string_util.h"

namespace exea {

StatusOr<TsvRows> SplitTsv(std::string_view text, size_t min_fields,
                           const std::string& name) {
  TsvRows rows;
  std::string_view rest = text;
  size_t line_no = 0;
  while (!rest.empty()) {
    size_t newline = rest.find('\n');
    std::string_view line = rest.substr(0, newline);
    rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                         : newline + 1);
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    size_t first = rows.fields.size();
    for (size_t start = 0;;) {
      size_t tab = trimmed.find('\t', start);
      rows.fields.push_back(trimmed.substr(start, tab - start));
      if (tab == std::string_view::npos) break;
      start = tab + 1;
    }
    size_t fields = rows.fields.size() - first;
    if (fields < min_fields) {
      std::ostringstream msg;
      msg << name << ":" << line_no << ": expected at least " << min_fields
          << " fields, got " << fields;
      return Status::InvalidArgument(msg.str());
    }
    rows.row_ends.push_back(rows.fields.size());
  }
  return rows;
}

StatusOr<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path, size_t min_fields) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto split = SplitTsv(*text, min_fields, path);
  if (!split.ok()) return split.status();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(split->size());
  for (size_t r = 0; r < split->size(); ++r) {
    std::span<const std::string_view> fields = (*split)[r];
    rows.emplace_back(fields.begin(), fields.end());
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
