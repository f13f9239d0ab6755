// Source loading for exea_lint: reading files, blanking comments and
// string literals while preserving line/column structure, and mining
// waiver comments. Every later pass (lexical rules, the declaration
// indexer, the cross-TU analyses) works on the SourceFile produced here.

#ifndef EXEA_TOOLS_LINT_SOURCE_H_
#define EXEA_TOOLS_LINT_SOURCE_H_

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace lint {

// One scanned translation unit: the raw lines, the comment/string-stripped
// lines (same count, columns preserved), and per-line waivers.
struct SourceFile {
  std::string path;        // as reported in diagnostics
  bool is_header = false;
  bool in_src = false;     // under a src/ directory (not tools/, bench/)
  bool is_rng_impl = false;  // src/util/rng.* — exempt from raw-rng
  std::string module;      // src/<module>/..., "tools", "bench", or empty
  std::string src_rel;     // path relative to src/ for include resolution
  std::vector<std::string> raw;
  std::vector<std::string> code;  // comments and literals blanked out
  std::vector<std::set<std::string>> waivers;
};

bool IsIdentChar(char c);
bool HasSuffix(const std::string& s, const std::string& suffix);

// First whole-word occurrence of `word` in `line`, or npos.
size_t FindWord(const std::string& line, const std::string& word);

// Collects "exea-lint: allow(rule1, rule2)" waivers out of a comment.
void ParseWaivers(const std::string& comment, std::set<std::string>* out);

// Blanks comments, string literals, and char literals (preserving line
// structure and column positions) so the rule matchers never fire inside
// them. Comment text is mined for waivers before being dropped.
void StripToCode(SourceFile* file);

// Reads the whole file into one string; false when it cannot be read.
bool ReadFileContent(const std::filesystem::path& path, std::string* out);

// Classifies the path (is_header, module, src_rel …), splits the content
// into lines and runs StripToCode.
void BuildSourceFile(const std::string& path_str, const std::string& content,
                     SourceFile* out);

// Recursively collects .cc/.h files under `root` (or `root` itself when
// it is a regular file).
void CollectFiles(const std::filesystem::path& root,
                  std::vector<std::filesystem::path>* out);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_SOURCE_H_
