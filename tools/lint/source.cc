#include "lint/source.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace lint {

namespace fs = std::filesystem;

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

size_t FindWord(const std::string& line, const std::string& word) {
  size_t at = 0;
  while ((at = line.find(word, at)) != std::string::npos) {
    bool left = at == 0 || !IsIdentChar(line[at - 1]);
    bool right = at + word.size() >= line.size() ||
                 !IsIdentChar(line[at + word.size()]);
    if (left && right) return at;
    at += word.size();
  }
  return std::string::npos;
}

void ParseWaivers(const std::string& comment, std::set<std::string>* out) {
  const std::string marker = "exea-lint: allow(";
  size_t at = comment.find(marker);
  if (at == std::string::npos) return;
  size_t open = at + marker.size();
  size_t close = comment.find(')', open);
  if (close == std::string::npos) return;
  std::string inside = comment.substr(open, close - open);
  std::string name;
  std::istringstream parts(inside);
  while (std::getline(parts, name, ',')) {
    size_t b = name.find_first_not_of(" \t");
    size_t e = name.find_last_not_of(" \t");
    if (b != std::string::npos) out->insert(name.substr(b, e - b + 1));
  }
}

void StripToCode(SourceFile* file) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string comment_text;
  file->code.resize(file->raw.size());
  file->waivers.resize(file->raw.size());
  for (size_t li = 0; li < file->raw.size(); ++li) {
    const std::string& in = file->raw[li];
    std::string out(in.size(), ' ');
    if (state == State::kLineComment) state = State::kCode;
    for (size_t i = 0; i < in.size(); ++i) {
      char c = in[i];
      char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            comment_text.assign(in, i, std::string::npos);
            ParseWaivers(comment_text, &file->waivers[li]);
            i = in.size();  // rest of line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            comment_text.clear();
            ++i;
          } else if (c == '"') {
            out[i] = '"';
            state = State::kString;
          } else if (c == '\'') {
            out[i] = '\'';
            state = State::kChar;
          } else {
            out[i] = c;
          }
          break;
        case State::kBlockComment:
          comment_text.push_back(c);
          if (c == '*' && next == '/') {
            ParseWaivers(comment_text, &file->waivers[li]);
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            out[i] = '"';
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            out[i] = '\'';
            state = State::kCode;
          }
          break;
        case State::kLineComment:
          break;  // unreachable: reset at line start
      }
    }
    if (state == State::kBlockComment) {
      ParseWaivers(comment_text, &file->waivers[li]);
      comment_text.push_back('\n');
    }
    // A string/char literal never legally spans a newline in this codebase.
    if (state == State::kString || state == State::kChar) state = State::kCode;
    file->code[li] = std::move(out);
  }
}

bool ReadFileContent(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

namespace {

void ClassifyPath(const std::string& path_str, SourceFile* out) {
  out->path = path_str;
  out->is_header = HasSuffix(out->path, ".h");
  // Classify by path segment, so absolute and relative invocations agree.
  std::string generic = "/" + out->path;
  out->in_src = generic.find("/src/") != std::string::npos;
  out->is_rng_impl = generic.find("/util/rng.") != std::string::npos;
  if (out->in_src) {
    size_t at = generic.rfind("/src/");
    std::string rel = generic.substr(at + 5);
    out->src_rel = rel;
    size_t slash = rel.find('/');
    if (slash != std::string::npos) out->module = rel.substr(0, slash);
  } else if (generic.find("/tools/") != std::string::npos) {
    out->module = "tools";
  } else if (generic.find("/bench/") != std::string::npos) {
    out->module = "bench";
  }
}

void SplitLines(const std::string& content, std::vector<std::string>* out) {
  std::string line;
  for (char c : content) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      out->push_back(line);
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) {
    if (line.back() == '\r') line.pop_back();
    out->push_back(line);
  }
}

}  // namespace

void BuildSourceFile(const std::string& path_str, const std::string& content,
                     SourceFile* out) {
  ClassifyPath(path_str, out);
  SplitLines(content, &out->raw);
  StripToCode(out);
}

void CollectFiles(const fs::path& root, std::vector<fs::path>* out) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    out->push_back(root);
    return;
  }
  if (!fs::is_directory(root, ec)) return;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    std::string p = it->path().generic_string();
    if (HasSuffix(p, ".cc") || HasSuffix(p, ".h")) out->push_back(it->path());
  }
}

}  // namespace lint
