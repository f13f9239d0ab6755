#include "lint/taint.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>

#include "lint/index.h"

namespace lint {

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ lexing

// Type spellings and storage keywords that appear inside expressions but
// never name a value that could carry taint.
bool IsTypeWord(const std::string& ident) {
  static const char* const kWords[] = {
      "void",     "int",      "bool",      "char",     "float",
      "double",   "long",     "short",     "unsigned", "signed",
      "auto",     "const",    "constexpr", "static",   "mutable",
      "volatile", "size_t",   "int8_t",    "int16_t",  "int32_t",
      "int64_t",  "uint8_t",  "uint16_t",  "uint32_t", "uint64_t",
      "ssize_t",  "ptrdiff_t"};
  for (const char* w : kWords) {
    if (ident == w) return true;
  }
  return false;
}

// Methods whose result describes the container rather than exposing its
// contents: x.size() tells you how big x is, not what x holds, so taint
// does not flow through the receiver. begin()/end() yield iterator
// identity, which the pass likewise treats as taint-free.
bool IsMeasureMethod(const std::string& ident) {
  static const char* const kWords[] = {"size",   "length", "count",
                                       "empty",  "capacity", "ok",
                                       "begin",  "end",    "cbegin",
                                       "cend",   "max_size"};
  for (const char* w : kWords) {
    if (ident == w) return true;
  }
  return false;
}

bool IsAllCapsIdent(const std::string& ident) {
  bool has_alpha = false;
  for (char c : ident) {
    if (c >= 'a' && c <= 'z') return false;
    if ((c >= 'A' && c <= 'Z')) has_alpha = true;
  }
  return has_alpha;
}

// Identifiers that can carry a value through `expr`: skips numeric
// literals, keywords, type spellings, ALL_CAPS macros, call names, and
// the whole receiver chain of size()-like measure methods (so
// `result.candidates.size()` contributes nothing — the count describes
// the container, not its contents).
void CollectIdents(const std::string& expr, std::vector<std::string>* out) {
  size_t i = 0;
  // Index into *out where the current `a.b->c` member chain started, or
  // npos when no chain is active — a measure call pops the whole chain.
  size_t chain_start = std::string::npos;
  bool member_next = false;  // next ident is reached via . or ->
  while (i < expr.size()) {
    if (!IsIdentChar(expr[i])) {
      if (expr[i] == ' ') {
        ++i;
      } else if (expr[i] == '.') {
        member_next = true;
        ++i;
      } else if (expr[i] == '-' && i + 1 < expr.size() &&
                 expr[i + 1] == '>') {
        member_next = true;
        i += 2;
      } else {
        member_next = false;
        chain_start = std::string::npos;
        ++i;
      }
      continue;
    }
    size_t b = i;
    while (i < expr.size() && IsIdentChar(expr[i])) ++i;
    std::string ident = expr.substr(b, i - b);
    bool member_access = member_next;
    member_next = false;
    if (ident[0] >= '0' && ident[0] <= '9') {  // numeric literal
      chain_start = std::string::npos;
      continue;
    }
    size_t after = i;
    while (after < expr.size() && expr[after] == ' ') ++after;
    bool is_call = after < expr.size() && expr[after] == '(';
    if (is_call) {
      if (member_access && IsMeasureMethod(ident) &&
          chain_start != std::string::npos) {
        out->resize(chain_start);
      }
      chain_start = std::string::npos;
      continue;
    }
    if (IsCallNoise(ident) || IsTypeWord(ident) || IsAllCapsIdent(ident)) {
      chain_start = std::string::npos;
      continue;
    }
    if (!member_access || chain_start == std::string::npos) {
      chain_start = out->size();
    }
    out->push_back(std::move(ident));
  }
}

// Splits the contents of a balanced group on top-level commas.
std::vector<std::string> SplitTopLevel(const std::string& text, char sep) {
  std::vector<std::string> out;
  int paren = 0, angle = 0, bracket = 0, brace = 0;
  size_t begin = 0;
  for (size_t k = 0; k < text.size(); ++k) {
    char c = text[k];
    if (c == '(') ++paren;
    else if (c == ')') --paren;
    else if (c == '<') ++angle;
    else if (c == '>' && angle > 0) --angle;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == sep && paren == 0 && angle == 0 && bracket == 0 &&
             brace == 0) {
      out.push_back(text.substr(begin, k - begin));
      begin = k + 1;
    }
  }
  out.push_back(text.substr(begin));
  return out;
}

// Base names of every call inside `text` (helper for assignment facts and
// per-argument severing).
void CollectCallNames(const std::string& text, std::vector<std::string>* out);

// The ::-chain ending right before `at` and its start offset.
std::string ChainBefore(const std::string& s, size_t at, size_t* begin) {
  size_t b = at;
  while (b > 0) {
    if (IsIdentChar(s[b - 1])) {
      --b;
    } else if (b >= 2 && s[b - 1] == ':' && s[b - 2] == ':') {
      b -= 2;
    } else {
      break;
    }
  }
  *begin = b;
  return s.substr(b, at - b);
}

void CollectCallNames(const std::string& text, std::vector<std::string>* out) {
  for (size_t k = 0; k < text.size(); ++k) {
    if (text[k] != '(' || k == 0 || !IsIdentChar(text[k - 1])) continue;
    size_t begin = 0;
    std::string chain = ChainBefore(text, k, &begin);
    size_t sep = chain.rfind("::");
    std::string base =
        sep == std::string::npos ? chain : chain.substr(sep + 2);
    if (!base.empty() && !IsCallNoise(base)) out->push_back(std::move(base));
  }
}

// --------------------------------------------------- statement sweep

class FactCollector {
 public:
  FactCollector(const SourceFile& file, FileSummary* out)
      : file_(file), out_(out) {}

  void Run() {
    BuildFnMap();
    // Accumulate outer statements exactly like the indexer: whitespace
    // collapsed, terminated by ';' at paren depth 0 or by a brace event.
    std::string stmt;
    size_t stmt_line = 0, stmt_col = 1;
    int paren = 0;
    bool continued_directive = false;
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      if (continued_directive) {
        continued_directive =
            !file_.raw[li].empty() && file_.raw[li].back() == '\\';
        continue;
      }
      size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') {
        continued_directive =
            !file_.raw[li].empty() && file_.raw[li].back() == '\\';
        continue;
      }
      for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '(') ++paren;
        if (c == ')' && paren > 0) --paren;
        bool terminator =
            (c == ';' && paren == 0) || c == '{' || c == '}';
        if (terminator) {
          ProcessStatement(stmt, stmt_line, stmt_col);
          stmt.clear();
          stmt_line = 0;
          paren = 0;
          continue;
        }
        if (c != ' ' && c != '\t') {
          if (stmt.empty()) {
            stmt_line = li + 1;
            stmt_col = i + 1;
          }
          stmt.push_back(c);
        } else if (!stmt.empty() && stmt.back() != ' ') {
          stmt.push_back(' ');
        }
      }
      if (!stmt.empty() && stmt.back() != ' ') stmt.push_back(' ');
    }
    ProcessStatement(stmt, stmt_line, stmt_col);
  }

 private:
  // Innermost function definition whose body spans `line` (1-based).
  void BuildFnMap() {
    const auto& decls = out_->decls;
    for (size_t di = 0; di < decls.size(); ++di) {
      const FnDecl& d = decls[di];
      if (!d.is_definition || d.body_begin == 0) continue;
      size_t end = d.body_end == 0 ? file_.code.size() : d.body_end;
      for (size_t l = d.body_begin; l <= end && l <= file_.code.size();
           ++l) {
        auto it = fn_of_line_.find(l);
        if (it == fn_of_line_.end() ||
            decls[it->second].body_begin < d.body_begin) {
          fn_of_line_[l] = static_cast<int>(di);
        }
      }
    }
  }

  int FnOf(size_t line) const {
    auto it = fn_of_line_.find(line);
    return it == fn_of_line_.end() ? -1 : it->second;
  }

  void ProcessStatement(const std::string& raw_stmt, size_t line,
                        size_t col) {
    std::string stmt = raw_stmt;
    size_t b = stmt.find_first_not_of(" ");
    if (b == std::string::npos) return;
    if (b > 0) stmt = stmt.substr(b);
    int fn = FnOf(line);

    // EXEA_CHECK(...)/EXEA_DCHECK_GE(...): everything the assertion
    // mentions is range-validated from here on.
    if (stmt.rfind("EXEA_CHECK", 0) == 0 ||
        stmt.rfind("EXEA_DCHECK", 0) == 0) {
      size_t open = stmt.find('(');
      size_t close = stmt.rfind(')');
      if (open != std::string::npos && close != std::string::npos &&
          close > open) {
        TaintGuard guard;
        CollectIdents(stmt.substr(open + 1, close - open - 1),
                      &guard.idents);
        guard.line = line;
        guard.fn = fn;
        if (!guard.idents.empty()) {
          out_->taint_guards.push_back(std::move(guard));
        }
      }
      return;
    }

    std::string lhs = AssignTarget(stmt);
    CollectCalls(stmt, lhs, line, col, fn);
    CollectAssign(stmt, lhs, line, col, fn);
    CollectIndexSinks(stmt, line, col, fn);
    CollectLoopBound(stmt, line, col, fn);
    CollectAssocDecls(stmt);
  }

  // `std::map<...> name` / `std::unordered_map<...> name`: remember the
  // declared name so subscripts keyed on it read as associative lookups.
  void CollectAssocDecls(const std::string& stmt) {
    for (const char* t : {"std::map<", "std::unordered_map<"}) {
      size_t at = stmt.find(t);
      while (at != std::string::npos) {
        size_t k = at + std::strlen(t);
        int depth = 1;
        for (; k < stmt.size() && depth > 0; ++k) {
          if (stmt[k] == '<') ++depth;
          if (stmt[k] == '>') --depth;
        }
        while (k < stmt.size() && (stmt[k] == ' ' || stmt[k] == '&')) ++k;
        size_t name_end = k;
        while (name_end < stmt.size() && IsIdentChar(stmt[name_end])) {
          ++name_end;
        }
        if (name_end > k) {
          out_->taint_assoc.push_back(stmt.substr(k, name_end - k));
        }
        at = stmt.find(t, name_end);
      }
    }
  }

  // The variable a statement writes: the left side of a top-level '='
  // (or compound assignment), or "return" for return statements, or "".
  // Member writes (a.b = x, a->b = x) taint the base object; plain and
  // declaration writes take the last identifier before the '='.
  static std::string AssignTarget(const std::string& stmt) {
    if (stmt.rfind("return ", 0) == 0 || stmt == "return") return "return";
    int paren = 0, bracket = 0, brace = 0;
    size_t eq = std::string::npos;
    for (size_t k = 0; k < stmt.size(); ++k) {
      char c = stmt[k];
      if (c == '(') ++paren;
      else if (c == ')') --paren;
      else if (c == '[') ++bracket;
      else if (c == ']') --bracket;
      else if (c == '{') ++brace;
      else if (c == '}') --brace;
      else if (c == '=' && paren == 0 && bracket == 0 && brace == 0) {
        if (k + 1 < stmt.size() && stmt[k + 1] == '=') {
          ++k;
          continue;
        }
        if (k > 0 && std::string("=<>!").find(stmt[k - 1]) !=
                         std::string::npos) {
          continue;
        }
        eq = k;
        break;
      }
    }
    if (eq == std::string::npos) return "";
    std::string head = stmt.substr(0, eq);
    // Compound assignment: strip the operator char (+=, -=, ...).
    while (!head.empty() &&
           std::string("+-*/%&|^ ").find(head.back()) != std::string::npos) {
      head.pop_back();
    }
    // Array-element writes name the array: drop trailing [...] groups.
    while (!head.empty() && head.back() == ']') {
      int depth = 0;
      size_t k = head.size();
      while (k > 0) {
        --k;
        if (head[k] == ']') ++depth;
        if (head[k] == '[' && --depth == 0) break;
      }
      head.resize(k);
      while (!head.empty() && head.back() == ' ') head.pop_back();
    }
    bool member = head.find('.') != std::string::npos ||
                  head.find("->") != std::string::npos;
    std::vector<std::string> idents;
    CollectIdents(head, &idents);
    if (idents.empty()) return "";
    return member ? idents.front() : idents.back();
  }

  // True when the (name, line) pair is a function declaration the indexer
  // recorded — a definition header like `bool Read(std::istream& in)` must
  // not be mistaken for a call of Read binding its own parameter types.
  bool IsDeclHeader(const std::string& base, size_t line) const {
    for (const FnDecl& d : out_->decls) {
      if (d.name == base && d.line == line) return true;
    }
    return false;
  }

  void CollectCalls(const std::string& stmt, const std::string& lhs,
                    size_t line, size_t col, int fn) {
    for (size_t k = 0; k < stmt.size(); ++k) {
      if (stmt[k] != '(' || k == 0 || !IsIdentChar(stmt[k - 1])) continue;
      size_t begin = 0;
      std::string chain = ChainBefore(stmt, k, &begin);
      if (chain.empty()) continue;
      size_t sep = chain.rfind("::");
      std::string base =
          sep == std::string::npos ? chain : chain.substr(sep + 2);
      if (base.empty() || IsCallNoise(base) || IsTypeWord(base)) continue;
      if (IsDeclHeader(base, line)) continue;
      // Balanced argument group.
      int depth = 0;
      size_t close = k;
      for (; close < stmt.size(); ++close) {
        if (stmt[close] == '(') ++depth;
        if (stmt[close] == ')' && --depth == 0) break;
      }
      if (close >= stmt.size()) continue;
      std::string args_text = stmt.substr(k + 1, close - k - 1);
      TaintCall call;
      call.name = base;
      call.lhs = lhs;
      call.line = line;
      call.col = col;
      call.fn = fn;
      if (args_text.find_first_not_of(" ") != std::string::npos) {
        for (const std::string& piece : SplitTopLevel(args_text, ',')) {
          std::vector<std::string> idents;
          CollectIdents(piece, &idents);
          call.args.push_back(std::move(idents));
          std::vector<std::string> nested;
          CollectCallNames(piece, &nested);
          call.arg_calls.push_back(std::move(nested));
        }
      }
      // `Type name(args)` construction: the type is the callee that
      // matters (Deadline deadline(ms) is a call of Deadline). Emit an
      // extra fact under the type's name when one precedes the called
      // identifier directly.
      size_t before = begin;
      while (before > 0 && stmt[before - 1] == ' ') --before;
      if (before > 0 && IsIdentChar(stmt[before - 1])) {
        size_t tbegin = 0;
        std::string type_chain = ChainBefore(stmt, before, &tbegin);
        size_t tsep = type_chain.rfind("::");
        std::string type_base = tsep == std::string::npos
                                    ? type_chain
                                    : type_chain.substr(tsep + 2);
        if (!type_base.empty() && type_base[0] >= 'A' &&
            type_base[0] <= 'Z' && !IsAllCapsIdent(type_base) &&
            !IsCallNoise(type_base)) {
          TaintCall ctor = call;
          ctor.name = type_base;
          // The constructed variable is the assignment target.
          ctor.lhs = base;
          out_->taint_calls.push_back(std::move(ctor));
        }
      }
      out_->taint_calls.push_back(std::move(call));
      k = close;
    }
  }

  void CollectAssign(const std::string& stmt, const std::string& lhs,
                     size_t line, size_t col, int fn) {
    if (lhs.empty()) return;
    std::string rhs_text;
    if (lhs == "return") {
      rhs_text = stmt.size() > 7 ? stmt.substr(7) : "";
    } else {
      // Everything right of the top-level '=' AssignTarget found.
      int paren = 0, bracket = 0, brace = 0;
      for (size_t k = 0; k < stmt.size(); ++k) {
        char c = stmt[k];
        if (c == '(') ++paren;
        else if (c == ')') --paren;
        else if (c == '[') ++bracket;
        else if (c == ']') --bracket;
        else if (c == '{') ++brace;
        else if (c == '}') --brace;
        else if (c == '=' && paren == 0 && bracket == 0 && brace == 0) {
          if (k + 1 < stmt.size() && stmt[k + 1] == '=') {
            ++k;
            continue;
          }
          if (k > 0 && std::string("=<>!").find(stmt[k - 1]) !=
                           std::string::npos) {
            continue;
          }
          rhs_text = stmt.substr(k + 1);
          break;
        }
      }
    }
    if (rhs_text.empty()) return;
    TaintAssign assign;
    assign.lhs = lhs;
    CollectIdents(rhs_text, &assign.rhs);
    CollectCallNames(rhs_text, &assign.calls);
    if (assign.rhs.empty() && assign.calls.empty()) return;
    assign.line = line;
    assign.col = col;
    assign.fn = fn;
    out_->taint_assigns.push_back(std::move(assign));
  }

  void CollectIndexSinks(const std::string& stmt, size_t line, size_t col,
                         int fn) {
    for (size_t k = 0; k < stmt.size(); ++k) {
      if (stmt[k] != '[') continue;
      size_t before = k;
      while (before > 0 && stmt[before - 1] == ' ') --before;
      if (before == 0) continue;
      char prev = stmt[before - 1];
      if (!IsIdentChar(prev) && prev != ')' && prev != ']') continue;
      int depth = 0;
      size_t close = k;
      for (; close < stmt.size(); ++close) {
        if (stmt[close] == '[') ++depth;
        if (stmt[close] == ']' && --depth == 0) break;
      }
      if (close >= stmt.size()) continue;
      TaintSink sink;
      sink.kind = "index";
      size_t bb = before;
      while (bb > 0 && IsIdentChar(stmt[bb - 1])) --bb;
      sink.base = stmt.substr(bb, before - bb);
      CollectIdents(stmt.substr(k + 1, close - k - 1), &sink.idents);
      if (!sink.idents.empty()) {
        sink.line = line;
        sink.col = col;
        sink.fn = fn;
        out_->taint_sinks.push_back(std::move(sink));
      }
      k = close;
    }
  }

  // Splits a condition on top-level && and ||.
  static std::vector<std::string> SplitClauses(const std::string& cond) {
    std::vector<std::string> out;
    int paren = 0, bracket = 0;
    size_t begin = 0;
    for (size_t k = 0; k + 1 < cond.size(); ++k) {
      char c = cond[k];
      if (c == '(') ++paren;
      else if (c == ')') --paren;
      else if (c == '[') ++bracket;
      else if (c == ']') --bracket;
      else if (paren == 0 && bracket == 0 &&
               ((c == '&' && cond[k + 1] == '&') ||
                (c == '|' && cond[k + 1] == '|'))) {
        out.push_back(cond.substr(begin, k - begin));
        begin = k + 2;
        ++k;
      }
    }
    out.push_back(cond.substr(begin));
    return out;
  }

  // A top-level <, <=, >, >=, or != comparison (not inside a nested call).
  static bool HasRelational(const std::string& clause) {
    int paren = 0;
    for (size_t k = 0; k < clause.size(); ++k) {
      char c = clause[k];
      if (c == '(') ++paren;
      else if (c == ')') --paren;
      if (paren != 0) continue;
      if (c == '<' || c == '>') {
        // Skip -> member access and << / >> shifts.
        if (k > 0 && clause[k - 1] == '-') continue;
        if (k + 1 < clause.size() && clause[k + 1] == c) continue;
        if (k > 0 && clause[k - 1] == c) continue;
        return true;
      }
      if (c == '!' && k + 1 < clause.size() && clause[k + 1] == '=') {
        return true;
      }
    }
    return false;
  }

  void CollectLoopBound(const std::string& stmt, size_t line, size_t col,
                        int fn) {
    std::string cond;
    if (stmt.rfind("for ", 0) == 0 || stmt.rfind("for(", 0) == 0) {
      size_t open = stmt.find('(');
      if (open == std::string::npos) return;
      int depth = 0;
      size_t close = open;
      for (; close < stmt.size(); ++close) {
        if (stmt[close] == '(') ++depth;
        if (stmt[close] == ')' && --depth == 0) break;
      }
      if (close >= stmt.size()) return;
      std::string head = stmt.substr(open + 1, close - open - 1);
      std::vector<std::string> parts = SplitTopLevel(head, ';');
      if (parts.size() < 2) return;  // range-for or irregular loop
      cond = parts[1];
    } else if (stmt.rfind("while ", 0) == 0 || stmt.rfind("while(", 0) == 0) {
      size_t open = stmt.find('(');
      size_t close = stmt.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close <= open) {
        return;
      }
      cond = stmt.substr(open + 1, close - open - 1);
    } else {
      return;
    }
    // Only relational clauses carry a *bound* (`i < n`, `sent != total`).
    // A plain predicate condition (`while (in.get(c))`) or scanning a
    // character out of a string is not an attacker-sized iteration count.
    TaintSink sink;
    sink.kind = "loop-bound";
    for (const std::string& clause : SplitClauses(cond)) {
      if (!HasRelational(clause)) continue;
      CollectIdents(clause, &sink.idents);
    }
    if (sink.idents.empty()) return;
    sink.line = line;
    sink.col = col;
    sink.fn = fn;
    out_->taint_sinks.push_back(std::move(sink));
  }

  const SourceFile& file_;
  FileSummary* out_;
  std::map<size_t, int> fn_of_line_;
};

// ------------------------------------------------------- propagation

struct VarKey {
  size_t fi;
  int fn;
  std::string var;
  bool operator<(const VarKey& other) const {
    if (fi != other.fi) return fi < other.fi;
    if (fn != other.fn) return fn < other.fn;
    return var < other.var;
  }
};

class TaintPass {
 public:
  TaintPass(const std::vector<FileAnalysis>& files, const TaintConfig& config)
      : files_(files), config_(config) {}

  std::vector<Diagnostic> Run() {
    BuildClosures();
    BuildDefs();
    PruneAssignRhs();
    SeedSanitized();
    Propagate();
    ReportSinks();
    std::sort(diags_.begin(), diags_.end());
    diags_.erase(std::unique(diags_.begin(), diags_.end(),
                             [](const Diagnostic& a, const Diagnostic& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.col == b.col && a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 diags_.end());
    return std::move(diags_);
  }

 private:
  void Report(size_t fi, size_t line, size_t col,
              const std::string& message) {
    if (line >= 1 && Waived(files_[fi], line, "taint-unchecked-sink")) return;
    diags_.push_back(
        {files_[fi].path, line, col, "taint-unchecked-sink", message});
  }

  // Include closures — same construction as the global pass; visibility
  // of a definition to a caller is scoped to them.
  size_t ResolveInclude(size_t fi, const std::string& target) const {
    std::string key = target;
    if (target.find('/') == std::string::npos &&
        !files_[fi].src_rel.empty()) {
      size_t dir = files_[fi].src_rel.rfind('/');
      key = dir == std::string::npos
                ? target
                : files_[fi].src_rel.substr(0, dir + 1) + target;
    }
    auto it = key_to_file_.find(key);
    return it == key_to_file_.end() ? std::string::npos : it->second;
  }

  void BuildClosures() {
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      if (!files_[fi].src_rel.empty()) key_to_file_[files_[fi].src_rel] = fi;
    }
    closed_.resize(files_.size());
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      std::set<size_t> seen{fi};
      std::deque<size_t> queue{fi};
      while (!queue.empty()) {
        size_t cur = queue.front();
        queue.pop_front();
        for (const IncludeFact& inc : files_[cur].summary.includes) {
          size_t to = ResolveInclude(cur, inc.target);
          if (to != std::string::npos && seen.insert(to).second) {
            queue.push_back(to);
          }
        }
      }
      closed_[fi] = std::move(seen);
    }
  }

  void BuildDefs() {
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const auto& decls = files_[fi].summary.decls;
      for (size_t di = 0; di < decls.size(); ++di) {
        if (decls[di].is_definition) defs_[decls[di].name].push_back({fi, di});
      }
    }
  }

  static bool QnameMatches(const std::string& qname, const std::string& pat) {
    std::string p = pat;
    if (p.rfind("::", 0) == 0) p = p.substr(2);
    if (qname == p) return true;
    return HasSuffix(qname, "::" + p);
  }

  // Definitions a call of `name` from file `fi` can reach: the definition
  // (or a same-qname declaration) must be visible in fi's include closure.
  void ResolveCall(size_t fi, const std::string& name,
                   std::vector<std::pair<size_t, size_t>>* out) const {
    auto it = defs_.find(name);
    if (it == defs_.end()) return;
    for (const auto& [dfi, ddi] : it->second) {
      const FnDecl& def = files_[dfi].summary.decls[ddi];
      bool visible = closed_[fi].count(dfi) > 0;
      if (!visible) {
        for (size_t ci : closed_[fi]) {
          for (const FnDecl& d : files_[ci].summary.decls) {
            if (!d.is_definition && d.qname == def.qname) {
              visible = true;
              break;
            }
          }
          if (visible) break;
        }
      }
      if (visible) out->push_back({dfi, ddi});
    }
  }

  // `model = ModelFromFlags(flags)` names `flags` on the right-hand side,
  // but when the callee's definition is resolvable its computed
  // return-taint governs what flows into `model` — the blanket
  // args-flow-into-result rule is only for opaque externals (atoi). Drop
  // resolvable calls' argument identifiers from each assignment's rhs
  // once, up front; the inter-procedural return binding covers them.
  void PruneAssignRhs() {
    pruned_.resize(files_.size());
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const FileSummary& sum = files_[fi].summary;
      pruned_[fi].reserve(sum.taint_assigns.size());
      for (const TaintAssign& a : sum.taint_assigns) {
        std::set<std::string> bound;
        for (const TaintCall& c : sum.taint_calls) {
          if (c.fn != a.fn || c.line != a.line || c.lhs != a.lhs) continue;
          std::vector<std::pair<size_t, size_t>> targets;
          ResolveCall(fi, c.name, &targets);
          if (targets.empty()) continue;
          for (const auto& arg : c.args) bound.insert(arg.begin(), arg.end());
        }
        std::vector<std::string> kept;
        for (const std::string& ident : a.rhs) {
          if (bound.count(ident) == 0) kept.push_back(ident);
        }
        pruned_[fi].push_back(std::move(kept));
      }
    }
  }

  void SeedSanitized() {
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      for (const TaintGuard& g : files_[fi].summary.taint_guards) {
        for (const std::string& ident : g.idents) {
          sanitized_.insert({fi, g.fn, ident});
        }
      }
      for (const TaintCall& c : files_[fi].summary.taint_calls) {
        if (config_.sanitizers.count(c.name) == 0) continue;
        if (!c.lhs.empty()) sanitized_.insert({fi, c.fn, c.lhs});
        for (const auto& arg : c.args) {
          for (const std::string& ident : arg) {
            sanitized_.insert({fi, c.fn, ident});
          }
        }
      }
    }
  }

  bool IsTainted(size_t fi, int fn, const std::string& var) const {
    return tainted_.count({fi, fn, var}) > 0;
  }

  // Whether `name` is declared with a map type anywhere in fi's include
  // closure (flags.cc subscripting the values_ map declared in flags.h).
  bool IsAssoc(size_t fi, const std::string& name) const {
    for (size_t ci : closed_[fi]) {
      const auto& assoc = files_[ci].summary.taint_assoc;
      if (std::find(assoc.begin(), assoc.end(), name) != assoc.end()) {
        return true;
      }
    }
    return false;
  }

  bool ArgSevered(const std::vector<std::string>& nested_calls) const {
    for (const std::string& callee : nested_calls) {
      if (config_.sanitizers.count(callee) > 0 ||
          config_.barriers.count(callee) > 0) {
        return true;
      }
    }
    return false;
  }

  // Marks (fi, fn, var) tainted with the given flow chain unless it is
  // sanitized or already tainted. Returns whether anything changed.
  bool Taint(size_t fi, int fn, const std::string& var,
             const std::string& chain) {
    VarKey key{fi, fn, var};
    if (sanitized_.count(key) > 0) return false;
    return tainted_.emplace(std::move(key), chain).second;
  }

  const std::string& ChainOf(size_t fi, int fn,
                             const std::string& var) const {
    static const std::string kEmpty;
    auto it = tainted_.find({fi, fn, var});
    return it == tainted_.end() ? kEmpty : it->second;
  }

  // Appends " -> step" while the printed chain stays readable; the
  // propagation itself is never truncated.
  static std::string Extend(const std::string& chain,
                            const std::string& step) {
    if (std::count(chain.begin(), chain.end(), '>') >= 8) return chain;
    return chain + " -> " + step;
  }

  std::string FnName(size_t fi, int fn) const {
    if (fn < 0 ||
        static_cast<size_t>(fn) >= files_[fi].summary.decls.size()) {
      return "<file>";
    }
    return files_[fi].summary.decls[fn].name;
  }

  void Propagate() {
    // Flow-insensitive fixpoint: cheap because the fact tables are small.
    // Sanitized variables never re-taint — an EXEA_CHECK anywhere in the
    // function covers the whole function (a documented approximation).
    bool changed = true;
    int rounds = 0;
    while (changed && ++rounds < 64) {
      changed = false;
      for (size_t fi = 0; fi < files_.size(); ++fi) {
        const FileSummary& sum = files_[fi].summary;
        // Seed: configured tainted parameters of matching definitions.
        for (const auto& [fn_pat, param] : config_.tainted_params) {
          for (size_t di = 0; di < sum.decls.size(); ++di) {
            const FnDecl& d = sum.decls[di];
            if (!d.is_definition || !QnameMatches(d.qname, fn_pat)) continue;
            for (const std::string& p : d.params) {
              if (p == param) {
                changed |= Taint(fi, static_cast<int>(di), p,
                                 "param '" + param + "' of " + d.name);
              }
            }
          }
        }
        for (const TaintCall& c : sum.taint_calls) {
          // Seed: source calls taint their result (and arguments).
          auto src = config_.sources.find(c.name);
          if (src != config_.sources.end()) {
            const SourceSpec& spec = src->second;
            std::string origin = "'" + c.name + "'";
            if (spec.ret && !c.lhs.empty()) {
              changed |= Taint(fi, c.fn, c.lhs, origin);
            }
            for (size_t a = 0; a < c.args.size(); ++a) {
              if (!spec.all_args &&
                  spec.arg_indices.count(static_cast<int>(a)) == 0) {
                continue;
              }
              for (const std::string& ident : c.args[a]) {
                changed |= Taint(fi, c.fn, ident, origin);
              }
            }
          }
          if (config_.sanitizers.count(c.name) > 0 ||
              config_.barriers.count(c.name) > 0) {
            continue;
          }
          // Inter-procedural: bind tainted arguments to parameters and
          // carry return-taint back to the call's result.
          std::vector<std::pair<size_t, size_t>> targets;
          ResolveCall(fi, c.name, &targets);
          for (const auto& [dfi, ddi] : targets) {
            const FnDecl& def = files_[dfi].summary.decls[ddi];
            size_t n = std::min(c.args.size(), def.params.size());
            for (size_t a = 0; a < n; ++a) {
              if (def.params[a].empty()) continue;
              // A sanitizing or barrier call inside the argument
              // expression severs this binding (Foo(flags.GetInt(...))).
              if (a < c.arg_calls.size() && ArgSevered(c.arg_calls[a])) {
                continue;
              }
              for (const std::string& ident : c.args[a]) {
                if (!IsTainted(fi, c.fn, ident)) continue;
                changed |= Taint(
                    dfi, static_cast<int>(ddi), def.params[a],
                    Extend(ChainOf(fi, c.fn, ident),
                           def.name + ":" + def.params[a]));
              }
            }
            if (!c.lhs.empty() &&
                IsTainted(dfi, static_cast<int>(ddi), "return")) {
              changed |= Taint(
                  fi, c.fn, c.lhs,
                  Extend(ChainOf(dfi, static_cast<int>(ddi), "return"),
                         FnName(fi, c.fn) + ":" + c.lhs));
            }
          }
        }
        // Intra-procedural: assignments move taint right to left unless
        // the statement runs a sanitizing parse or a barrier call (the
        // result of an error-Status factory is not untrusted data).
        for (size_t ai = 0; ai < sum.taint_assigns.size(); ++ai) {
          const TaintAssign& a = sum.taint_assigns[ai];
          bool severed = false;
          for (const std::string& callee : a.calls) {
            if (config_.sanitizers.count(callee) > 0 ||
                config_.barriers.count(callee) > 0) {
              severed = true;
            }
          }
          if (severed) continue;
          // A ret-source anywhere in the statement taints the target even
          // through an opaque wrapper: `idx = atoi(ReadField(...))`.
          for (const std::string& callee : a.calls) {
            auto src = config_.sources.find(callee);
            if (src != config_.sources.end() && src->second.ret) {
              changed |= Taint(fi, a.fn, a.lhs, "'" + callee + "'");
            }
          }
          for (const std::string& ident : pruned_[fi][ai]) {
            if (!IsTainted(fi, a.fn, ident)) continue;
            std::string step =
                a.lhs == "return" ? FnName(fi, a.fn) + ":return"
                                  : FnName(fi, a.fn) + ":" + a.lhs;
            changed |= Taint(fi, a.fn, a.lhs,
                             Extend(ChainOf(fi, a.fn, ident), step));
            break;
          }
        }
      }
    }
  }

  void ReportSinks() {
    const char* advice =
        "; add an EXEA_CHECK range guard or parse with exea::util::Parse*";
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const FileSummary& sum = files_[fi].summary;
      for (const TaintCall& c : sum.taint_calls) {
        auto it = config_.sinks.find(c.name);
        if (it == config_.sinks.end()) continue;
        bool any_arg = it->second.count(-1) > 0;
        for (size_t a = 0; a < c.args.size(); ++a) {
          if (!any_arg && it->second.count(static_cast<int>(a)) == 0) {
            continue;
          }
          // buf.resize(util::ParseInt32-checked value) is the repaired
          // idiom — a sanitizer inside the argument clears the sink.
          if (a < c.arg_calls.size() && ArgSevered(c.arg_calls[a])) {
            continue;
          }
          for (const std::string& ident : c.args[a]) {
            if (!IsTainted(fi, c.fn, ident) ||
                sanitized_.count({fi, c.fn, ident}) > 0) {
              continue;
            }
            Report(fi, c.line, c.col,
                   "untrusted value reaches sink '" + c.name + "' (flow: " +
                       Extend(ChainOf(fi, c.fn, ident), c.name + "()") +
                       ")" + advice);
          }
        }
      }
      for (const TaintSink& s : sum.taint_sinks) {
        const char* what = s.kind == "index" ? "container index"
                                             : "loop bound";
        // Keying a declared map is an associative lookup — a hostile key
        // selects (or creates) one slot, it cannot index out of range.
        if (s.kind == "index" && !s.base.empty() && IsAssoc(fi, s.base)) {
          continue;
        }
        for (const std::string& ident : s.idents) {
          if (!IsTainted(fi, s.fn, ident) ||
              sanitized_.count({fi, s.fn, ident}) > 0) {
            continue;
          }
          Report(fi, s.line, s.col,
                 std::string("untrusted value reaches ") + what +
                     " (flow: " +
                     Extend(ChainOf(fi, s.fn, ident),
                            std::string(what) + " '" + ident + "'") +
                     ")" + advice);
        }
      }
    }
  }

  const std::vector<FileAnalysis>& files_;
  const TaintConfig& config_;
  std::map<std::string, size_t> key_to_file_;
  std::vector<std::set<size_t>> closed_;
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> defs_;
  // [file][assignment index] -> rhs identifiers minus resolvable-call args.
  std::vector<std::vector<std::vector<std::string>>> pruned_;
  std::map<VarKey, std::string> tainted_;
  std::set<VarKey> sanitized_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

// Whole-string non-negative integer (the lint library is dependency-free,
// so this mirrors util::ParseInt32 with std::from_chars directly).
static bool ParseIndex(const std::string& text, int* out) {
  if (text.empty()) return false;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size() && *out >= 0;
}

bool ParseTaint(const fs::path& path, TaintConfig* config,
                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path.generic_string();
    return false;
  }
  config->path = path.generic_string();
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string kind;
    if (!(words >> kind)) continue;
    auto fail = [&](const std::string& what) {
      *error = path.generic_string() + ":" + std::to_string(lineno) + ": " +
               what;
      return false;
    };
    if (kind == "source") {
      std::string name, mode;
      if (!(words >> name >> mode) ||
          (mode != "ret" && mode != "args" && mode != "arg")) {
        return fail("directive 'source' wants <name> ret|args|arg <i>...");
      }
      SourceSpec& spec = config->sources[name];
      if (mode == "ret") {
        spec.ret = true;
      } else if (mode == "args") {
        spec.all_args = true;
      } else {
        std::string idx;
        size_t added = 0;
        int value = 0;
        while (words >> idx) {
          if (!ParseIndex(idx, &value)) {
            return fail("source argument index must be a number, got '" +
                        idx + "'");
          }
          spec.arg_indices.insert(value);
          ++added;
        }
        if (added == 0) {
          return fail("directive 'source ... arg' lists no indices");
        }
      }
    } else if (kind == "tainted-param") {
      std::string fn, param;
      if (!(words >> fn >> param)) {
        return fail("directive 'tainted-param' wants <fn> <param>");
      }
      config->tainted_params.emplace_back(fn, param);
    } else if (kind == "sanitizer" || kind == "barrier") {
      std::string name;
      size_t added = 0;
      while (words >> name) {
        if (kind == "sanitizer") {
          config->sanitizers.insert(name);
        } else {
          config->barriers.insert(name);
        }
        ++added;
      }
      if (added == 0) {
        return fail("directive '" + kind + "' names no functions");
      }
    } else if (kind == "sink") {
      std::string name, idx;
      if (!(words >> name >> idx)) {
        return fail("directive 'sink' wants <name> <argidx|*>");
      }
      int value = 0;
      do {
        if (idx == "*") {
          config->sinks[name].insert(-1);
        } else if (ParseIndex(idx, &value)) {
          config->sinks[name].insert(value);
        } else {
          return fail("sink argument index must be a number or '*', got '" +
                      idx + "'");
        }
      } while (words >> idx);
    } else {
      return fail("unknown directive '" + kind +
                  "' (want source/tainted-param/sanitizer/barrier/sink)");
    }
  }
  config->loaded = true;
  return true;
}

void CollectTaintFacts(const SourceFile& file, FileSummary* summary) {
  FactCollector collector(file, summary);
  collector.Run();
}

std::vector<Diagnostic> RunTaintPass(const std::vector<FileAnalysis>& files,
                                     const TaintConfig& config) {
  TaintPass pass(files, config);
  return pass.Run();
}

}  // namespace lint
