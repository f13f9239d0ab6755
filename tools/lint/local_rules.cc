#include "lint/local_rules.h"

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/taint.h"

namespace lint {

bool Waived(const FileAnalysis& a, size_t line_1based,
            const std::string& rule) {
  auto it = a.waivers.find(line_1based);
  if (it != a.waivers.end() &&
      (it->second.rules.count(rule) > 0 || it->second.rules.count("all") > 0)) {
    return true;
  }
  if (line_1based >= 2) {
    auto prev = a.waivers.find(line_1based - 1);
    if (prev != a.waivers.end() && prev->second.comment_only &&
        (prev->second.rules.count(rule) > 0 ||
         prev->second.rules.count("all") > 0)) {
      return true;
    }
  }
  return false;
}

namespace {

// ------------------------------------------------------------ declarations

// Skips leading declaration qualifiers, returns the index after them.
size_t SkipQualifiers(const std::string& s, size_t i) {
  static const char* const kQualifiers[] = {"static",   "virtual", "inline",
                                            "constexpr", "friend",  "explicit"};
  for (;;) {
    while (i < s.size() && s[i] == ' ') ++i;
    bool matched = false;
    for (const char* q : kQualifiers) {
      size_t n = std::strlen(q);
      if (s.compare(i, n, q) == 0 && i + n < s.size() && s[i + n] == ' ') {
        i += n;
        matched = true;
        break;
      }
    }
    if (!matched) return i;
  }
}

// Matches an optionally namespace-qualified Status / StatusOr<...> return
// type starting at `i`; on success sets `*after` past the type (including a
// balanced template argument list) and `*is_status_or`.
bool MatchStatusType(const std::string& s, size_t i, size_t* after,
                     bool* is_status_or) {
  if (s.compare(i, 2, "::") == 0) i += 2;
  for (const char* ns : {"exea::", "util::", "exea::util::"}) {
    size_t n = std::strlen(ns);
    if (s.compare(i, n, ns) == 0) {
      i += n;
      break;
    }
  }
  const std::string kStatus = "Status";
  if (s.compare(i, kStatus.size(), kStatus) != 0) return false;
  i += kStatus.size();
  if (s.compare(i, 2, "Or") == 0 && i + 2 < s.size() && s[i + 2] == '<') {
    i += 3;
    int depth = 1;
    while (i < s.size() && depth > 0) {
      if (s[i] == '<') ++depth;
      if (s[i] == '>') --depth;
      ++i;
    }
    if (depth != 0) return false;  // template args span lines: next line
    *is_status_or = true;
  } else {
    if (i < s.size() && IsIdentChar(s[i])) return false;  // StatusXyz
    *is_status_or = false;
  }
  *after = i;
  return true;
}

// A Status-returning function declaration found in a header.
struct Declaration {
  size_t line = 0;
  size_t col = 1;
  std::string name;
  bool has_nodiscard = false;
};

// Scans one file for Status/StatusOr-returning function declarations.
// Declarations in this codebase keep the return type and function name on
// one physical line (Google style), so a line scanner suffices.
void FindDeclarations(const SourceFile& file, std::vector<Declaration>* out) {
  std::string prev_nonblank;
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    // `using` aliases, returns, and macro bodies are not declarations.
    if (line.compare(i, 6, "using ") == 0 ||
        line.compare(i, 7, "return ") == 0 ||
        line.compare(i, 8, "typedef ") == 0 || line[i] == '#') {
      prev_nonblank = line;
      continue;
    }
    bool nodiscard_here = false;
    const std::string kAttr = "[[nodiscard]]";
    if (line.compare(i, kAttr.size(), kAttr) == 0) {
      nodiscard_here = true;
      i += kAttr.size();
    }
    i = SkipQualifiers(line, i);
    if (line.compare(i, kAttr.size(), kAttr) == 0) {  // static [[nodiscard]]
      nodiscard_here = true;
      i = SkipQualifiers(line, i + kAttr.size());
    }
    size_t after_type = 0;
    bool is_status_or = false;
    if (!MatchStatusType(line, i, &after_type, &is_status_or)) {
      prev_nonblank = line;
      continue;
    }
    size_t j = after_type;
    while (j < line.size() && line[j] == ' ') ++j;
    if (j == after_type || j >= line.size()) {  // no space → constructor etc.
      prev_nonblank = line;
      continue;
    }
    // Function name: identifier (possibly Class::Name for out-of-line
    // definitions) immediately followed by '('.
    size_t name_begin = j;
    while (j < line.size() &&
           (IsIdentChar(line[j]) || line.compare(j, 2, "::") == 0)) {
      j += line.compare(j, 2, "::") == 0 ? 2 : 1;
    }
    if (j == name_begin || j >= line.size() || line[j] != '(') {
      prev_nonblank = line;
      continue;
    }
    std::string qualified = line.substr(name_begin, j - name_begin);
    // Operators and qualified (out-of-line) definitions: the attribute
    // belongs on the in-class/in-header declaration, which is scanned
    // separately — still register the name for the call-site rule.
    bool out_of_line = qualified.find("::") != std::string::npos;
    size_t last_sep = qualified.rfind("::");
    std::string name = last_sep == std::string::npos
                           ? qualified
                           : qualified.substr(last_sep + 2);
    // nodiscard may also sit on its own line directly above.
    if (!nodiscard_here) {
      size_t at = prev_nonblank.find(kAttr);
      if (at != std::string::npos &&
          prev_nonblank.find_first_not_of(" \t") == at &&
          prev_nonblank.find_first_not_of(" \t", at + kAttr.size()) ==
              std::string::npos) {
        nodiscard_here = true;
      }
    }
    Declaration decl;
    decl.line = li + 1;
    decl.col = line.find_first_not_of(" \t") + 1;
    decl.name = name;
    decl.has_nodiscard = nodiscard_here || out_of_line || !file.is_header;
    out->push_back(decl);
    prev_nonblank = line;
  }
}

// ------------------------------------------------------------- local pass

// One open class/struct body while scanning a header: the brace depth of
// its members and the first mutex member seen so far.
struct ClassScope {
  int body_depth = 0;
  bool has_mutex = false;
  std::string first_mutex;
};

// True when the accumulated member statement declares a synchronization
// object — those coordinate the lock rather than being protected by it.
bool IsSyncType(const std::string& stmt) {
  for (const char* t :
       {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
        "std::condition_variable", "std::atomic", "std::thread",
        "std::once_flag", "std::stop_token"}) {
    if (stmt.find(t) != std::string::npos) return true;
  }
  return false;
}

// Last identifier before the terminator of a member declaration:
// "size_t pending_ = 0;" → pending_, "char buf_[4];" → buf_.
std::string MemberName(const std::string& stmt) {
  size_t end = stmt.find_first_of("=;{[");
  std::string head = end == std::string::npos ? stmt : stmt.substr(0, end);
  size_t e = head.find_last_not_of(" \t");
  if (e == std::string::npos) return "";
  size_t b = e;
  while (b > 0 && IsIdentChar(head[b - 1])) --b;
  if (!IsIdentChar(head[e])) return "";
  return head.substr(b, e - b + 1);
}

// The argument of the first MACRO(...) occurrence in `stmt`, or "".
std::string MacroArg(const std::string& stmt, const std::string& macro) {
  size_t at = stmt.find(macro + "(");
  if (at == std::string::npos) return "";
  size_t open = at + macro.size();
  size_t close = stmt.find(')', open + 1);
  if (close == std::string::npos) return "";
  std::string arg = stmt.substr(open + 1, close - open - 1);
  size_t b = arg.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = arg.find_last_not_of(" \t");
  return arg.substr(b, e - b + 1);
}

// Finds the method name a trailing EXEA_REQUIRES(...) belongs to: the
// last identifier followed by '(' in `stmt` that is not a macro name.
std::string RequiresMethodName(const std::string& stmt) {
  size_t limit = stmt.find("EXEA_REQUIRES");
  if (limit == std::string::npos) limit = stmt.size();
  std::string name;
  for (size_t i = 0; i + 1 < limit; ++i) {
    if (!IsIdentChar(stmt[i])) continue;
    size_t b = i;
    while (i < limit && IsIdentChar(stmt[i])) ++i;
    if (i < limit && stmt[i] == '(') {
      std::string candidate = stmt.substr(b, i - b);
      if (candidate.rfind("EXEA_", 0) != 0) name = candidate;
    }
  }
  return name;
}

// ---------------------------------------------------------------- fd-leak
//
// A per-function lexical path analysis: a descriptor-yielding assignment
// (`int fd = ::socket(...)`, right-hand callee in the configured acquire
// set) creates an obligation that must be discharged — by a close() naming
// it, by assignment into a member/field (ownership handoff), by insertion
// into a container, or by being returned — before every lexical exit of
// its scope (early return, break/continue out of its loop, end of scope).
// Exits taken only on the acquirer's own failure (`if (!fd.ok()) return`,
// `if (fd < 0) return`) are exempt, as are discharges on any enclosing
// conditional path (the pass is deliberately lenient: one close on one
// path counts, because a lexical checker cannot prove path feasibility).

struct FdStmt {
  std::string text;
  size_t line = 0;  // 1-based
  size_t col = 1;
  int block = -1;   // index of the block this statement opens, or -1
};

struct FdBlock {
  std::string header;  // statement text before the '{'
  bool is_loop = false;
  std::vector<FdStmt> stmts;
};

struct Obligation {
  std::string name;
  std::string acquirer;
  size_t line = 0;
  size_t col = 1;
  int loop_depth = 0;    // loops enclosing the acquisition
  size_t guard_base = 0; // guard-stack size at the acquisition
  bool discharged = false;
};

}  // namespace

namespace {

class LocalPass {
 public:
  LocalPass(const SourceFile& file, const ConcurrencyConfig& conc,
            FileAnalysis* out)
      : file_(file), conc_(conc), out_(out) {}

  void Run() {
    // Waiver map first (Report consults it).
    for (size_t li = 0; li < file_.waivers.size(); ++li) {
      if (file_.waivers[li].empty()) continue;
      WaiverLine w;
      w.rules = file_.waivers[li];
      w.comment_only =
          file_.code[li].find_first_not_of(" \t") == std::string::npos;
      out_->waivers[li + 1] = w;
    }
    // Status declarations: facts for the cross-TU discard resolution plus
    // the nodiscard rule itself.
    std::vector<Declaration> decls;
    FindDeclarations(file_, &decls);
    for (const Declaration& d : decls) {
      out_->summary.status_fns.push_back(d.name);
      if (!d.has_nodiscard) {
        Report(d.line, d.col, "nodiscard-status",
               "declaration of '" + d.name +
                   "' returns Status/StatusOr but is not [[nodiscard]]");
      }
    }
    CollectDiscardCandidates();
    CheckRawRng();
    CheckRawNewDelete();
    CheckCoutLogging();
    CheckHeaderHygiene();
    CheckAdhocMetrics();
    if (file_.is_header && file_.in_src && !file_.module.empty()) {
      CollectGuardedMembers();
    }
    CheckFdLeaks();
    CheckRelaxedAtomics();
    CheckWaiverFormat();
    CheckBannedParsers();
    BuildIndex(file_, &out_->summary);
    CollectTaintFacts(file_, &out_->summary);
  }

 private:
  // Local sink: drops waived lines. Rule enablement is applied in
  // exea_lint.cc, to local and cross-TU findings alike.
  void Report(size_t line, size_t col, const std::string& rule,
              const std::string& message) {
    if (line >= 1 && Waived(*out_, line, rule)) return;
    out_->local.push_back({file_.path, line, col, rule, message});
  }

  // A bare expression statement whose outermost callee *might* be a
  // Status-returning function. Joins simple continuation lines so a call
  // whose argument list wraps is still seen as one statement. Candidates
  // are resolved against the global Status registry in the cross-TU phase.
  void CollectDiscardCandidates() {
    // Last significant character of the previous code line; a physical line
    // is only a *statement start* when the previous one ended a statement
    // (';'), opened or closed a block, or was a label/access specifier.
    char prev_end = ';';
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      size_t i = line.find_first_not_of(" \t");
      if (i == std::string::npos) continue;
      char saved_prev_end = prev_end;
      size_t tail = line.find_last_not_of(" \t");
      prev_end = line[tail];
      if (line[i] == '#') continue;  // preprocessor: does not end statements
      bool statement_start = saved_prev_end == ';' || saved_prev_end == '{' ||
                             saved_prev_end == '}' || saved_prev_end == ':';
      if (!statement_start) continue;
      if (!IsIdentChar(line[i]) && line.compare(i, 2, "::") != 0) continue;
      // Leading keyword → not a bare call statement.
      static const char* const kKeywords[] = {
          "return", "if",   "while", "for",    "switch", "case",
          "else",   "do",   "goto",  "delete", "new",    "throw",
          "using",  "co_return"};
      bool keyword = false;
      for (const char* k : kKeywords) {
        size_t n = std::strlen(k);
        if (line.compare(i, n, k) == 0 &&
            (i + n >= line.size() || !IsIdentChar(line[i + n]))) {
          keyword = true;
          break;
        }
      }
      if (keyword) continue;
      // Outermost callee: a chain of identifiers joined by :: . ->
      // immediately followed by '('.
      size_t j = i;
      size_t callee_begin = i;
      while (j < line.size()) {
        if (IsIdentChar(line[j])) {
          ++j;
        } else if (line.compare(j, 2, "::") == 0) {
          j += 2;
          callee_begin = j;
        } else if (line[j] == '.') {
          ++j;
          callee_begin = j;
        } else if (line.compare(j, 2, "->") == 0) {
          j += 2;
          callee_begin = j;
        } else {
          break;
        }
      }
      if (j >= line.size() || line[j] != '(' || j == callee_begin) continue;
      std::string callee = line.substr(callee_begin, j - callee_begin);
      // Join continuations until the statement terminates, then require the
      // whole statement to be exactly <call-expression>; — an assignment,
      // comparison, or larger expression is not a discard.
      std::string statement = line.substr(i);
      for (size_t k = li + 1;
           k < file_.code.size() && statement.find(';') == std::string::npos &&
           k < li + 12;
           ++k) {
        statement += ' ';
        statement += file_.code[k];
      }
      size_t semi = statement.find(';');
      if (semi == std::string::npos) continue;
      statement.resize(semi);
      if (statement.find('=') != std::string::npos) continue;
      // The statement must end exactly at the paren closing the callee's
      // own argument list: `Foo(...)` is a discard, `Foo(...).ok()` is not.
      size_t open = statement.find('(', j - i);
      if (open == std::string::npos) continue;
      int depth = 0;
      size_t close = std::string::npos;
      for (size_t k = open; k < statement.size(); ++k) {
        if (statement[k] == '(') ++depth;
        if (statement[k] == ')' && --depth == 0) {
          close = k;
          break;
        }
      }
      if (close == std::string::npos ||
          statement.find_first_not_of(" \t", close + 1) !=
              std::string::npos) {
        continue;
      }
      out_->summary.discards.push_back({callee, li + 1, i + 1});
    }
  }

  // The C parsing family accepts trailing garbage ("2junk" -> 2), clamps
  // or UBs on overflow, and cannot report failure distinctly from zero —
  // exactly the behaviors the serve/snapshot hardening removed. Everything
  // numeric goes through the exea::util::Parse* checked API instead.
  void CheckBannedParsers() {
    static const char* const kBanned[] = {
        "atoi",   "atol",    "atoll",   "atof",    "stoi",    "stol",
        "stoll",  "stoul",   "stoull",  "stof",    "stod",    "stold",
        "strtol", "strtoll", "strtoul", "strtoull", "strtof", "strtod",
        "strtold"};
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      for (const char* fn : kBanned) {
        size_t n = std::strlen(fn);
        size_t at = 0;
        while ((at = line.find(fn, at)) != std::string::npos) {
          bool left_ok = at == 0 || !IsIdentChar(line[at - 1]);
          bool call = at + n < line.size() && line[at + n] == '(';
          if (left_ok && call) {
            Report(li + 1, at + 1, "atoi-on-untrusted",
                   std::string(fn) +
                       "() silently accepts trailing garbage or truncates "
                       "on overflow; use exea::util::ParseInt32/ParseInt64/"
                       "ParseDouble");
            break;
          }
          at += n;
        }
      }
    }
  }

  void CheckRawRng() {
    if (file_.is_rng_impl) return;
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      size_t rd = line.find("std::random_device");
      if (rd != std::string::npos) {
        Report(li + 1, rd + 1, "raw-rng",
               "std::random_device is nondeterministic; seed a util Rng "
               "instead");
      }
      for (const char* fn : {"rand", "srand"}) {
        size_t at = 0;
        size_t n = std::strlen(fn);
        while ((at = line.find(fn, at)) != std::string::npos) {
          // Word boundary on the left ("operand(" is fine; "std::rand(" is
          // not, ':' being a non-identifier char) and a call paren on the
          // right.
          bool left_ok = at == 0 || !IsIdentChar(line[at - 1]);
          bool call = at + n < line.size() && line[at + n] == '(';
          if (left_ok && call) {
            Report(li + 1, at + 1, "raw-rng",
                   std::string(fn) +
                       "() bypasses the seeded util Rng; all randomness "
                       "must be reproducible");
            break;
          }
          at += n;
        }
      }
    }
  }

  void CheckRawNewDelete() {
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      for (const char* kw : {"new", "delete"}) {
        size_t n = std::strlen(kw);
        size_t at = 0;
        while ((at = line.find(kw, at)) != std::string::npos) {
          bool left = at == 0 || !IsIdentChar(line[at - 1]);
          bool right = at + n >= line.size() || !IsIdentChar(line[at + n]);
          if (!left || !right) {
            at += n;
            continue;
          }
          // "= delete" / "= delete;" is a deleted function, not a
          // deallocation.
          if (kw[0] == 'd') {
            size_t prev = line.find_last_not_of(" \t", at == 0 ? 0 : at - 1);
            if (prev != std::string::npos && line[prev] == '=') {
              at += n;
              continue;
            }
          }
          Report(li + 1, at + 1, "raw-new-delete",
                 std::string("naked '") + kw +
                     "': use containers / std::make_unique, or waive "
                     "with a justification for deliberate leaky "
                     "singletons");
          at += n;
        }
      }
    }
  }

  void CheckCoutLogging() {
    if (!file_.in_src) return;
    for (size_t li = 0; li < file_.code.size(); ++li) {
      size_t at = file_.code[li].find("std::cout");
      if (at != std::string::npos) {
        Report(li + 1, at + 1, "cout-logging",
               "library code must log via EXEA_LOG; stdout is reserved for "
               "tools/ and bench/");
      }
    }
  }

  // ------------------------------------------------- ad-hoc metric members
  //
  // Telemetry state — request counters, hit/miss tallies, latency sample
  // buffers, precomputed percentile fields — belongs in the obs::Registry.
  // A raw member named like a metric re-creates exactly the
  // accumulate-and-report drift the obs subsystem replaced (the capped
  // latency vector that froze p99 on warm-up traffic; DESIGN.md §10).
  void CheckAdhocMetrics() {
    if (!file_.is_header || !file_.in_src || file_.module == "obs") return;
    static const char* kTokens[] = {"counter", "latenc",  "qps",
                                    "p50",     "p99",     "_hits",
                                    "_misses", "hits_",   "misses_"};
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      size_t last = line.find_last_not_of(" \t");
      if (last == std::string::npos || line[last] != ';') continue;
      size_t first = line.find_first_not_of(" \t");
      if (!IsIdentChar(line[first])) continue;  // '#', '}', operators …
      if (line.find("obs::") != std::string::npos) continue;
      // Forward declarations, aliases, and statements are not members.
      size_t word_end = first;
      while (word_end < line.size() && IsIdentChar(line[word_end])) {
        ++word_end;
      }
      std::string first_word = line.substr(first, word_end - first);
      static const std::set<std::string> kSkipLead = {
          "class",  "struct", "enum",   "union",  "friend", "using",
          "typedef", "return", "delete", "goto",  "case",   "break",
          "continue", "template", "namespace"};
      if (kSkipLead.count(first_word) > 0) continue;
      // Annotations aside, a parenthesis marks a method declaration or a
      // macro invocation, not a data member.
      std::string head = line.substr(0, line.find("EXEA_GUARDED_BY"));
      if (head.find('(') != std::string::npos) continue;
      std::string name = MemberName(head);
      if (name.empty()) continue;
      std::string lowered = name;
      for (char& c : lowered) c = static_cast<char>(std::tolower(c));
      for (const char* token : kTokens) {
        if (lowered.find(token) == std::string::npos) continue;
        Report(li + 1, first + 1, "obs-no-adhoc-metrics",
               "member '" + name + "' looks like ad-hoc telemetry ('" +
                   token + "'); record it in the exea::obs registry "
                   "(obs/metrics.h) instead");
        break;
      }
    }
  }

  // -------------------------------------------------------- header hygiene

  void CheckHeaderHygiene() {
    if (!file_.is_header) return;
    // header-guard: accept #pragma once anywhere, or a classic
    // #ifndef X / #define X pair among the first preprocessor lines.
    bool guarded = false;
    std::string ifndef_macro;
    for (const std::string& line : file_.code) {
      size_t i = line.find_first_not_of(" \t");
      if (i == std::string::npos || line[i] != '#') continue;
      std::string directive = line.substr(i);
      if (directive.rfind("#pragma", 0) == 0 &&
          directive.find("once") != std::string::npos) {
        guarded = true;
        break;
      }
      if (directive.rfind("#ifndef", 0) == 0 && ifndef_macro.empty()) {
        std::istringstream words(directive.substr(7));
        words >> ifndef_macro;
        continue;
      }
      if (directive.rfind("#define", 0) == 0 && !ifndef_macro.empty()) {
        std::string macro;
        std::istringstream words(directive.substr(7));
        words >> macro;
        if (macro == ifndef_macro) guarded = true;
        break;  // the guard pair must be the first two directives
      }
      if (directive.rfind("#include", 0) == 0) break;  // guard comes first
    }
    if (!guarded) {
      Report(1, 1, "header-guard",
             "header lacks an include guard (#ifndef/#define pair) or "
             "#pragma once");
    }
    // header-using-namespace: a `using namespace` leaks names into every
    // includer; headers must qualify instead.
    for (size_t li = 0; li < file_.code.size(); ++li) {
      size_t at = file_.code[li].find("using namespace");
      if (at != std::string::npos) {
        Report(li + 1, at + 1, "header-using-namespace",
               "`using namespace` at header scope pollutes every includer; "
               "qualify names instead");
      }
    }
  }

  // -------------------------------------------------------- lock facts

  // Collects guarded members + REQUIRES methods from a header, reporting
  // unannotated members declared after a class's first mutex (guarded-by).
  // The facts feed the cross-TU lock passes.
  void CollectGuardedMembers() {
    std::vector<ClassScope> classes;
    int depth = 0;
    std::string stmt;          // accumulated member statement text
    size_t stmt_line = 0;      // 1-based line where the statement started
    bool pending_class = false;
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      size_t b = line.find_first_not_of(" \t");
      std::string trimmed = b == std::string::npos ? "" : line.substr(b);
      bool at_member_depth =
          !classes.empty() && depth == classes.back().body_depth;

      if (at_member_depth && !trimmed.empty() && trimmed[0] != '#') {
        bool access_label = trimmed == "public:" || trimmed == "private:" ||
                            trimmed == "protected:";
        bool opens_type = trimmed.rfind("class ", 0) == 0 ||
                          trimmed.rfind("struct ", 0) == 0 ||
                          trimmed.rfind("enum ", 0) == 0 ||
                          trimmed.rfind("union ", 0) == 0;
        if (access_label || opens_type ||
            line.find('{') != std::string::npos) {
          // Access labels, nested types, and inline bodies end any pending
          // member statement without classifying it.
          stmt.clear();
        } else {
          if (stmt.empty()) stmt_line = li + 1;
          if (!stmt.empty()) stmt += ' ';
          stmt += trimmed;
          if (stmt.find(';') != std::string::npos) {
            ClassifyMemberStatement(stmt, stmt_line, &classes.back());
            stmt.clear();
          } else if (li + 1 - stmt_line >= 5) {
            stmt.clear();  // runaway join: bail out, stay conservative
          }
        }
      }

      // A class/struct head on this line claims the next opened brace.
      if (!trimmed.empty() &&
          (trimmed.rfind("class ", 0) == 0 ||
           trimmed.rfind("struct ", 0) == 0) &&
          trimmed.find(';') == std::string::npos &&
          line.find('{') != std::string::npos) {
        pending_class = true;
      }
      for (char c : line) {
        if (c == '{') {
          ++depth;
          if (pending_class) {
            classes.push_back({depth, false, ""});
            pending_class = false;
          }
        } else if (c == '}') {
          if (!classes.empty() && classes.back().body_depth == depth) {
            classes.pop_back();
            stmt.clear();
          }
          --depth;
        }
      }
    }
  }

  void ClassifyMemberStatement(const std::string& stmt, size_t line,
                               ClassScope* scope) {
    // EXEA_REQUIRES → a method contract, not a data member.
    std::string required_mutex = MacroArg(stmt, "EXEA_REQUIRES");
    if (!required_mutex.empty()) {
      std::string method = RequiresMethodName(stmt);
      if (!method.empty()) {
        out_->summary.required.push_back({method, required_mutex});
      }
      return;
    }
    // Annotated member: record it for the lock-held pass.
    std::string guarded_mutex = MacroArg(stmt, "EXEA_GUARDED_BY");
    if (!guarded_mutex.empty()) {
      std::string name = MemberName(
          stmt.substr(0, stmt.find("EXEA_GUARDED_BY")) + ";");
      if (!name.empty()) {
        out_->summary.guarded.push_back({name, guarded_mutex});
      }
      return;
    }
    // The class's own mutex members establish the "after the mutex" zone.
    if (stmt.find("std::mutex") != std::string::npos ||
        stmt.find("std::shared_mutex") != std::string::npos) {
      if (!scope->has_mutex) {
        scope->has_mutex = true;
        scope->first_mutex = MemberName(stmt);
      }
      return;
    }
    if (IsSyncType(stmt)) return;  // cv / atomic / thread coordinate locking
    // Skip non-member statements: using/typedef/friend/static declarations
    // and anything with a parameter list (a method declaration).
    std::string head = stmt.substr(0, stmt.find(';'));
    for (const char* kw : {"using ", "typedef ", "friend ", "static ",
                           "template", "operator"}) {
      if (head.rfind(kw, 0) == 0) return;
    }
    if (head.find('(') != std::string::npos) return;  // method declaration
    if (!scope->has_mutex) return;  // members above the mutex are unguarded
    std::string name = MemberName(stmt);
    if (name.empty()) return;
    Report(line, 1, "guarded-by",
           "member '" + name + "' is declared after mutex '" +
               scope->first_mutex +
               "' but carries no EXEA_GUARDED_BY annotation (move it above "
               "the mutex if it is not protected)");
  }

  // ---------------------------------------------------------------- fd-leak

  void CheckFdLeaks() {
    blocks_.clear();
    blocks_.push_back(FdBlock{});  // [0] = file scope
    std::vector<int> open{0};
    std::string stmt;
    size_t stmt_line = 0, stmt_col = 1;
    int pdepth = 0;
    bool balanced = true;
    for (size_t li = 0; li < file_.code.size() && balanced; ++li) {
      const std::string& line = file_.code[li];
      size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') {
        // Preprocessor lines (and their continuations) are invisible to the
        // path analysis.
        while (li < file_.code.size() && !file_.raw[li].empty() &&
               file_.raw[li].back() == '\\') {
          ++li;
        }
        continue;
      }
      for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '(') {
          ++pdepth;
        } else if (c == ')') {
          if (pdepth > 0) --pdepth;
        }
        if (c == '{' && pdepth == 0) {
          FdBlock block;
          block.header = stmt;
          std::istringstream words(stmt);
          std::string head;
          words >> head;
          block.is_loop = head == "for" || head == "while" || head == "do" ||
                          head == "switch";
          blocks_.push_back(block);
          int idx = static_cast<int>(blocks_.size()) - 1;
          blocks_[open.back()].stmts.push_back(
              {stmt, stmt_line == 0 ? li + 1 : stmt_line, stmt_col, idx});
          open.push_back(idx);
          stmt.clear();
          stmt_line = 0;
        } else if (c == '}' && pdepth == 0) {
          FlushStmt(&stmt, stmt_line, stmt_col, open.back());
          stmt_line = 0;
          if (open.size() > 1) {
            open.pop_back();
          } else {
            balanced = false;  // stray '}': bail out, stay conservative
            break;
          }
        } else if (c == ';' && pdepth == 0) {
          FlushStmt(&stmt, stmt_line, stmt_col, open.back());
          stmt_line = 0;
        } else if (c != ' ' && c != '\t') {
          if (stmt.empty()) {
            stmt_line = li + 1;
            stmt_col = i + 1;
          }
          stmt += c;
        } else if (!stmt.empty() && stmt.back() != ' ') {
          stmt += ' ';
        }
      }
      if (!stmt.empty() && stmt.back() != ' ') stmt += ' ';
    }
    if (!balanced || open.size() != 1) return;  // unbalanced: no analysis
    std::vector<Obligation> obligations;
    std::vector<std::string> guards;
    WalkBlock(0, 0, &obligations, &guards);
  }

  void FlushStmt(std::string* stmt, size_t line, size_t col, int block) {
    size_t b = stmt->find_first_not_of(' ');
    if (b != std::string::npos) {
      size_t e = stmt->find_last_not_of(' ');
      blocks_[block].stmts.push_back(
          {stmt->substr(b, e - b + 1), line, col, -1});
    }
    stmt->clear();
  }

  void WalkBlock(int block, int loop_depth,
                 std::vector<Obligation>* obligations,
                 std::vector<std::string>* guards) {
    size_t base = obligations->size();
    for (const FdStmt& s : blocks_[block].stmts) {
      if (s.block >= 0) {
        const FdBlock& child = blocks_[s.block];
        guards->push_back(child.header);
        WalkBlock(s.block, loop_depth + (child.is_loop ? 1 : 0), obligations,
                  guards);
        guards->pop_back();
      } else {
        HandleFdStmt(s.text, s.line, s.col, loop_depth, obligations, guards);
      }
    }
    // End of scope: every obligation born in this block must be discharged.
    for (size_t i = base; i < obligations->size(); ++i) {
      Obligation& ob = (*obligations)[i];
      if (!ob.discharged) {
        ReportLeak(ob, "scope ends at this nesting level");
      }
    }
    obligations->resize(base);
  }

  void HandleFdStmt(const std::string& text, size_t line, size_t col,
                    int loop_depth, std::vector<Obligation>* obligations,
                    std::vector<std::string>* guards) {
    std::string first = FirstIdent(text);
    if (first == "if" || first == "while" || first == "for") {
      // Unbraced bodies: `if (!ok) return s;` — the condition guards the
      // trailing statement.
      size_t open = text.find('(');
      if (open == std::string::npos) return;
      int depth = 0;
      size_t close = std::string::npos;
      for (size_t i = open; i < text.size(); ++i) {
        if (text[i] == '(') ++depth;
        if (text[i] == ')' && --depth == 0) {
          close = i;
          break;
        }
      }
      if (close == std::string::npos) return;
      std::string cond = text.substr(open + 1, close - open - 1);
      size_t rb = text.find_first_not_of(' ', close + 1);
      if (rb == std::string::npos) return;  // `while (cond) ;` etc.
      guards->push_back(cond);
      HandleFdStmt(text.substr(rb), line, col,
                   loop_depth + (first != "if" ? 1 : 0), obligations, guards);
      guards->pop_back();
      return;
    }
    if (first == "else") {
      size_t rb = text.find_first_not_of(' ', 4);
      if (rb != std::string::npos) {
        HandleFdStmt(text.substr(rb), line, col, loop_depth, obligations,
                     guards);
      }
      return;
    }
    if (first == "return") {
      std::string expr = text.size() > 6 ? text.substr(6) : "";
      size_t b = expr.find_first_not_of(' ');
      expr = b == std::string::npos ? "" : expr.substr(b);
      for (Obligation& ob : *obligations) {
        if (ob.discharged) continue;
        size_t at = FindWord(expr, ob.name);
        if (at != std::string::npos && !IsStatusAccessor(expr, at, ob.name)) {
          ob.discharged = true;  // the descriptor itself is returned
        } else if (!GuardExempt(ob, *guards)) {
          ReportLeak(ob, "early return at line " + std::to_string(line));
        }
      }
      return;
    }
    if (first == "break" || first == "continue") {
      for (Obligation& ob : *obligations) {
        if (ob.discharged || ob.loop_depth != loop_depth || loop_depth == 0) {
          continue;
        }
        if (!GuardExempt(ob, *guards)) {
          ReportLeak(ob, "loop exit at line " + std::to_string(line));
        }
      }
      return;
    }
    // Discharges: close(), handoff into a member/field, container insert.
    for (Obligation& ob : *obligations) {
      if (ob.discharged) continue;
      size_t at = FindWord(text, ob.name);
      if (at == std::string::npos) continue;
      if (FindWord(text, "close") != std::string::npos ||
          text.find("Close") != std::string::npos) {
        ob.discharged = true;
        continue;
      }
      if (text.find("push_back") != std::string::npos ||
          text.find("emplace") != std::string::npos ||
          text.find("insert") != std::string::npos) {
        ob.discharged = true;
        continue;
      }
      size_t eq = TopLevelAssign(text);
      if (eq != std::string::npos && at > eq) {
        std::string lhs = text.substr(0, eq);
        std::string lhs_name = MemberName(lhs + ";");
        if ((!lhs_name.empty() && lhs_name.back() == '_') ||
            lhs.find('.') != std::string::npos ||
            lhs.find("->") != std::string::npos) {
          ob.discharged = true;  // ownership moved into a field
          continue;
        }
      }
    }
    // Acquisition: `<ident> = <acquirer>(...)` with the callee's base name
    // in the configured acquire set.
    size_t eq = TopLevelAssign(text);
    if (eq == std::string::npos) return;
    size_t r = text.find_first_not_of(' ', eq + 1);
    if (r == std::string::npos) return;
    size_t j = r;
    size_t base_begin = r;
    while (j < text.size()) {
      if (IsIdentChar(text[j])) {
        ++j;
      } else if (text.compare(j, 2, "::") == 0) {
        j += 2;
        base_begin = j;
      } else {
        break;
      }
    }
    if (j == base_begin || j >= text.size() || text[j] != '(') return;
    std::string callee = text.substr(base_begin, j - base_begin);
    if (conc_.acquire.count(callee) == 0) return;
    std::string lhs_name = MemberName(text.substr(0, eq) + ";");
    if (lhs_name.empty()) return;
    if (lhs_name.back() == '_') return;  // member: owned by the object
    std::string lhs = text.substr(0, eq);
    size_t np = FindWord(lhs, lhs_name);
    if (np != std::string::npos && np > 0 &&
        (lhs[np - 1] == '.' || lhs[np - 1] == '>')) {
      return;  // field access: owned elsewhere
    }
    Obligation ob;
    ob.name = lhs_name;
    ob.acquirer = callee;
    ob.line = line;
    ob.col = col;
    ob.loop_depth = loop_depth;
    ob.guard_base = guards->size();
    obligations->push_back(ob);
  }

  // `expr[at..]` is `name.status()` / `name->status()` / `name.error...` —
  // returning an error accessor does not transfer the descriptor.
  static bool IsStatusAccessor(const std::string& expr, size_t at,
                               const std::string& name) {
    size_t after = at + name.size();
    for (const char* acc : {".status(", "->status(", ".error(", "->error("}) {
      if (expr.compare(after, std::strlen(acc), acc) == 0) return true;
    }
    return false;
  }

  // True when any guard enclosing the exit (pushed after the acquisition)
  // is a failure test of the obligation's own name: `!fd.ok()`, `fd < 0`,
  // `fd == -1`, `!fd`.
  bool GuardExempt(const Obligation& ob,
                   const std::vector<std::string>& guards) const {
    for (size_t g = ob.guard_base; g < guards.size(); ++g) {
      const std::string& cond = guards[g];
      size_t at = 0;
      while ((at = cond.find(ob.name, at)) != std::string::npos) {
        bool left = at == 0 || !IsIdentChar(cond[at - 1]);
        bool right = at + ob.name.size() >= cond.size() ||
                     !IsIdentChar(cond[at + ob.name.size()]);
        if (!left || !right) {
          at += ob.name.size();
          continue;
        }
        size_t prev = cond.find_last_not_of(" (*", at == 0 ? 0 : at - 1);
        if (at > 0 && prev != std::string::npos && cond[prev] == '!') {
          return true;
        }
        std::string tail = cond.substr(at + ob.name.size());
        for (const char* acc : {".ok()", "->ok()"}) {
          if (tail.rfind(acc, 0) == 0) tail = tail.substr(std::strlen(acc));
        }
        size_t t = tail.find_first_not_of(' ');
        tail = t == std::string::npos ? "" : tail.substr(t);
        if (tail.rfind("<", 0) == 0 && tail.rfind("<<", 0) != 0) return true;
        if (tail.rfind("==", 0) == 0 && tail.find('-') != std::string::npos) {
          return true;
        }
        at += ob.name.size();
      }
    }
    return false;
  }

  // First '=' that is an assignment: not ==, !=, <=, >=, +=, -=, …
  static size_t TopLevelAssign(const std::string& text) {
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] != '=') continue;
      char prev = i > 0 ? text[i - 1] : '\0';
      char next = i + 1 < text.size() ? text[i + 1] : '\0';
      if (next == '=') {
        ++i;  // skip ==
        continue;
      }
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
          prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
          prev == '%' || prev == '&' || prev == '|' || prev == '^') {
        continue;
      }
      return i;
    }
    return std::string::npos;
  }

  static std::string FirstIdent(const std::string& text) {
    size_t b = text.find_first_not_of(' ');
    if (b == std::string::npos || !IsIdentChar(text[b])) return "";
    size_t e = b;
    while (e < text.size() && IsIdentChar(text[e])) ++e;
    return text.substr(b, e - b);
  }

  void ReportLeak(Obligation& ob, const std::string& why) {
    if (!leaks_reported_.insert(ob.line * 10000 + ob.col).second) return;
    Report(ob.line, ob.col, "fd-leak",
           "descriptor '" + ob.name + "' acquired from '" + ob.acquirer +
               "()' can leak: " + why +
               " without close(), an ownership handoff, or returning the "
               "descriptor");
  }

  // --------------------------------------------------------- relaxed-atomic

  // memory_order_relaxed gives no ordering: correct for monotonic counters
  // (fetch_add/fetch_sub whose value is only read for reporting), wrong for
  // flags and state that other threads observe. The obs module implements
  // the counters and is exempt wholesale.
  void CheckRelaxedAtomics() {
    if (file_.module == "obs") return;
    for (size_t li = 0; li < file_.code.size(); ++li) {
      const std::string& line = file_.code[li];
      size_t at = line.find("memory_order_relaxed");
      if (at == std::string::npos) continue;
      if (line.find("fetch_add") != std::string::npos ||
          line.find("fetch_sub") != std::string::npos) {
        continue;  // counter idiom
      }
      Report(li + 1, at + 1, "relaxed-atomic",
             "memory_order_relaxed outside a fetch_add/fetch_sub counter "
             "idiom: loads/stores that publish state need acquire/release "
             "(or seq_cst)");
    }
  }

  // ---------------------------------------------------------- waiver-format

  // Waivers must be spelled exactly "exea-lint: allow(rule)" — a variant
  // spelling ("exea-lint:allow", "exea-lint : allow") silently fails to
  // suppress anything. Flag recognizable near-misses.
  void CheckWaiverFormat() {
    const std::string kTag = "exea-lint";
    const std::string kCanonical = "exea-lint: allow(";
    for (size_t li = 0; li < file_.raw.size(); ++li) {
      const std::string& raw = file_.raw[li];
      const std::string& code = file_.code[li];
      size_t at = 0;
      while ((at = raw.find(kTag, at)) != std::string::npos) {
        // Only inside comments: the stripped line blanks comment text but
        // keeps string-literal quotes, so odd quote parity = string.
        size_t quotes = 0;
        for (size_t i = 0; i < at && i < code.size(); ++i) {
          if (code[i] == '"') ++quotes;
        }
        bool in_comment = quotes % 2 == 0 &&
                          (at >= code.size() || code[at] == ' ');
        if (!in_comment) {
          at += kTag.size();
          continue;
        }
        if (raw.compare(at, kCanonical.size(), kCanonical) == 0) {
          at += kCanonical.size();
          continue;
        }
        // Lax match: exea-lint [:] allow ( — anything else is prose.
        size_t i = at + kTag.size();
        while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
        if (i < raw.size() && raw[i] == ':') ++i;
        while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
        if (raw.compare(i, 5, "allow") == 0) {
          i += 5;
          while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
          if (i < raw.size() && raw[i] == '(') {
            Report(li + 1, at + 1, "waiver-format",
                   "waiver comment is not canonical 'exea-lint: allow(rule)' "
                   "and will not suppress anything");
          }
        }
        at += kTag.size();
      }
    }
  }

  const SourceFile& file_;
  const ConcurrencyConfig& conc_;
  FileAnalysis* out_;
  std::vector<FdBlock> blocks_;
  std::set<size_t> leaks_reported_;
};

}  // namespace

FileAnalysis AnalyzeFile(const SourceFile& file,
                         const ConcurrencyConfig& conc) {
  FileAnalysis out;
  out.path = file.path;
  out.module = file.module;
  out.src_rel = file.src_rel;
  out.is_header = file.is_header;
  out.in_src = file.in_src;
  LocalPass pass(file, conc, &out);
  pass.Run();
  return out;
}

}  // namespace lint
