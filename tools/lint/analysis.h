// The per-file fact tables the cross-TU passes consume, and the
// FileAnalysis record that carries them with the file's local
// diagnostics. Everything here is a pure function of one file's content
// plus the tool configuration.

#ifndef EXEA_TOOLS_LINT_ANALYSIS_H_
#define EXEA_TOOLS_LINT_ANALYSIS_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/registry.h"

namespace lint {

// A function declaration or definition found by the indexer.
struct FnDecl {
  std::string name;    // base name (Run)
  std::string qname;   // fully qualified (exea::net::EventLoop::Run)
  size_t line = 0;     // 1-based
  size_t col = 1;
  bool is_definition = false;
  bool is_method = false;        // member of a class (in-class or Class::)
  std::string requires_mutex;    // EXEA_REQUIRES arg on the header, or ""
  size_t body_begin = 0;         // 1-based first body line (definitions)
  size_t body_end = 0;           // 1-based last body line (definitions)
  // Parameter names in positional order; unnamed/unrecognized slots keep
  // an empty placeholder so indices line up with call arguments. This is
  // what the taint pass binds caller arguments to.
  std::vector<std::string> params;
};

// A call site inside a function body, with the lexically held locks.
struct CallSite {
  std::string name;    // base callee name (ListenOn)
  std::string qual;    // ::-chain as written (net::ListenOn)
  size_t line = 0;
  size_t col = 1;
  int fn = -1;         // index into FileSummary::decls of the enclosing def
  std::set<std::string> held;  // mutex names locked in an enclosing scope
};

// A trailing-underscore identifier read or written inside a function body
// (the candidate guarded-member accesses).
struct MemberRef {
  std::string name;
  size_t line = 0;
  size_t col = 1;
  int fn = -1;
  std::set<std::string> held;
};

struct GuardedMemberFact {
  std::string name;
  std::string mutex;
};

struct RequiredMethodFact {
  std::string name;
  std::string mutex;
};

struct IncludeFact {
  size_t line = 0;  // 1-based
  size_t col = 1;   // column of the opening quote
  std::string target;
};

// A bare statement whose outermost callee might return Status — resolved
// against the global Status-returning registry in the cross-TU phase.
struct DiscardCandidate {
  std::string callee;
  size_t line = 0;
  size_t col = 1;
};

// A range-for over `ident` whose body reaches serialization (<<, append,
// printf, +=) — cross-checked against unordered-container declarations.
struct RangeForFact {
  std::string ident;
  size_t line = 0;
  size_t col = 1;
  bool serializes = false;
};

// One statement-level value flow: `lhs = f(rhs...)`, `lhs = a + b`, or
// `return expr` (pseudo-lhs "return"). `calls` carries the base names of
// every call in the statement so the taint pass can recognize sanitizing
// parses without re-reading source. Structural facts only — which names
// are sources or sanitizers is the taint config's business.
struct TaintAssign {
  std::string lhs;                 // assigned variable (base object for a.b=)
  std::vector<std::string> rhs;    // identifiers read on the right-hand side
  std::vector<std::string> calls;  // call base names within the statement
  size_t line = 0;
  size_t col = 1;
  int fn = -1;  // index into FileSummary::decls of the enclosing definition
};

// A call with its argument identifiers grouped per positional argument —
// the parameter→argument binding edge of the cross-TU taint propagation.
// `arg_calls` records the call base names nested inside each argument
// expression, so a sanitizing parse in argument position
// (Foo(flags.GetInt("k", 5))) severs that binding.
struct TaintCall {
  std::string name;  // base callee name
  std::string lhs;   // assignment target, "return", or ""
  std::vector<std::vector<std::string>> args;
  std::vector<std::vector<std::string>> arg_calls;
  size_t line = 0;
  size_t col = 1;
  int fn = -1;
};

// A structural sink the taint pass always checks: container indexing and
// loop bounds. Call-shaped sinks (resize/memcpy/...) are matched against
// the config via TaintCall instead.
struct TaintSink {
  std::string kind;  // "index" | "loop-bound"
  std::string base;  // subscripted name for "index" sinks ("" otherwise):
                     // keying a declared associative container is not a
                     // positional index, so the pass can exempt it
  std::vector<std::string> idents;
  size_t line = 0;
  size_t col = 1;
  int fn = -1;
};

// An EXEA_CHECK-family assertion: every identifier it mentions is treated
// as range-validated (sanitized) for the rest of the enclosing function.
struct TaintGuard {
  std::vector<std::string> idents;
  size_t line = 0;
  int fn = -1;
};

struct FileSummary {
  std::vector<IncludeFact> includes;
  std::vector<FnDecl> decls;
  std::vector<CallSite> calls;
  std::vector<MemberRef> refs;
  std::vector<GuardedMemberFact> guarded;
  std::vector<RequiredMethodFact> required;
  std::vector<std::string> status_fns;     // Status-returning fn names
  std::vector<DiscardCandidate> discards;
  std::vector<std::string> unordered;      // unordered-container decl names
  std::vector<RangeForFact> range_fors;
  std::vector<TaintAssign> taint_assigns;
  std::vector<TaintCall> taint_calls;
  std::vector<TaintSink> taint_sinks;
  std::vector<TaintGuard> taint_guards;
  // Names declared with a map type (std::map / std::unordered_map):
  // subscripts keyed on these are associative lookups, not positions.
  std::vector<std::string> taint_assoc;
};

// One waiver-bearing line: which rules it allows and whether the line is
// comment-only (a comment-only waiver also covers the next line).
struct WaiverLine {
  std::set<std::string> rules;
  bool comment_only = false;
};

// Everything the analyzer knows about one file.
struct FileAnalysis {
  std::string path;
  std::string module;
  std::string src_rel;
  bool is_header = false;
  bool in_src = false;
  FileSummary summary;
  std::vector<Diagnostic> local;            // local-rule diags, waiver-filtered
  std::map<size_t, WaiverLine> waivers;     // 1-based line -> waiver
};

// A waiver applies to its own line, or — when it sits on a comment-only
// line — to the next line (for sites too long to carry the comment).
bool Waived(const FileAnalysis& a, size_t line_1based,
            const std::string& rule);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_ANALYSIS_H_
