// The untrusted-input dataflow pass: a declarative taint model
// (tools/lint_taint.txt) naming the repo's sources, sanitizers and sinks,
// a config-independent per-file fact sweep (stored with the other
// FileSummary tables), and the cross-TU propagation that turns the facts
// into `taint-unchecked-sink` findings with full source→sink chains.

#ifndef EXEA_TOOLS_LINT_TAINT_H_
#define EXEA_TOOLS_LINT_TAINT_H_

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/analysis.h"
#include "lint/source.h"

namespace lint {

// How one configured source injects taint at its call sites.
struct SourceSpec {
  bool ret = false;            // the assigned result is tainted
  bool all_args = false;       // every argument identifier is tainted
  std::set<int> arg_indices;   // specific 0-based out-params are tainted
};

// The taint model. Grammar (whitespace-separated, '#' comments):
//
//   source <name> ret|args|arg <i>...
//                                calls of <name> yield untrusted data:
//                                `ret` taints the assigned variable,
//                                `args` every argument identifier, and
//                                `arg <i>...` only the listed 0-based
//                                arguments (reference out-params such as
//                                ReadLineBounded's line buffer)
//   tainted-param <fn> <param>   the named parameter of every definition
//                                whose qualified name ends with the
//                                ::-suffix <fn> starts tainted (CLI argv)
//   sanitizer <name> ...         calls of <name> kill taint on their
//                                result and argument identifiers — the
//                                checked util::Parse* API
//   barrier <name> ...           calls of <name> neither absorb nor
//                                return taint (error-Status factories:
//                                a tainted message string is a dead end,
//                                but the arguments stay tainted)
//   sink <name> <argidx|*> ...   a tainted identifier inside the given
//                                0-based argument (or any argument, '*')
//                                of a call of <name> is a finding
//
// Built in, not configured: EXEA_CHECK/EXEA_DCHECK assertions sanitize
// every identifier they mention; container indexing and loop bounds are
// always sinks.
struct TaintConfig {
  std::map<std::string, SourceSpec> sources;
  std::vector<std::pair<std::string, std::string>> tainted_params;
  std::set<std::string> sanitizers;
  std::set<std::string> barriers;
  std::map<std::string, std::set<int>> sinks;  // -1 = any argument
  std::string path;  // for diagnostics
  bool loaded = false;
};

// Parses `path` into `*config`. Returns false with `*error` set on a
// malformed line — a configuration error (exit 2), not a lint finding.
bool ParseTaint(const std::filesystem::path& path, TaintConfig* config,
                std::string* error);

// Collects the structural taint facts for one file into the summary:
// assignments with their right-hand identifiers, calls with per-argument
// identifier groups, structural sinks (indexing, loop bounds) and
// EXEA_CHECK guards. Deliberately config-independent: which names are
// sources or sinks is resolved by RunTaintPass, so an edit to
// tools/lint_taint.txt changes findings without changing any summary.
void CollectTaintFacts(const SourceFile& file, FileSummary* summary);

// The cross-TU propagation: seeds taint at configured sources and
// tainted parameters, propagates through assignments intra-procedurally
// and through parameter→argument binding across translation units, and
// reports every unsanitized flow into a sink. Waivers apply as usual.
std::vector<Diagnostic> RunTaintPass(const std::vector<FileAnalysis>& files,
                                     const TaintConfig& config);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_TAINT_H_
