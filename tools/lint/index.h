// The declaration indexer: a lightweight C++ tokenizer that walks one
// stripped SourceFile and fills the FileSummary fact tables — namespaces
// and class scopes (for qualified names), function declarations and
// definitions with body spans, call sites and trailing-underscore member
// references tagged with the lexically held locks, and quoted includes.
// The cross-TU passes (call-graph reachability, lock propagation) are
// built entirely on these facts, so no pass re-tokenizes a file.

#ifndef EXEA_TOOLS_LINT_INDEX_H_
#define EXEA_TOOLS_LINT_INDEX_H_

#include "lint/analysis.h"
#include "lint/source.h"

namespace lint {

// Fills summary->includes, decls, calls, refs, unordered, range_fors.
// (guarded/required/status_fns/discards come from the local rule passes,
// which keep the battle-tested single-file scanners.)
void BuildIndex(const SourceFile& file, FileSummary* summary);

// True for identifiers the call collector must ignore: control keywords
// and ALL_CAPS macro names.
bool IsCallNoise(const std::string& ident);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_INDEX_H_
