// The cross-TU phase: passes that need every file's fact tables at once.
// Layering and include-cycle detection (migrated from the per-file tool),
// discard resolution against the global Status registry, and the four
// concurrency rule families built on the call graph — lock discipline
// propagated through EXEA_REQUIRES, guarded members escaping into free
// functions, event-loop blocking-call reachability, and unordered-
// container iteration feeding serialized output. Everything here consumes
// the FileAnalysis records of the local phase.

#ifndef EXEA_TOOLS_LINT_GLOBAL_RULES_H_
#define EXEA_TOOLS_LINT_GLOBAL_RULES_H_

#include <string>
#include <vector>

#include "lint/analysis.h"
#include "lint/config.h"

namespace lint {

// Runs every cross-TU pass and returns the (unsorted, unfiltered-by-rule)
// diagnostics. `layers` may be null (the layering family is skipped).
// Waivers are honored here; rule enablement is the driver's concern.
std::vector<Diagnostic> RunGlobalRules(const std::vector<FileAnalysis>& files,
                                       const LayerGraph* layers,
                                       const std::string& layers_path,
                                       const ConcurrencyConfig& conc);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_GLOBAL_RULES_H_
