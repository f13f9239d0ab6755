// The rule registry and the Diagnostic type shared by every pass.

#ifndef EXEA_TOOLS_LINT_REGISTRY_H_
#define EXEA_TOOLS_LINT_REGISTRY_H_

#include <cstddef>
#include <set>
#include <string>

namespace lint {

struct RuleInfo {
  const char* name;
  const char* family;
  const char* description;
};

// The registry drives --list-rules, --rules validation, and the family →
// rule expansion. Keep it in sync with the passes below.
inline constexpr RuleInfo kRules[] = {
    {"nodiscard-status", "status",
     "Status/StatusOr-returning declarations in headers carry [[nodiscard]]"},
    {"discarded-status", "status",
     "no bare statement discards a Status/StatusOr result"},
    {"raw-rng", "determinism",
     "no rand()/srand()/std::random_device outside src/util/rng"},
    {"unordered-output", "determinism",
     "no unordered-container iteration feeding serialized output"},
    {"raw-new-delete", "memory",
     "no naked new/delete; ownership lives in containers and smart pointers"},
    {"cout-logging", "logging",
     "no std::cout in src/; library code logs via EXEA_LOG"},
    {"layering", "layering",
     "src/<module> includes must point downward in tools/layers.txt"},
    {"include-cycle", "layering",
     "no cyclic quoted-include chains between repo files"},
    {"guarded-by", "lock-discipline",
     "members declared after a class's first mutex carry EXEA_GUARDED_BY"},
    {"lock-held", "lock-discipline",
     "annotated members are only touched under a visible lock of their "
     "mutex"},
    {"guarded-by-escape", "cross-tu-locks",
     "EXEA_GUARDED_BY members are never touched from un-annotated free "
     "functions in other TUs"},
    {"requires-held", "cross-tu-locks",
     "callers of EXEA_REQUIRES methods hold the named mutex, across TU "
     "boundaries"},
    {"loop-blocking", "event-loop",
     "functions reachable from a configured event-loop entry never call "
     "the configured blocking set"},
    {"fd-leak", "resource-lifecycle",
     "acquired fds/resources reach close() on every lexical path or are "
     "handed to an owner"},
    {"relaxed-atomic", "atomics",
     "memory_order_relaxed only in counter idioms (fetch_add/fetch_sub or "
     "obs/ metric storage)"},
    {"header-guard", "header-hygiene",
     "every header has an include guard or #pragma once"},
    {"header-using-namespace", "header-hygiene",
     "no `using namespace` at header scope"},
    {"obs-no-adhoc-metrics", "observability",
     "no raw timing/counter members in src/ outside obs/; telemetry lives "
     "in the exea::obs registry"},
    {"waiver-format", "style",
     "waiver comments use the canonical 'exea-lint: allow(rule)' spelling"},
    {"atoi-on-untrusted", "taint",
     "no atoi/stoi/strtol-family parsing anywhere; untrusted numbers go "
     "through the exea::util::Parse* checked API"},
    {"taint-unchecked-sink", "taint",
     "values from configured untrusted sources (request fields, file rows, "
     "argv) never reach allocation sizes, indexing, loop bounds, or "
     "deadline arithmetic without an EXEA_CHECK bound or checked parse"},
};

inline constexpr size_t kRuleCount = sizeof(kRules) / sizeof(kRules[0]);

struct Diagnostic {
  std::string file;
  size_t line = 0;
  size_t col = 1;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (col != other.col) return col < other.col;
    return rule < other.rule;
  }
};

// Expands a --rules list (rule names and family names, comma-separated)
// into the enabled-rule set. Returns false on an unknown name (stored in
// *unknown) or on a list that names no rule at all (*unknown left empty).
bool ExpandRules(const std::string& spec, std::set<std::string>* enabled,
                 std::string* unknown);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_REGISTRY_H_
