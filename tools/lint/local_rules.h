// The per-file analysis: runs every single-file rule pass over one
// stripped SourceFile and fills a FileAnalysis — fact tables for the
// cross-TU phase plus waiver-filtered local diagnostics. AnalyzeFile is a
// pure function of (file content, concurrency config).

#ifndef EXEA_TOOLS_LINT_LOCAL_RULES_H_
#define EXEA_TOOLS_LINT_LOCAL_RULES_H_

#include "lint/analysis.h"
#include "lint/config.h"
#include "lint/source.h"

namespace lint {

FileAnalysis AnalyzeFile(const SourceFile& file,
                         const ConcurrencyConfig& conc);

}  // namespace lint

#endif  // EXEA_TOOLS_LINT_LOCAL_RULES_H_
