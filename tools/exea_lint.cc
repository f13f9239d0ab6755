// exea_lint — the repo's compilation-aware rule checker. The analysis
// lives in tools/lint/ (source loading, the declaration indexer, the
// local per-file rules, the cross-TU passes); this file is the
// command-line front end.
//
// A scan has two phases. The local phase analyzes each file in
// isolation, producing per-file diagnostics plus a fact summary
// (declarations, call sites, guarded members, include edges). The global
// phase runs over the collected summaries: layering, include cycles,
// Status-discard resolution, the cross-TU lock discipline, event-loop
// blocking reachability, unordered-iteration-into-output and the taint
// dataflow, each scoped to per-file include closures.
//
// Exit codes: 0 clean, 1 findings, 2 usage, configuration or I/O errors.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint/config.h"
#include "lint/global_rules.h"
#include "lint/local_rules.h"
#include "lint/registry.h"
#include "lint/source.h"
#include "lint/taint.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path layers_path;
  fs::path concurrency_path;
  fs::path taint_path;
  std::set<std::string> enabled;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const lint::RuleInfo& info : lint::kRules) {
        std::printf("%-22s %-16s %s\n", info.name, info.family,
                    info.description);
      }
      return 0;
    }
    if (arg == "--help") {
      std::printf(
          "usage: exea_lint [--root <dir>] [--layers <file>]\n"
          "                 [--concurrency <file>] [--taint <file>]\n"
          "                 [--rules <r1,r2|family>] [--list-rules] [--help]\n"
          "                 [paths...]\n"
          "Checks project rules over C++ sources; with no paths, scans\n"
          "<root>/src, <root>/tools, <root>/bench. Exits 1 if any rule\n"
          "fires, 2 on usage, I/O or configuration errors (unknown flag,\n"
          "missing flag value, nonexistent or unreadable input, unknown\n"
          "or empty --rules list, a cycle in the declared layer DAG).\n"
          "--layers defaults to <root>/tools/layers.txt; if that file is\n"
          "absent the layering family is skipped. --concurrency defaults\n"
          "to <root>/tools/lint_concurrency.txt (event-loop entries,\n"
          "blocking set, fd acquirers); absent, built-in defaults apply\n"
          "and the event-loop family is skipped. --taint defaults to\n"
          "<root>/tools/lint_taint.txt (untrusted sources, sanitizers,\n"
          "sinks); absent, the cross-TU taint pass is skipped (the local\n"
          "atoi-on-untrusted rule still runs). --list-rules prints the\n"
          "rule registry (name, family, description).\n");
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      inputs.emplace_back(arg);
      continue;
    }
    // Every other flag takes a value, as `--flag value` or `--flag=value`.
    std::string flag = arg.substr(0, arg.find('='));
    if (flag != "--root" && flag != "--layers" && flag != "--concurrency" &&
        flag != "--taint" && flag != "--rules") {
      std::fprintf(stderr, "exea_lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
    std::string value;
    if (flag.size() < arg.size()) {
      value = arg.substr(flag.size() + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (value.empty()) {
      std::fprintf(stderr, "exea_lint: %s needs a value\n", flag.c_str());
      return 2;
    }
    if (flag == "--root") {
      root = value;
    } else if (flag == "--layers") {
      layers_path = value;
    } else if (flag == "--concurrency") {
      concurrency_path = value;
    } else if (flag == "--taint") {
      taint_path = value;
    } else {
      std::string unknown;
      if (!lint::ExpandRules(value, &enabled, &unknown)) {
        if (unknown.empty()) {
          std::fprintf(stderr, "exea_lint: --rules '%s' names no rule\n",
                       value.c_str());
        } else {
          std::fprintf(stderr, "exea_lint: unknown rule or family '%s'\n",
                       unknown.c_str());
        }
        return 2;
      }
    }
  }
  // ExpandRules never leaves a --rules list empty, so empty means none.
  if (enabled.empty()) {
    for (const lint::RuleInfo& info : lint::kRules) enabled.insert(info.name);
  }
  // Explicit inputs must exist; the default roots are optional.
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (!fs::exists(input, ec)) {
      std::fprintf(stderr, "exea_lint: no such input '%s'\n",
                   input.generic_string().c_str());
      return 2;
    }
  }
  if (inputs.empty()) {
    for (const char* sub : {"src", "tools", "bench"}) {
      inputs.push_back(root / sub);
    }
  }
  const bool layers_explicit = !layers_path.empty();
  const bool concurrency_explicit = !concurrency_path.empty();
  const bool taint_explicit = !taint_path.empty();
  if (!layers_explicit) layers_path = root / "tools" / "layers.txt";
  if (!concurrency_explicit) {
    concurrency_path = root / "tools" / "lint_concurrency.txt";
  }
  if (!taint_explicit) taint_path = root / "tools" / "lint_taint.txt";

  lint::ConcurrencyConfig conc;
  conc.AddDefaults();
  {
    std::error_code ec;
    if (fs::is_regular_file(concurrency_path, ec)) {
      std::string error;
      if (!lint::ParseConcurrency(concurrency_path, &conc, &error)) {
        std::fprintf(stderr, "exea_lint: %s\n", error.c_str());
        return 2;
      }
    } else if (concurrency_explicit) {
      std::fprintf(stderr, "exea_lint: cannot read concurrency file %s\n",
                   concurrency_path.generic_string().c_str());
      return 2;
    }
  }

  lint::TaintConfig taint;
  {
    std::error_code ec;
    if (fs::is_regular_file(taint_path, ec)) {
      std::string error;
      if (!lint::ParseTaint(taint_path, &taint, &error)) {
        std::fprintf(stderr, "exea_lint: %s\n", error.c_str());
        return 2;
      }
    } else if (taint_explicit) {
      std::fprintf(stderr, "exea_lint: cannot read taint file %s\n",
                   taint_path.generic_string().c_str());
      return 2;
    }
  }

  std::vector<fs::path> paths;
  for (const fs::path& input : inputs) lint::CollectFiles(input, &paths);
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "exea_lint: no .cc/.h files found under inputs\n");
    return 2;
  }

  lint::LayerGraph layers;
  bool have_layers = false;
  {
    std::error_code ec;
    if (fs::is_regular_file(layers_path, ec)) {
      std::string error;
      if (!lint::ParseLayers(layers_path, &layers, &error)) {
        std::fprintf(stderr, "exea_lint: %s\n", error.c_str());
        return 2;
      }
      have_layers = true;
    } else if (layers_explicit) {
      std::fprintf(stderr, "exea_lint: cannot read layers file %s\n",
                   layers_path.generic_string().c_str());
      return 2;
    }
  }

  std::vector<lint::FileAnalysis> analyses;
  analyses.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::string content;
    if (!lint::ReadFileContent(path, &content)) {
      std::fprintf(stderr, "exea_lint: cannot read %s\n",
                   path.generic_string().c_str());
      return 2;
    }
    lint::SourceFile file;
    lint::BuildSourceFile(path.generic_string(), content, &file);
    analyses.push_back(lint::AnalyzeFile(file, conc));
  }

  std::vector<lint::Diagnostic> diags;
  for (const lint::FileAnalysis& analysis : analyses) {
    diags.insert(diags.end(), analysis.local.begin(), analysis.local.end());
  }
  {
    std::vector<lint::Diagnostic> global = lint::RunGlobalRules(
        analyses, have_layers ? &layers : nullptr,
        layers_path.generic_string(), conc);
    diags.insert(diags.end(), global.begin(), global.end());
  }
  if (taint.loaded) {
    std::vector<lint::Diagnostic> flows = lint::RunTaintPass(analyses, taint);
    diags.insert(diags.end(), flows.begin(), flows.end());
  }
  diags.erase(std::remove_if(diags.begin(), diags.end(),
                             [&enabled](const lint::Diagnostic& d) {
                               return enabled.count(d.rule) == 0;
                             }),
              diags.end());
  std::sort(diags.begin(), diags.end());
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const lint::Diagnostic& a,
                             const lint::Diagnostic& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.col == b.col && a.rule == b.rule &&
                                   a.message == b.message;
                          }),
              diags.end());

  for (const lint::Diagnostic& d : diags) {
    std::printf("%s:%zu:%zu: %s: %s\n", d.file.c_str(), d.line, d.col,
                d.rule.c_str(), d.message.c_str());
  }
  std::fprintf(stderr, "exea_lint: %zu file(s), %zu violation(s)\n",
               analyses.size(), diags.size());
  return diags.empty() ? 0 : 1;
}
