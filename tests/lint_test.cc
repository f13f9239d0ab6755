// Drives the exea_lint binary against the seeded fixtures under
// tests/corpus/lint/: the bad/ tree must trip every rule (nonzero exit),
// the good/ tree and the real repository must scan clean, and the cyclic/
// tree must be rejected as a configuration error. Together these pin both
// directions of the checker — it finds what it claims to find, and it does
// not cry wolf on the code we actually ship — plus the CLI surface
// (--rules, --list-rules, usage errors) that ci/check.sh builds on.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

// Runs `exea_lint <args>`, captures stdout, returns the exit code. Append
// "2>&1" to args to fold stderr (config-error messages) into the capture.
int RunLint(const std::string& args, std::string* output) {
  std::string command = std::string(EXEA_LINT_PATH) + " " + args;
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot run " << command;
  if (pipe == nullptr) return -1;
  output->clear();
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output->append(buffer, n);
  }
  int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string Fixture(const std::string& sub) {
  return std::string(EXEA_LINT_FIXTURE_DIR) + "/" + sub;
}

// Copies a fixture tree into a per-test scratch directory so tests can
// mutate it (edit or delete the taint model) without touching the source
// tree.
fs::path ScratchCopy(const std::string& sub, const std::string& tag) {
  fs::path dst = fs::temp_directory_path() / ("exea_lint_test_" + tag);
  fs::remove_all(dst);
  fs::copy(Fixture(sub), dst, fs::copy_options::recursive);
  return dst;
}

size_t CountOf(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  size_t at = 0;
  while ((at = hay.find(needle, at)) != std::string::npos) {
    ++count;
    at += needle.size();
  }
  return count;
}

TEST(LintTest, SeededViolationsTripEveryRule) {
  std::string output;
  int exit_code = RunLint("--root " + Fixture("bad"), &output);
  EXPECT_EQ(exit_code, 1) << output;
  for (const char* rule :
       {"nodiscard-status", "discarded-status", "raw-rng", "raw-new-delete",
        "cout-logging", "layering", "include-cycle", "guarded-by",
        "lock-held", "header-guard", "header-using-namespace",
        "obs-no-adhoc-metrics"}) {
    EXPECT_NE(output.find(rule), std::string::npos)
        << "rule " << rule << " did not fire; output:\n" << output;
  }
  // Diagnostics carry a clickable file:line:col: prefix.
  EXPECT_NE(output.find("violations.cc:"), std::string::npos) << output;
  EXPECT_NE(output.find("violations.h:"), std::string::npos) << output;
}

TEST(LintTest, DiagnosticsCarryColumnNumbers) {
  std::string output;
  RunLint("--root " + Fixture("bad"), &output);
  // The discarded DoThing() call sits at line 7, column 3 of
  // violations.cc — the full file:line:col: spelling is pinned here.
  EXPECT_NE(output.find("violations.cc:7:3: discarded-status"),
            std::string::npos)
      << output;
  // The upward include's column points at the quoted path.
  EXPECT_NE(output.find("upward.h:6:10: layering"), std::string::npos)
      << output;
}

TEST(LintTest, LayeringDiagnosticsNameTheOffendingChain) {
  std::string output;
  RunLint("--root " + Fixture("bad"), &output);
  // Upward edge: the message names both modules and the layers file.
  EXPECT_NE(output.find("'serve' is not below 'util'"), std::string::npos)
      << output;
  // Undeclared module.
  EXPECT_NE(output.find("module 'mystery' is not declared"),
            std::string::npos)
      << output;
  // Include cycle: the chain is printed end to end.
  EXPECT_NE(
      output.find("serve/engine.h -> serve/impl.h -> serve/engine.h"),
      std::string::npos)
      << output;
}

TEST(LintTest, CleanFixtureScansClean) {
  std::string output;
  int exit_code = RunLint("--root " + Fixture("good"), &output);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_EQ(output, "") << output;
}

TEST(LintTest, CyclicDeclaredLayersAreAConfigError) {
  std::string output;
  int exit_code = RunLint("--root " + Fixture("cyclic") + " 2>&1", &output);
  EXPECT_EQ(exit_code, 2) << output;
  EXPECT_NE(output.find("cycle in declared layering"), std::string::npos)
      << output;
  // The cycle itself is spelled out for the operator.
  EXPECT_NE(output.find("a < b < a"), std::string::npos) << output;
}

TEST(LintTest, RepositoryScansClean) {
  std::string output;
  int exit_code =
      RunLint("--root " + std::string(EXEA_REPO_ROOT), &output);
  EXPECT_EQ(exit_code, 0) << "the repository no longer lints clean:\n"
                          << output;
}

TEST(LintTest, RulesFilterRestrictsToNamedRules) {
  std::string output;
  int exit_code =
      RunLint("--root " + Fixture("bad") + " --rules=raw-rng", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("raw-rng"), std::string::npos) << output;
  EXPECT_EQ(output.find("raw-new-delete"), std::string::npos) << output;
  EXPECT_EQ(output.find("layering"), std::string::npos) << output;
}

TEST(LintTest, FamilyNameEnablesItsWholeFamily) {
  std::string output;
  int exit_code = RunLint(
      "--root " + Fixture("bad") + " --rules=header-hygiene", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("header-guard"), std::string::npos) << output;
  EXPECT_NE(output.find("header-using-namespace"), std::string::npos)
      << output;
  EXPECT_EQ(output.find("raw-rng"), std::string::npos) << output;
}

TEST(LintTest, UnknownRuleNameIsAConfigError) {
  std::string output;
  EXPECT_EQ(RunLint("--root " + Fixture("bad") + " --rules=bogus 2>&1",
                    &output),
            2);
  EXPECT_NE(output.find("unknown rule or family 'bogus'"),
            std::string::npos)
      << output;
  // A list that names no rule would run nothing and pass on bad/, which
  // trips every rule: it is a configuration error, not an empty gate.
  for (const char* empty : {" --rules=", " --rules ' , '"}) {
    EXPECT_EQ(RunLint("--root " + Fixture("bad") + empty + " 2>&1", &output),
              2)
        << empty << "\n" << output;
  }
}

TEST(LintTest, UnknownFlagIsAConfigError) {
  // An unrecognised flag, including one this tool no longer has, must not
  // be read as an input path: the scan would shrink to the other inputs
  // and pass. A value flag left without its value fails the same way.
  const std::string good = Fixture("good");
  const std::pair<std::string, std::string> cases[] = {
      {"--bogus " + good + "/src", "unknown flag '--bogus'"},
      {"--format=sarif " + good + "/src", "unknown flag '--format=sarif'"},
      {good + "/src --rules", "--rules needs a value"},
  };
  for (const auto& [args, message] : cases) {
    std::string output;
    EXPECT_EQ(RunLint("--root " + good + " " + args + " 2>&1", &output), 2)
        << args << "\n" << output;
    EXPECT_NE(output.find(message), std::string::npos) << output;
  }
}

TEST(LintTest, ListRulesPrintsTheRegistry) {
  std::string output;
  EXPECT_EQ(RunLint("--list-rules", &output), 0);
  for (const char* name :
       {"nodiscard-status", "discarded-status", "raw-rng", "raw-new-delete",
        "cout-logging", "layering", "include-cycle", "guarded-by",
        "lock-held", "header-guard", "header-using-namespace",
        "obs-no-adhoc-metrics", "lock-discipline", "header-hygiene",
        "observability"}) {
    EXPECT_NE(output.find(name), std::string::npos)
        << name << " missing from --list-rules:\n" << output;
  }
}

TEST(LintTest, HelpExitsZero) {
  std::string output;
  EXPECT_EQ(RunLint("--help", &output), 0);
  EXPECT_NE(output.find("usage:"), std::string::npos) << output;
}

TEST(LintTest, MissingInputIsAnIoError) {
  std::string output;
  EXPECT_EQ(RunLint("--root /nonexistent-exea-lint-fixture", &output), 2);
  // A nonexistent explicit input fails the run even though the other
  // input scans clean: a typo must not silently shrink the scan.
  EXPECT_EQ(RunLint("--root " + Fixture("good") + " " + Fixture("good") +
                        "/src " + Fixture("good") + "/src/typo.cc 2>&1",
                    &output),
            2);
  EXPECT_NE(output.find("no such input"), std::string::npos) << output;
  EXPECT_NE(output.find("typo.cc"), std::string::npos) << output;
}

TEST(LintTest, ExplicitMissingLayersFileIsAnIoError) {
  std::string output;
  EXPECT_EQ(RunLint("--root " + Fixture("good") +
                        " --layers /nonexistent-layers.txt 2>&1",
                    &output),
            2);
  EXPECT_NE(output.find("cannot read layers file"), std::string::npos)
      << output;
}

// ------------------------------------------------- cross-TU concurrency

TEST(LintTest, ConcurrencyFixtureTripsAllFourNewFamilies) {
  std::string output;
  int exit_code = RunLint("--root " + Fixture("conc"), &output);
  EXPECT_EQ(exit_code, 1) << output;
  // event-loop: the blocking poll is reached across a TU boundary and
  // the whole call chain is spelled out.
  EXPECT_NE(output.find("handler.cc:8:5: loop-blocking"), std::string::npos)
      << output;
  EXPECT_NE(output.find(
                "demo::net::Loop::Run -> HandleEvent -> Process -> poll"),
            std::string::npos)
      << output;
  // event-loop: the configured (non-default) blocking name also fires.
  EXPECT_NE(output.find("blocking call 'BlockingFetch'"), std::string::npos)
      << output;
  // cross-tu-locks: unlocked call of an EXEA_REQUIRES method from
  // another TU, and a guarded member read from a free function.
  EXPECT_NE(output.find("requires-held"), std::string::npos) << output;
  EXPECT_NE(output.find("guarded-by-escape"), std::string::npos) << output;
  // resource-lifecycle: the early return leaks the socket.
  EXPECT_NE(output.find("leaky.cc:12:3: fd-leak"), std::string::npos)
      << output;
  // atomics: the relaxed flag store (the fetch_add counter is exempt).
  EXPECT_NE(output.find("relaxed-atomic"), std::string::npos) << output;
  // determinism: unordered iteration into serialized output.
  EXPECT_NE(output.find("unordered container 'by_key'"), std::string::npos)
      << output;
  // style: the lax waiver spelling is called out.
  EXPECT_NE(output.find("waiver-format"), std::string::npos) << output;
}

TEST(LintTest, ConcurrencyFixtureNegativesStayQuiet) {
  std::string output;
  RunLint("--root " + Fixture("conc"), &output);
  // Exactly two loop-blocking findings: Finish's identical poll is not
  // reachable from the entry, and the waived ::read stays quiet.
  EXPECT_EQ(CountOf(output, "loop-blocking:"), 2u) << output;
  // One fd-leak: OpenChecked closes on every path.
  EXPECT_EQ(CountOf(output, "fd-leak:"), 1u) << output;
  // One relaxed-atomic: the fetch_add counter idiom is exempt.
  EXPECT_EQ(CountOf(output, "relaxed-atomic:"), 1u) << output;
  // One requires-held: BumpProperly locks first, and BumpLocked's own
  // definition inherits the contract from its declaration.
  EXPECT_EQ(CountOf(output, "requires-held:"), 1u) << output;
  EXPECT_EQ(CountOf(output, "guarded-by-escape:"), 1u) << output;
}

TEST(LintTest, FamilyFilterSelectsEventLoopOnly) {
  std::string output;
  int exit_code = RunLint(
      "--root " + Fixture("conc") + " --rules=event-loop", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_EQ(CountOf(output, "loop-blocking:"), 2u) << output;
  EXPECT_EQ(output.find("fd-leak"), std::string::npos) << output;
  EXPECT_EQ(output.find("requires-held"), std::string::npos) << output;
}

TEST(LintTest, ListRulesIncludesTheConcurrencyFamilies) {
  std::string output;
  EXPECT_EQ(RunLint("--list-rules", &output), 0);
  for (const char* name :
       {"loop-blocking", "event-loop", "guarded-by-escape", "requires-held",
        "cross-tu-locks", "fd-leak", "resource-lifecycle", "relaxed-atomic",
        "atomics", "unordered-output", "waiver-format"}) {
    EXPECT_NE(output.find(name), std::string::npos)
        << name << " missing from --list-rules:\n" << output;
  }
}

// ---------------------------------------------------------------- taint

TEST(LintTest, TaintFixtureReportsCrossTuChains) {
  std::string output;
  int exit_code = RunLint(
      "--root " + Fixture("taint") +
          " --rules=taint-unchecked-sink,atoi-on-untrusted",
      &output);
  EXPECT_EQ(exit_code, 1) << output;
  // The cross-TU flow: the source call and the atoi live in
  // serve/handler.cc, the sink fires in net/input.cc, and the finding
  // spells out the whole chain.
  EXPECT_NE(output.find("input.cc:17:3: taint-unchecked-sink"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("(flow: 'ReadField' -> HandleRequest:len -> "
                        "Prepare:n -> resize())"),
            std::string::npos)
      << output;
  // A configured tainted-param seeds without any source call.
  EXPECT_NE(
      output.find("(flow: param 'wire' of Route -> Route:hops -> resize())"),
      std::string::npos)
      << output;
  // The structural sinks: loop bound and container index.
  EXPECT_NE(output.find("loop bound 'n'"), std::string::npos) << output;
  EXPECT_NE(output.find("container index 'idx'"), std::string::npos)
      << output;
  // The local rule names each banned parser it caught.
  EXPECT_NE(output.find("atoi() silently accepts"), std::string::npos)
      << output;
  EXPECT_NE(output.find("stoi() silently accepts"), std::string::npos)
      << output;
}

TEST(LintTest, TaintFixtureNegativesStayQuiet) {
  // The default scan (what ci/check.sh runs) must report exactly what the
  // taint-only filter does: the taint family is part of the default set.
  for (const char* rules :
       {"", " --rules=taint-unchecked-sink,atoi-on-untrusted"}) {
    std::string output;
    RunLint("--root " + Fixture("taint") + rules, &output);
    // Five flows, four banned parsers, and no other finding. Everything
    // else stays quiet: the ParseInt32-sanitized resize, the
    // EXEA_CHECK-guarded loop, the associative map subscript, and the
    // waived resize in Trusted().
    EXPECT_EQ(CountOf(output, "\n"), 9u) << rules << "\n" << output;
    EXPECT_EQ(CountOf(output, "taint-unchecked-sink:"), 5u) << output;
    EXPECT_EQ(CountOf(output, "atoi-on-untrusted:"), 4u) << output;
    EXPECT_EQ(output.find("SizeChecked"), std::string::npos) << output;
    EXPECT_EQ(output.find("request.cc:26"), std::string::npos) << output;
    EXPECT_EQ(output.find("request.cc:68"), std::string::npos) << output;
  }
}

TEST(LintTest, TaintFamilyNameEnablesBothRules) {
  std::string output;
  int exit_code =
      RunLint("--root " + Fixture("taint") + " --rules=taint", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_EQ(CountOf(output, "taint-unchecked-sink:"), 5u) << output;
  EXPECT_EQ(CountOf(output, "atoi-on-untrusted:"), 4u) << output;
}

TEST(LintTest, AbsentTaintModelSkipsTheCrossTuPassOnly) {
  fs::path root = ScratchCopy("taint", "no_model");
  fs::remove(root / "tools" / "lint_taint.txt");
  std::string output;
  // The local atoi rule is self-contained; only the flow pass needs the
  // model file, and without one it skips instead of failing the run.
  int exit_code = RunLint(
      "--root " + root.string() +
          " --rules=taint-unchecked-sink,atoi-on-untrusted",
      &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_EQ(CountOf(output, "taint-unchecked-sink:"), 0u) << output;
  EXPECT_EQ(CountOf(output, "atoi-on-untrusted:"), 4u) << output;
  fs::remove_all(root);
}

TEST(LintTest, MalformedTaintModelIsAConfigError) {
  fs::path root = ScratchCopy("taint", "bad_model");
  {
    std::ofstream model(root / "tools" / "lint_taint.txt");
    model << "sorcery Foo ret\n";
  }
  std::string output;
  EXPECT_EQ(RunLint("--root " + root.string() + " 2>&1", &output), 2)
      << output;
  EXPECT_NE(output.find("unknown directive 'sorcery'"), std::string::npos)
      << output;
  fs::remove_all(root);
}

TEST(LintTest, ExplicitMissingTaintFileIsAnIoError) {
  std::string output;
  EXPECT_EQ(RunLint("--root " + Fixture("taint") +
                        " --taint /nonexistent-taint-model.txt 2>&1",
                    &output),
            2);
  EXPECT_NE(output.find("cannot read taint file"), std::string::npos)
      << output;
}

TEST(LintTest, TaintModelEditRetunesFindings) {
  fs::path root = ScratchCopy("taint", "taint_retune");
  std::string base = "--root " + root.string() + " --rules=taint";
  std::string output;
  RunLint(base, &output);
  EXPECT_EQ(CountOf(output, "taint-unchecked-sink:"), 5u) << output;
  // Drop the resize sink from the model: the three resize flows
  // disappear and the loop/index sinks remain.
  {
    std::ofstream model(root / "tools" / "lint_taint.txt");
    model << "source ReadField ret\n"
          << "tainted-param Route wire\n"
          << "sanitizer ParseInt32\n";
  }
  RunLint(base, &output);
  EXPECT_EQ(CountOf(output, "taint-unchecked-sink:"), 2u) << output;
  EXPECT_EQ(output.find("resize()"), std::string::npos) << output;
  fs::remove_all(root);
}

TEST(LintTest, ListRulesIncludesTheTaintFamily) {
  std::string output;
  EXPECT_EQ(RunLint("--list-rules", &output), 0);
  EXPECT_NE(output.find("taint-unchecked-sink"), std::string::npos)
      << output;
  EXPECT_NE(output.find("atoi-on-untrusted"), std::string::npos) << output;
}

}  // namespace
