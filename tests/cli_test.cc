// End-to-end tests of the exea_cli binary: each subcommand is exercised
// through a real process (std::system) against a generated on-disk
// dataset. The binary path is injected by CMake (EXEA_CLI_PATH).

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#ifndef EXEA_CLI_PATH
#error "EXEA_CLI_PATH must be defined by the build"
#endif

namespace {

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("exea_cli_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    // Generate once for the whole suite.
    ASSERT_EQ(Run("generate --benchmark ZH-EN --scale tiny --out " +
                  dir_->string()),
              0);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  // Runs the CLI with `args`, capturing stdout into out_; returns the exit
  // code.
  static int Run(const std::string& args) {
    std::filesystem::path out_file = *dir_ / "stdout.txt";
    std::string command = std::string(EXEA_CLI_PATH) + " " + args + " > " +
                          out_file.string() + " 2>&1";
    int raw = std::system(command.c_str());
    std::ifstream in(out_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out_ = buffer.str();
    return WEXITSTATUS(raw);
  }

  static std::string out_;
  static std::filesystem::path* dir_;
};

std::string CliTest::out_;
std::filesystem::path* CliTest::dir_ = nullptr;

TEST_F(CliTest, GenerateWritesAllFourFiles) {
  for (const char* file : {"kg1_triples.tsv", "kg2_triples.tsv",
                           "train_links.tsv", "test_links.tsv"}) {
    EXPECT_TRUE(std::filesystem::exists(*dir_ / file)) << file;
  }
}

TEST_F(CliTest, StatsReportsBothGraphs) {
  ASSERT_EQ(Run("stats --dir " + dir_->string()), 0);
  EXPECT_NE(out_.find("KG1: entities=160"), std::string::npos) << out_;
  EXPECT_NE(out_.find("KG2:"), std::string::npos);
  EXPECT_NE(out_.find("112 test"), std::string::npos);
}

TEST_F(CliTest, AlignTrainsAndWritesAlignment) {
  std::string pred = (*dir_ / "pred.tsv").string();
  ASSERT_EQ(Run("align --dir " + dir_->string() +
                " --model MTransE --epochs 30 --out " + pred),
            0);
  EXPECT_NE(out_.find("accuracy"), std::string::npos) << out_;
  EXPECT_TRUE(std::filesystem::exists(pred));
}

TEST_F(CliTest, EvaluateReadsBackAlignment) {
  std::string pred = (*dir_ / "pred2.tsv").string();
  ASSERT_EQ(Run("align --dir " + dir_->string() +
                " --model MTransE --epochs 30 --inference stable --out " +
                pred),
            0);
  ASSERT_EQ(Run("evaluate --dir " + dir_->string() + " --alignment " + pred),
            0);
  EXPECT_NE(out_.find("accuracy:"), std::string::npos) << out_;
  EXPECT_NE(out_.find("1-to-1:   yes"), std::string::npos) << out_;
}

TEST_F(CliTest, RepairReportsImprovement) {
  ASSERT_EQ(
      Run("repair --dir " + dir_->string() + " --model MTransE --epochs 40"),
      0);
  EXPECT_NE(out_.find("base accuracy"), std::string::npos) << out_;
  EXPECT_NE(out_.find("repaired accuracy"), std::string::npos);
  EXPECT_NE(out_.find("delta +"), std::string::npos)
      << "repair should improve accuracy: " << out_;
}

TEST_F(CliTest, ExplainJsonFormat) {
  // Pick a source entity name from the test links file.
  std::ifstream links(*dir_ / "test_links.tsv");
  std::string line;
  ASSERT_TRUE(std::getline(links, line));
  std::string source = line.substr(0, line.find('\t'));
  ASSERT_EQ(Run("explain --dir " + dir_->string() +
                " --model MTransE --epochs 30 --source '" + source +
                "' --format json"),
            0);
  EXPECT_NE(out_.find("\"explanation\":"), std::string::npos) << out_;
  EXPECT_NE(out_.find("\"adg\":"), std::string::npos);
}

TEST_F(CliTest, ExplainDotFormat) {
  std::ifstream links(*dir_ / "test_links.tsv");
  std::string line;
  ASSERT_TRUE(std::getline(links, line));
  std::string source = line.substr(0, line.find('\t'));
  ASSERT_EQ(Run("explain --dir " + dir_->string() +
                " --model MTransE --epochs 30 --source '" + source +
                "' --format dot"),
            0);
  EXPECT_NE(out_.find("digraph explanation"), std::string::npos) << out_;
  EXPECT_NE(out_.find("digraph adg"), std::string::npos);
}

TEST_F(CliTest, AuditRanksSuspectsFirst) {
  ASSERT_EQ(Run("audit --dir " + dir_->string() +
                " --model MTransE --epochs 30 --limit 3"),
            0);
  EXPECT_NE(out_.find("audited"), std::string::npos) << out_;
  EXPECT_NE(out_.find("suspect"), std::string::npos);
  EXPECT_NE(out_.find("#1 ("), std::string::npos);
}

TEST_F(CliTest, AuditVerbalizes) {
  ASSERT_EQ(Run("audit --dir " + dir_->string() +
                " --model MTransE --epochs 30 --limit 1 --verbalize"),
            0);
  EXPECT_NE(out_.find("was aligned with"), std::string::npos) << out_;
}

TEST_F(CliTest, SnapshotThenServeAnswersQueries) {
  std::string bundle = (*dir_ / "bundle").string();
  ASSERT_EQ(Run("snapshot --dir " + dir_->string() +
                " --model MTransE --epochs 30 --out " + bundle),
            0);
  EXPECT_NE(out_.find("wrote snapshot"), std::string::npos) << out_;
  EXPECT_TRUE(std::filesystem::exists(bundle + "/MANIFEST"));

  // Drive one NDJSON session through the server via a shell pipe.
  std::ifstream links(*dir_ / "test_links.tsv");
  std::string line;
  ASSERT_TRUE(std::getline(links, line));
  std::string source = line.substr(0, line.find('\t'));
  std::filesystem::path out_file = *dir_ / "serve_out.txt";
  std::string command =
      "printf '{\"op\":\"align\",\"entity\":\"" + source +
      "\"}\\n{\"op\":\"shutdown\"}\\n' | " + std::string(EXEA_CLI_PATH) +
      " serve --bundle " + bundle + " > " + out_file.string() + " 2>/dev/null";
  ASSERT_EQ(WEXITSTATUS(std::system(command.c_str())), 0);
  std::ifstream in(out_file);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string session = buffer.str();
  EXPECT_NE(session.find("{\"ok\":true,\"op\":\"align\""), std::string::npos)
      << session;
  EXPECT_NE(session.find("{\"ok\":true,\"op\":\"shutdown\"}"),
            std::string::npos);
}

TEST_F(CliTest, ServeRejectsMissingBundle) {
  EXPECT_NE(Run("serve --bundle /no/such/bundle < /dev/null"), 0);
  EXPECT_NE(out_.find("MANIFEST"), std::string::npos) << out_;
}

// An unknown --index value is refused by name, not served as exact.
TEST_F(CliTest, ServeRejectsUnknownIndexPolicy) {
  std::string bundle = (*dir_ / "policy_bundle").string();
  ASSERT_EQ(Run("snapshot --dir " + dir_->string() +
                " --model MTransE --epochs 30 --out " + bundle),
            0);
  EXPECT_NE(Run("serve --bundle " + bundle + " --index bogus < /dev/null"),
            0);
  EXPECT_NE(out_.find("'bogus'"), std::string::npos) << out_;
  EXPECT_NE(Run("bench-load --bundle " + bundle +
                " --index bogus --clients 1 --requests 1"),
            0);
  EXPECT_NE(out_.find("'bogus'"), std::string::npos) << out_;
}

// The load generator self-hosts an async server from a bundle and exits
// non-zero on any malformed or unanswered response — so a zero exit with
// 8 concurrent clients IS the acceptance check for the async core.
TEST_F(CliTest, BenchLoadSelfHostedServesEveryClientCleanly) {
  std::string bundle = (*dir_ / "load_bundle").string();
  ASSERT_EQ(Run("snapshot --dir " + dir_->string() +
                " --model MTransE --epochs 30 --out " + bundle),
            0);
  ASSERT_EQ(Run("bench-load --bundle " + bundle +
                " --clients 8 --requests 10 --op mixed"),
            0)
      << out_;
  EXPECT_NE(out_.find("malformed=0"), std::string::npos) << out_;
  EXPECT_NE(out_.find("missing=0"), std::string::npos) << out_;
  EXPECT_NE(out_.find("rejected=0"), std::string::npos) << out_;
  EXPECT_NE(out_.find("qps="), std::string::npos) << out_;
}

TEST_F(CliTest, EverySubcommandHasHelp) {
  for (const char* command :
       {"generate", "stats", "align", "repair", "explain", "evaluate",
        "audit", "snapshot", "serve", "swap", "bench-load"}) {
    ASSERT_EQ(Run(std::string(command) + " --help"), 0) << command;
    EXPECT_NE(out_.find(std::string("exea_cli ") + command),
              std::string::npos)
        << command << " help: " << out_;
  }
  ASSERT_EQ(Run("--help"), 0);
  EXPECT_NE(out_.find("usage: exea_cli"), std::string::npos) << out_;
}

TEST_F(CliTest, VersionPrintsSnapshotFormatVersion) {
  ASSERT_EQ(Run("--version"), 0);
  EXPECT_NE(out_.find("snapshot format version"), std::string::npos) << out_;
}

TEST_F(CliTest, UnknownSubcommandFails) {
  EXPECT_NE(Run("frobnicate"), 0);
  EXPECT_NE(Run("frobnicate --help"), 0);  // no help for unknown commands
}

TEST_F(CliTest, NegativeThreadsFlagFails) {
  EXPECT_NE(Run("stats --dir " + dir_->string() + " --threads -1"), 0);
  EXPECT_NE(out_.find("--threads"), std::string::npos) << out_;
}

// Worker, queue and connection counts that would hang the server (no
// worker), abort it (an empty queue), shed every client, or start
// thousands of threads are refused up front, naming the flag. The bundle
// does not exist: the flags are checked before it is read and before any
// thread starts.
TEST_F(CliTest, ServeRejectsUnusableCountFlags) {
  const std::string serve =
      "serve --bundle " + (*dir_ / "no_bundle").string() + " --port 0 ";
  for (const char* flag :
       {"--workers 0", "--workers -1", "--workers abc", "--workers 257",
        "--workers 100000", "--queue 0", "--queue -5", "--queue 12x",
        "--max-conns 0", "--max-conns -1", "--port 70000", "--port abc",
        "--port -1", "--cache abc", "--cache -1", "--topk 0",
        "--deadline-ms -1", "--deadline-ms 5s"}) {
    EXPECT_NE(Run(serve + flag), 0) << flag;
    std::string name(flag, std::string(flag).find(' '));
    EXPECT_NE(out_.find(name + " must be"), std::string::npos)
        << flag << ": " << out_;
  }
  // The clients of a running server check --port the same way, in
  // [1, 65535], before connecting.
  const std::string bundle = " --bundle " + (*dir_ / "no_bundle").string();
  for (const std::string& command :
       {std::string("stats --port 0"), std::string("stats --port 70000"),
        "swap --port x" + bundle, "swap --port 65536" + bundle}) {
    EXPECT_NE(Run(command), 0) << command;
    EXPECT_NE(out_.find("--port must be"), std::string::npos)
        << command << ": " << out_;
  }
}

TEST_F(CliTest, BenchLoadRejectsUnusableCountFlags) {
  const std::string bench =
      "bench-load --bundle " + (*dir_ / "no_bundle").string() + " ";
  for (const char* flag :
       {"--workers 0", "--workers 257", "--queue 0", "--clients -1",
        "--clients 0", "--clients 257", "--requests 0", "--pipeline abc",
        "--swaps -1", "--cache abc", "--topk 0", "--deadline-ms -5",
        "--port 0", "--port 70000"}) {
    EXPECT_NE(Run(bench + flag), 0) << flag;
    std::string name(flag, std::string(flag).find(' '));
    EXPECT_NE(out_.find(name + " must be"), std::string::npos)
        << flag << ": " << out_;
  }
}

TEST_F(CliTest, MissingRequiredFlagFails) {
  EXPECT_NE(Run("align --model MTransE"), 0);  // no --dir
  EXPECT_NE(Run("explain --dir " + dir_->string() + " --model MTransE"),
            0);  // no --source
}

TEST_F(CliTest, UnknownEntityFails) {
  EXPECT_NE(Run("explain --dir " + dir_->string() +
                " --model MTransE --source no/such_entity"),
            0);
}

}  // namespace
