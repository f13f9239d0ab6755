// Hostile-input corpus replay: every checked-in adversarial input under
// tests/corpus/ must come back as an error Status (snapshot loading) or an
// {"ok":false,...} response line (the serving protocol) — never a crash,
// never a silent success. The corpus is data, not code: adding a regression
// input means dropping a file into tests/corpus/, nothing to register here.
//
// Snapshot entries are *recipes*: each one mutates a freshly written valid
// bundle (see tests/corpus/snapshot/README.md for the operation grammar),
// so the corpus stays valid as the bundle format evolves — recipes corrupt
// whatever the current writer produces.
//
// Served bytes are pinned too: tests/corpus/ndjson/responses.tsv records
// the exact response to every NDJSON entry and to a list of well-formed
// requests, so a change to the request path that moves a single byte of
// any answer fails here.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "la/matrix_io.h"
#include "la/similarity_index.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/parallel.h"
#include "util/status.h"

namespace exea {
namespace {

namespace fs = std::filesystem;

std::string CorpusDir() { return EXEA_CORPUS_DIR; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "short write to " << path;
}

// A minimal but internally consistent bundle: three entities a side, one
// relation, two triples, one train pair, two test pairs. Small enough that
// every corruption test can rewrite it from scratch.
serve::SnapshotBundle MakeTinyBundle() {
  serve::SnapshotBundle bundle;
  bundle.meta.model_name = "toy";
  bundle.meta.dataset_name = "hostile-tiny";
  bundle.meta.inference = "greedy";
  bundle.meta.has_relation_embeddings = false;
  bundle.meta.has_repair = true;

  bundle.dataset.name = "hostile-tiny";
  // Interning order pins the ids: Alpha=0, Beta=1, Gamma=2 on both sides.
  bundle.dataset.kg1.AddTriple("zh/Alpha", "zh/rel", "zh/Beta");
  bundle.dataset.kg1.AddTriple("zh/Beta", "zh/rel", "zh/Gamma");
  bundle.dataset.kg2.AddTriple("en/Alpha", "en/rel", "en/Beta");
  bundle.dataset.kg2.AddTriple("en/Beta", "en/rel", "en/Gamma");
  bundle.dataset.train.Add(0, 0);
  bundle.dataset.test.push_back({1, 1});
  bundle.dataset.test.push_back({2, 2});
  bundle.dataset.gold = {{0, 0}, {1, 1}, {2, 2}};
  bundle.dataset.test_gold = {{1, 1}, {2, 2}};
  bundle.dataset.test_sources = {1, 2};

  bundle.emb1 = la::Matrix(3, 4);
  bundle.emb2 = la::Matrix(3, 4);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      float v = static_cast<float>(r == c % 3 ? 1.0 : 0.1 * (r + 1));
      bundle.emb1.Row(r)[c] = v;
      bundle.emb2.Row(r)[c] = v;
    }
  }

  bundle.alignment.Add(1, 1);
  bundle.alignment.Add(2, 2);
  bundle.repaired = bundle.alignment;

  // Freeze with a trained index so the index.ivf corpus recipes have a
  // payload file to corrupt (2 clusters over the 3x4 table; the
  // replace-rechecksum recipes hard-code these dimensions).
  bundle.meta.index = "ivf";
  la::IvfOptions ivf_options;
  ivf_options.num_clusters = 2;
  ivf_options.nprobe = 2;
  bundle.ivf = la::TrainIvfIndex(bundle.emb2, ivf_options);
  return bundle;
}

// One parsed .recipe file: leading '#' lines are comments, the first
// non-comment line is "<op> <args...>", everything after that line is the
// verbatim replacement content (for replace / replace-rechecksum). One
// comment line is "# expect: <CODE> <file>": the Status code ReadSnapshot
// must return, and the bundle file its message must name ("-" when it
// names none).
struct Recipe {
  std::string name;
  std::string op;
  std::string arg_path;   // payload path relative to the bundle root
  std::string arg_extra;  // keep-bytes / offset / append text
  std::string content;
  std::string expect_code;
  std::string expect_file;
};

Recipe ParseRecipe(const fs::path& path) {
  Recipe recipe;
  recipe.name = path.stem().string();
  std::string bytes = ReadFileBytes(path.string());
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t eol = bytes.find('\n', pos);
    if (eol == std::string::npos) eol = bytes.size();
    std::string line = bytes.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, tag;
      comment >> hash >> tag;
      if (tag == "expect:") {
        comment >> recipe.expect_code >> recipe.expect_file;
      }
      continue;
    }
    std::istringstream tokens(line);
    tokens >> recipe.op >> recipe.arg_path;
    std::getline(tokens, recipe.arg_extra);
    // Strip the single separating space the tokenizer leaves behind.
    if (!recipe.arg_extra.empty() && recipe.arg_extra[0] == ' ') {
      recipe.arg_extra.erase(0, 1);
    }
    if (pos < bytes.size()) recipe.content = bytes.substr(pos);
    break;
  }
  EXPECT_FALSE(recipe.op.empty()) << "no operation line in " << path;
  EXPECT_FALSE(recipe.expect_file.empty()) << "no expect line in " << path;
  return recipe;
}

// Rewrites the MANIFEST checksum entry for `rel_path` so a corrupted
// payload still passes the checksum gate and reaches the parser behind it.
void RecomputeManifestChecksum(const std::string& dir,
                               const std::string& rel_path) {
  auto checksum = serve::ChecksumFile(dir + "/" + rel_path);
  ASSERT_TRUE(checksum.ok()) << checksum.status().message();
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(*checksum));
  std::string manifest = ReadFileBytes(dir + "/MANIFEST");
  std::string needle = "file\t" + rel_path + "\t";
  size_t at = manifest.find(needle);
  ASSERT_NE(at, std::string::npos)
      << rel_path << " has no checksum line in the MANIFEST";
  size_t value = at + needle.size();
  size_t eol = manifest.find('\n', value);
  ASSERT_NE(eol, std::string::npos);
  manifest.replace(value, eol - value, hex);
  WriteFileBytes(dir + "/MANIFEST", manifest);
}

void ApplyRecipe(const std::string& dir, const Recipe& recipe) {
  std::string target = dir + "/" + recipe.arg_path;
  if (recipe.op == "truncate") {
    size_t keep = static_cast<size_t>(std::stoull(recipe.arg_extra));
    std::string bytes = ReadFileBytes(target);
    ASSERT_LE(keep, bytes.size()) << recipe.name << ": nothing to truncate";
    WriteFileBytes(target, bytes.substr(0, keep));
  } else if (recipe.op == "garble") {
    size_t offset = static_cast<size_t>(std::stoull(recipe.arg_extra));
    std::string bytes = ReadFileBytes(target);
    ASSERT_LT(offset, bytes.size()) << recipe.name << ": offset past EOF";
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0xFF);
    WriteFileBytes(target, bytes);
  } else if (recipe.op == "delete") {
    ASSERT_TRUE(fs::remove(target)) << recipe.name << ": no file to delete";
  } else if (recipe.op == "append") {
    WriteFileBytes(target, ReadFileBytes(target) + recipe.arg_extra);
  } else if (recipe.op == "value-append") {
    // `value-append <file> <key> <suffix>`: append <suffix> to the value
    // of the TSV row whose first cell is <key>, leaving every other row
    // untouched. This mutates exactly one cell — a trailing-junk version
    // is rejected by the checked parse while the rest of the MANIFEST
    // (checksums, payload list) stays perfectly valid.
    std::istringstream extra(recipe.arg_extra);
    std::string key, suffix;
    extra >> key >> suffix;
    ASSERT_FALSE(suffix.empty()) << recipe.name << ": want <key> <suffix>";
    std::string bytes = ReadFileBytes(target);
    size_t at = bytes.rfind(key + "\t", 0) == 0
                    ? 0
                    : bytes.find("\n" + key + "\t");
    ASSERT_NE(at, std::string::npos) << recipe.name << ": no row " << key;
    size_t eol = bytes.find('\n', at + 1);
    if (eol == std::string::npos) eol = bytes.size();
    bytes.insert(eol, suffix);
    WriteFileBytes(target, bytes);
  } else if (recipe.op == "unlist") {
    // Drop the MANIFEST's checksum line for <relpath>; the file stays.
    std::string manifest = ReadFileBytes(dir + "/MANIFEST");
    size_t at = manifest.find("\nfile\t" + recipe.arg_path + "\t");
    ASSERT_NE(at, std::string::npos) << recipe.name << ": not listed";
    size_t eol = manifest.find('\n', at + 1);
    ASSERT_NE(eol, std::string::npos);
    manifest.erase(at + 1, eol - at);
    WriteFileBytes(dir + "/MANIFEST", manifest);
  } else if (recipe.op == "replace") {
    WriteFileBytes(target, recipe.content);
  } else if (recipe.op == "replace-rechecksum") {
    WriteFileBytes(target, recipe.content);
    RecomputeManifestChecksum(dir, recipe.arg_path);
  } else {
    FAIL() << recipe.name << ": unknown recipe operation " << recipe.op;
  }
}

std::vector<fs::path> CorpusFiles(const std::string& subdir,
                                  const std::string& extension) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(CorpusDir() + "/" + subdir)) {
    if (entry.path().extension() == extension) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// The <key><TAB><response> lines of tests/corpus/ndjson/responses.tsv, in
// file order ('#' lines are comments).
std::vector<std::pair<std::string, std::string>> RecordedResponses() {
  std::vector<std::pair<std::string, std::string>> recorded;
  std::istringstream lines(
      ReadFileBytes(CorpusDir() + "/ndjson/responses.tsv"));
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    size_t tab = line.find('\t');
    EXPECT_NE(tab, std::string::npos) << "no tab in recorded line: " << line;
    if (tab == std::string::npos) continue;
    recorded.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return recorded;
}

bool IsCorpusKey(const std::string& key) {
  return fs::path(key).extension() == ".txt";
}

class HostileInputTest : public ::testing::Test {
 protected:
  std::string Scratch(const std::string& leaf) {
    std::string dir = ::testing::TempDir() + "/hostile_" + leaf;
    fs::remove_all(dir);
    return dir;
  }
};

TEST_F(HostileInputTest, CleanBundleRoundTrips) {
  std::string dir = Scratch("clean");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  auto bundle = serve::ReadSnapshot(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  auto engine = serve::QueryEngine::FromBundle(std::move(*bundle),
                                               serve::EngineOptions{});
  auto aligned = engine->Align("zh/Beta", serve::Deadline::None());
  ASSERT_TRUE(aligned.ok()) << aligned.status().message();
  EXPECT_EQ(aligned->aligned, std::vector<std::string>{"en/Beta"});
}

TEST_F(HostileInputTest, EverySnapshotRecipeIsRejected) {
  std::vector<fs::path> recipes = CorpusFiles("snapshot", ".recipe");
  ASSERT_GE(recipes.size(), 15u) << "snapshot corpus went missing";

  std::string clean = Scratch("recipe_clean");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), clean).ok());
  std::vector<std::string> bundle_files;
  for (const auto& entry : fs::recursive_directory_iterator(clean)) {
    if (entry.is_regular_file()) {
      bundle_files.push_back(fs::relative(entry.path(), clean).string());
    }
  }

  for (const fs::path& path : recipes) {
    Recipe recipe = ParseRecipe(path);
    std::string dir = Scratch("recipe_" + recipe.name);
    fs::copy(clean, dir, fs::copy_options::recursive);
    ApplyRecipe(dir, recipe);
    if (HasFatalFailure()) return;  // corpus itself is broken; stop early
    auto bundle = serve::ReadSnapshot(dir);
    if (bundle.ok()) {
      ADD_FAILURE() << recipe.name << ": corrupted bundle loaded successfully";
      continue;
    }
    // The same answer as the serial loader the expectations were
    // recorded from, whatever order the parallel tasks finish in.
    const Status& status = bundle.status();
    EXPECT_EQ(StatusCodeName(status.code()), recipe.expect_code)
        << recipe.name << ": " << status.ToString();
    const std::string& message = status.message();
    if (recipe.expect_file != "-") {
      EXPECT_NE(message.find(recipe.expect_file), std::string::npos)
          << recipe.name << ": " << status.ToString();
    }
    // No other payload is named; the MANIFEST may be, beside a payload.
    for (const std::string& file : bundle_files) {
      if (file == recipe.expect_file ||
          (file == "MANIFEST" && recipe.expect_file != "-")) {
        continue;
      }
      EXPECT_EQ(message.find(file), std::string::npos)
          << recipe.name << ": " << status.ToString();
    }
  }
}

// Every snapshot corruption in the corpus, replayed as a hot-swap
// target: load_snapshot must reject the bundle with a structured error
// AND the current version must keep answering exactly as before. A swap
// is transactional — there is no state where a half-validated bundle
// serves traffic.
TEST_F(HostileInputTest, CorruptSwapTargetNeverReplacesTheServingVersion) {
  std::vector<fs::path> recipes = CorpusFiles("snapshot", ".recipe");
  ASSERT_GE(recipes.size(), 15u) << "snapshot corpus went missing";

  std::string clean = Scratch("swap_clean");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), clean).ok());
  obs::Registry registry;
  serve::EngineOptions engine_options;
  engine_options.registry = &registry;
  auto engine = serve::QueryEngine::Open(clean, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  serve::Server server(engine->get(), serve::ServerOptions{});
  const std::string align = "{\"op\":\"align\",\"entity\":\"zh/Beta\"}";
  std::string baseline = server.HandleLine(align);
  ASSERT_EQ(baseline.rfind("{\"ok\":true", 0), 0u) << baseline;

  for (const fs::path& path : recipes) {
    Recipe recipe = ParseRecipe(path);
    std::string dir = Scratch("swap_" + recipe.name);
    fs::copy(clean, dir, fs::copy_options::recursive);
    ApplyRecipe(dir, recipe);
    if (HasFatalFailure()) return;  // corpus itself is broken; stop early

    std::string response = server.HandleLine(
        "{\"op\":\"load_snapshot\",\"dir\":\"" + serve::JsonEscape(dir) +
        "\"}");
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u)
        << recipe.name << ": corrupted bundle was installed: " << response;
    EXPECT_EQ(server.HandleLine(align), baseline)
        << recipe.name << ": serving changed after a rejected swap";
  }
  EXPECT_EQ(registry.CounterValue("serve.snapshot.swaps"), 0u);
  EXPECT_EQ(registry.CounterValue("serve.explain_cache.invalidations"), 0u);
}

// Two payloads that both fail to parse, in different phase-2 tasks: the
// answer is the earlier task's failure (KG2's triples before the first
// entity table) at every thread count, however the tasks interleave.
TEST_F(HostileInputTest, TwoBadPayloadsReportTheFirstInTaskOrder) {
  std::string dir = Scratch("two_bad");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  WriteFileBytes(dir + "/emb_ent1.txt", "not a matrix\n");
  RecomputeManifestChecksum(dir, "emb_ent1.txt");
  WriteFileBytes(dir + "/dataset/kg2_triples.tsv", "only\ttwo\n");
  RecomputeManifestChecksum(dir, "dataset/kg2_triples.tsv");
  if (HasFatalFailure()) return;
  struct ResetThreads {
    ~ResetThreads() { util::SetThreadCount(0); }
  } reset;
  for (size_t threads : {1, 2, 8}) {
    util::SetThreadCount(threads);
    for (int rep = 0; rep < 5; ++rep) {
      auto bundle = serve::ReadSnapshot(dir);
      ASSERT_FALSE(bundle.ok());
      EXPECT_EQ(bundle.status().message(),
                dir + "/dataset/kg2_triples.tsv:1: expected at least 3 "
                      "fields, got 2")
          << threads << " threads";
    }
  }
}

// A payload that exists but cannot be read is an IO error naming it, not
// a checksum mismatch over the bytes that could be read.
TEST_F(HostileInputTest, UnreadablePayloadIsAnIoError) {
  std::string dir = Scratch("unreadable");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  ASSERT_TRUE(fs::remove(dir + "/alignment.tsv"));
  ASSERT_TRUE(fs::create_directory(dir + "/alignment.tsv"));
  auto bundle = serve::ReadSnapshot(dir);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kIoError)
      << bundle.status().ToString();
  EXPECT_NE(bundle.status().message().find("alignment.tsv"),
            std::string::npos);
}

TEST_F(HostileInputTest, EveryNdjsonEntryAnswersWithAnError) {
  std::vector<fs::path> entries = CorpusFiles("ndjson", ".txt");
  ASSERT_GE(entries.size(), 30u) << "ndjson corpus went missing";

  std::string dir = Scratch("ndjson");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  obs::Registry registry;
  serve::EngineOptions engine_options;
  engine_options.registry = &registry;
  auto engine = serve::QueryEngine::Open(dir, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  serve::Server server(engine->get(), serve::ServerOptions{});
  std::map<std::string, std::string> recorded;
  for (const auto& [key, response] : RecordedResponses()) {
    if (IsCorpusKey(key)) recorded[key] = response;
  }

  for (const fs::path& path : entries) {
    std::string line = ReadFileBytes(path.string());
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    // The parser must return a Status (either way) without crashing…
    (void)serve::ParseFlatJson(line).ok();
    // …and the server must answer every entry with a structured error…
    std::string response = server.HandleLine(line);
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u)
        << path.filename() << " got " << response;
    auto reparsed = serve::ParseFlatJson(response);
    EXPECT_TRUE(reparsed.ok())
        << path.filename() << ": unparseable error response " << response;
    // …whose bytes are exactly the recorded ones.
    auto it = recorded.find(path.filename().string());
    if (it == recorded.end()) {
      ADD_FAILURE() << path.filename()
                    << " has no recorded response in responses.tsv";
      continue;
    }
    EXPECT_EQ(response, it->second) << path.filename();
    recorded.erase(it);
  }
  for (const auto& [key, response] : recorded) {
    ADD_FAILURE() << "responses.tsv records " << key
                  << ", which is not a corpus entry";
  }
  EXPECT_EQ(registry.CounterValue("serve.requests"),
            static_cast<uint64_t>(entries.size()));
  EXPECT_EQ(registry.CounterValue("serve.ok"), 0u);
}

// The well-formed side of the byte pin: every non-corpus line of
// responses.tsv is a request, replayed in file order on one fresh server
// (successful align/explain/neighbors/repair_status answers, field-check
// precedence, and the exact error each missing field produces).
TEST_F(HostileInputTest, RecordedRequestsAnswerRecordedBytes) {
  std::string dir = Scratch("recorded");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  obs::Registry registry;
  serve::EngineOptions engine_options;
  engine_options.registry = &registry;
  auto engine = serve::QueryEngine::Open(dir, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  serve::Server server(engine->get(), serve::ServerOptions{});

  // The second pass answers every align from the version's align memo,
  // which the first pass filled, and must not change a byte. Clearing the
  // explain cache in between keeps the recorded cache_hit bytes true.
  size_t replayed = 0;
  uint64_t topk_rows = 0;
  for (int pass = 0; pass < 2; ++pass) {
    (*engine)->ClearExplainCache();
    for (const auto& [request, response] : RecordedResponses()) {
      if (IsCorpusKey(request)) continue;
      EXPECT_EQ(server.HandleLine(request), response)
          << "pass " << pass << ": " << request;
      ++replayed;
    }
    if (pass == 0) topk_rows = registry.CounterValue("index.exact.queries");
  }
  EXPECT_GE(replayed, 40u) << "recorded requests went missing";
  EXPECT_GT(topk_rows, 0u);
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), topk_rows)
      << "the second pass ran a top-k";
}

TEST_F(HostileInputTest, OversizedRequestLineIsRejectedAndCounted) {
  std::string dir = Scratch("oversized");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  obs::Registry registry;
  serve::EngineOptions engine_options;
  engine_options.registry = &registry;
  auto engine = serve::QueryEngine::Open(dir, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  serve::ServerOptions options;
  serve::Server server(engine->get(), options);

  std::string huge(options.max_request_bytes + 1, 'a');
  std::string response = server.HandleLine(huge);
  EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
  EXPECT_NE(response.find("OUT_OF_RANGE"), std::string::npos) << response;
  EXPECT_EQ(registry.CounterValue("serve.oversized"), 1u);
  EXPECT_NE(server.StatsJson().find("\"oversized\":1"), std::string::npos);
}

TEST_F(HostileInputTest, OversizedLineDoesNotKillTheServeLoop) {
  std::string dir = Scratch("serve_loop");
  ASSERT_TRUE(serve::WriteSnapshot(MakeTinyBundle(), dir).ok());
  obs::Registry registry;
  serve::EngineOptions engine_options;
  engine_options.registry = &registry;
  auto engine = serve::QueryEngine::Open(dir, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  serve::ServerOptions options;
  options.max_request_bytes = 64;  // keep the test input small
  serve::Server server(engine->get(), options);

  std::istringstream in("{\"op\":\"stats\"}\n" + std::string(1000, 'x') +
                        "\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  server.Serve(in, out);

  std::vector<std::string> responses;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    responses.push_back(line);
  }
  ASSERT_EQ(responses.size(), 4u) << out.str();
  EXPECT_EQ(responses[0].rfind("{\"ok\":true", 0), 0u);
  EXPECT_NE(responses[1].find("OUT_OF_RANGE"), std::string::npos);
  EXPECT_EQ(responses[2].rfind("{\"ok\":true", 0), 0u);
  EXPECT_NE(responses[3].find("shutdown"), std::string::npos);
  EXPECT_EQ(registry.CounterValue("serve.oversized"), 1u);
}

TEST_F(HostileInputTest, LoadMatrixRefusesHostileHeadersBeforeAllocating) {
  std::string dir = Scratch("matrix");
  fs::create_directories(dir);
  struct Case {
    const char* name;
    const char* header;
  } cases[] = {
      // Each factor is plausible; only the product (1e10 floats) is absurd.
      // Guards that multiply before checking can be wrapped past — this is
      // the division-based check's reason to exist.
      {"product-overflow", "100000 100000"},
      {"factor-overflow", "99999999999999999999 2"},
      {"negative-dimension", "-5 8"},
      {"wraparound-product", "4294967296 4294967297"},
  };
  for (const Case& c : cases) {
    std::string path = dir + "/" + c.name + ".txt";
    WriteFileBytes(path, std::string(c.header) + "\n");
    auto matrix = la::LoadMatrix(path);
    ASSERT_FALSE(matrix.ok()) << c.name << " was accepted";
    EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument)
        << c.name << ": " << matrix.status().message();
  }
}

// Each value token must parse whole as a finite float. The bad token sits
// last, where a parser that stops at the first unusable byte would
// accept its numeric prefix and never look at the rest.
TEST_F(HostileInputTest, LoadMatrixRejectsMalformedValueTokens) {
  std::string dir = Scratch("matrix_tokens");
  fs::create_directories(dir);
  const char* tokens[] = {"nan",   "inf",    "-inf", "1e39", "0x1p3",
                          "1.5e",  "1.5abc", "+-1",  "+1",   "1e-50"};
  for (const char* token : tokens) {
    std::string path = dir + "/m.txt";
    WriteFileBytes(path, std::string("2 2\n1 2\n3 ") + token + "\n");
    auto matrix = la::LoadMatrix(path);
    ASSERT_FALSE(matrix.ok()) << token << " was accepted";
    EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument) << token;
    EXPECT_NE(matrix.status().message().find("truncated at row 1 col 1"),
              std::string::npos)
        << token << ": " << matrix.status().message();
  }
  std::string empty_body = dir + "/empty.txt";
  WriteFileBytes(empty_body, "2 2\n");
  auto matrix = la::LoadMatrix(empty_body);
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(matrix.status().message().find("truncated at row 0 col 0"),
            std::string::npos)
      << matrix.status().message();
}

// A matrix file cut at any byte either fails cleanly or, when the cut
// only shortens the last token, still yields the declared shape.
TEST_F(HostileInputTest, LoadMatrixSurvivesTruncationAtEveryOffset) {
  std::string dir = Scratch("matrix_truncated");
  fs::create_directories(dir);
  la::Matrix m(2, 3);
  const float values[] = {1.5f, -0.25f, 3.0e-39f, 1e30f, -0.0f, 0.125f};
  for (size_t i = 0; i < 6; ++i) m.Row(i / 3)[i % 3] = values[i];
  std::string path = dir + "/whole.txt";
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  std::string bytes = ReadFileBytes(path);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string cut = dir + "/cut.txt";
    WriteFileBytes(cut, bytes.substr(0, keep));
    auto loaded = la::LoadMatrix(cut);
    if (loaded.ok()) {
      EXPECT_EQ(loaded->rows(), 2u) << "cut at " << keep;
      EXPECT_EQ(loaded->cols(), 3u) << "cut at " << keep;
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "cut at " << keep << ": " << loaded.status().message();
    }
  }
}

}  // namespace
}  // namespace exea
