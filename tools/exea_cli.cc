// exea_cli — the command-line entry point to the ExEA toolkit. Works on
// disk-backed datasets in the DBP15K/OpenEA TSV layout (see
// data/dataset_io.h).
//
// Subcommands:
//   generate  --benchmark ZH-EN --scale small --out DIR
//             Generate a synthetic benchmark and write its four TSV files.
//   stats     --dir DIR | --port N
//             Print dataset statistics, or query a running server's
//             {"op":"stats"} endpoint.
//   align     --dir DIR --model Dual-AMN [--inference greedy|mutual|csls|stable]
//             [--out FILE] [--embeddings PREFIX]
//             Train a model, infer alignment, report accuracy; optionally
//             write the predicted alignment TSV and the embedding tables.
//   repair    --dir DIR --model Dual-AMN [--out FILE]
//             [--no-cr1] [--no-cr2] [--no-cr3] [--rounds N]
//             Full ExEA repair; optionally write the repaired alignment.
//   explain   --dir DIR --model Dual-AMN --source NAME [--target NAME]
//             [--format text|dot|json] [--hops 1|2]
//             Explain one pair (default target: the model's prediction).
//   evaluate  --dir DIR --alignment FILE
//             Accuracy of an alignment TSV against the dataset's test gold.
//   audit     --dir DIR --model Dual-AMN [--limit N] [--verbalize]
//             Explain every predicted pair, rank the suspect ones first,
//             and print the review queue (optionally with verbalized
//             explanations).
//   snapshot  --dir DIR --model Dual-AMN --out BUNDLE
//             [--inference greedy|mutual|csls|stable] [--repair] [--rounds N]
//             [--index exact|ivf] [--clusters N] [--nprobe N]
//             Run the offline pipeline once and freeze its state into a
//             versioned, checksummed snapshot bundle (see serve/snapshot.h);
//             --index=ivf also trains and persists the IVF coarse quantizer.
//   serve     --bundle BUNDLE [--port N] [--deadline-ms N] [--cache N]
//             [--topk N] [--index auto|exact|ivf] [--workers N]
//             [--queue N] [--max-conns N]
//             Load a snapshot bundle and answer newline-delimited JSON
//             queries on stdin/stdout (or, with --port, on 127.0.0.1:PORT
//             through the concurrent async core, where each align runs on
//             the worker that dequeued it).
//   bench-recall  [--rows N] [--dim N] [--queries N] [--k N] [--clusters N]
//             [--seed N]
//             Synthetic recall@k vs. QPS sweep: exact scan vs. the IVF
//             index across a range of nprobe values.
//   bench-load  --bundle BUNDLE [--clients N] [--requests N] [--pipeline N]
//             [--op align|explain|stats|mixed] | --port N [--op stats]
//             Concurrent-client load generator against the async serving
//             core (self-hosted from a bundle, or attached to a running
//             server): reports QPS, reject rate, and p50/p99 latency in
//             total and per op, and fails on any malformed or missing
//             response.
//
// Global flags (any subcommand):
//   --threads N   worker threads for the parallel kernels (default all
//                 hardware threads, 1 = serial; output is identical at any
//                 value — see DESIGN.md "Concurrency model").
//   --help        per-subcommand flag summary (exits 0)
//   --version     print the snapshot format version (exits 0)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/benchmarks.h"
#include "data/dataset_io.h"
#include "emb/model.h"
#include "eval/csls.h"
#include "eval/inference.h"
#include "eval/metrics.h"
#include "explain/audit.h"
#include "explain/exea.h"
#include "explain/export.h"
#include "kg/kg_io.h"
#include "kg/stats.h"
#include "la/matrix_io.h"
#include "la/simd.h"
#include "la/similarity_index.h"
#include "net/socket_io.h"
#include "obs/metrics.h"
#include "repair/pipeline.h"
#include "serve/async_server.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace exea {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

const char* const kUsageText =
    "usage: exea_cli <generate|stats|align|repair|explain|"
    "evaluate|audit|snapshot|serve|swap|bench-recall|bench-load> "
    "[--flags]\n"
    "global flags:\n"
    "  --threads N   worker threads for the similarity/CSLS/"
    "explanation kernels\n"
    "                (default: all hardware threads; 1 forces the "
    "serial path;\n"
    "                results are identical at any value)\n"
    "  --help        per-subcommand flag summary (exits 0)\n"
    "  --version     print the snapshot format version (exits 0)\n"
    "(run `exea_cli <subcommand> --help` for per-subcommand flags)\n";

int Usage() {
  std::fprintf(stderr, "%s", kUsageText);
  return 2;
}

// Per-subcommand flag summaries for `exea_cli <subcommand> --help`.
// Returns nullptr for unknown subcommands.
const char* SubcommandHelp(const std::string& command) {
  if (command == "generate") {
    return "exea_cli generate --out DIR [--benchmark ZH-EN] [--scale small]\n"
           "  Generate a synthetic benchmark and write its four TSV files.\n";
  }
  if (command == "stats") {
    return "exea_cli stats --dir DIR [--name NAME]\n"
           "exea_cli stats --port N\n"
           "  Print dataset statistics; with --port, query a running\n"
           "  `exea_cli serve` instance's {\"op\":\"stats\"} endpoint\n"
           "  (request counters, cache hit rates, and the latency\n"
           "  percentiles kept by the obs registry).\n";
  }
  if (command == "align") {
    return "exea_cli align --dir DIR [--model Dual-AMN]\n"
           "  [--inference greedy|mutual|csls|stable] [--epochs N] "
           "[--seed N]\n"
           "  [--out FILE] [--embeddings PREFIX]\n"
           "  Train a model, infer alignment, report accuracy; optionally\n"
           "  write the predicted alignment TSV and the embedding tables.\n";
  }
  if (command == "repair") {
    return "exea_cli repair --dir DIR [--model Dual-AMN] [--out FILE]\n"
           "  [--no-cr1] [--no-cr2] [--no-cr3] [--rounds N] [--hops 1|2]\n"
           "  [--epochs N] [--seed N]\n"
           "  Full ExEA repair; optionally write the repaired alignment.\n";
  }
  if (command == "explain") {
    return "exea_cli explain --dir DIR --source NAME [--target NAME]\n"
           "  [--model Dual-AMN] [--format text|dot|json] [--hops 1|2]\n"
           "  [--epochs N] [--seed N]\n"
           "  Explain one pair (default target: the model's prediction).\n";
  }
  if (command == "evaluate") {
    return "exea_cli evaluate --dir DIR --alignment FILE\n"
           "  Accuracy of an alignment TSV against the dataset's test "
           "gold.\n";
  }
  if (command == "audit") {
    return "exea_cli audit --dir DIR [--model Dual-AMN] [--limit N]\n"
           "  [--verbalize] [--epochs N] [--seed N]\n"
           "  Explain every predicted pair, rank the suspect ones first,\n"
           "  and print the review queue.\n";
  }
  if (command == "snapshot") {
    return "exea_cli snapshot --dir DIR --out BUNDLE [--model Dual-AMN]\n"
           "  [--inference greedy|mutual|csls|stable] [--repair] "
           "[--rounds N]\n"
           "  [--epochs N] [--seed N] [--index exact|ivf] [--clusters N]\n"
           "  [--nprobe N]\n"
           "  Run the offline pipeline (train, infer, optionally repair)\n"
           "  and freeze its state into a versioned, checksummed snapshot\n"
           "  bundle for `exea_cli serve`. --index=ivf additionally trains\n"
           "  the IVF coarse quantizer over the target embeddings and\n"
           "  persists it in the bundle (index.ivf), so serving can probe\n"
           "  --nprobe lists instead of scanning every entity.\n";
  }
  if (command == "serve") {
    return "exea_cli serve --bundle BUNDLE [--port N] [--deadline-ms N]\n"
           "  [--cache N] [--topk N] [--index auto|exact|ivf]\n"
           "  [--workers N] [--queue N] [--max-conns N]\n"
           "  Load a snapshot bundle and answer newline-delimited JSON\n"
           "  requests on stdin/stdout, one response line per request\n"
           "  (or on 127.0.0.1:PORT with --port). Ops: align, explain,\n"
           "  neighbors, repair_status, stats, load_snapshot,\n"
           "  engine_status, shutdown. --index picks the\n"
           "  align search strategy (auto: ivf when the bundle has one and\n"
           "  the table is large enough); the live choice is echoed in\n"
           "  every align response and the stats op.\n"
           "  With --port the concurrent async core serves: --workers\n"
           "  event loops (connections spread round-robin over them) and\n"
           "  as many request threads behind a --queue-bounded admission\n"
           "  queue (full queue => UNAVAILABLE), at most --max-conns\n"
           "  clients. Each line is decoded once, on its connection's\n"
           "  loop, which also answers a line that does not decode and\n"
           "  an align the snapshot's memo already holds; every other\n"
           "  request runs whole on the worker that dequeued it.\n"
           "  Responses are byte-identical to the stdin path. --workers\n"
           "  is 1..256 and --port 0..65535; --queue, --max-conns and\n"
           "  --topk must be positive integers, --cache and --deadline-ms\n"
           "  non-negative ones (0 disables). A load_snapshot hot swap\n"
           "  keeps only the new version; in-flight requests retain the\n"
           "  one they started on until they drain.\n";
  }
  if (command == "swap") {
    return "exea_cli swap --port N --bundle DIR\n"
           "  Hot-swap a running `exea_cli serve --port N` instance onto\n"
           "  the snapshot bundle at DIR via {\"op\":\"load_snapshot\"}.\n"
           "  Prints the server's response line; exits non-zero if the\n"
           "  swap was rejected (the server keeps serving its current\n"
           "  version on any failure).\n";
  }
  if (command == "bench-recall") {
    return "exea_cli bench-recall [--rows N] [--dim N] [--queries N] "
           "[--k N]\n"
           "  [--clusters N] [--seed N]\n"
           "  Build a clustered synthetic embedding table, train the IVF\n"
           "  index, and sweep nprobe: prints recall@1 / recall@k and QPS\n"
           "  for the exact scan and each probe width.\n";
  }
  if (command == "bench-load") {
    return "exea_cli bench-load --bundle BUNDLE [--clients N] "
           "[--requests N]\n"
           "  [--pipeline N] [--op align|explain|stats|mixed]\n"
           "  [--deadline-ms N] [--cache N] [--topk N]\n"
           "  [--index auto|exact|ivf] [--workers N] [--queue N]\n"
           "  [--swap-bundle DIR] [--swaps N]\n"
           "exea_cli bench-load --port N [--clients N] [--requests N]\n"
           "  [--pipeline N]\n"
           "  Drive --clients concurrent connections, --requests each,\n"
           "  against the async serving core — self-hosted in-process\n"
           "  from --bundle (kernel-assigned port, no port races), or an\n"
           "  already-running server with --port (stats op only).\n"
           "  --pipeline K keeps up to K requests in flight per client.\n"
           "  --deadline-ms, --cache, --topk, --index, --workers and\n"
           "  --queue configure the self-hosted server as they do for\n"
           "  `exea_cli serve`, with the same defaults and checks.\n"
           "  --clients is 1..256, --port 1..65535, and --requests,\n"
           "  --pipeline and --swaps positive integers.\n"
           "  --op mixed cycles align, explain, neighbors, repair_status\n"
           "  and stats. Prints one machine-greppable result line (QPS,\n"
           "  reject and shed counts, p50/p99 latency), then one\n"
           "  bench-load-op line per op with its p50/p99, and exits\n"
           "  non-zero if any response is malformed or missing.\n"
           "  --swap-bundle DIR hot-swaps the self-hosted server between\n"
           "  DIR and --bundle --swaps times (default 5) while the load\n"
           "  clients run, proving zero dropped or malformed responses\n"
           "  across version churn; any failed swap fails the run.\n";
  }
  return nullptr;
}

StatusOr<data::EaDataset> LoadFromFlags(const Flags& flags) {
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    return Status::InvalidArgument("--dir is required");
  }
  return data::LoadDataset(dir, flags.GetString("name", dir));
}

std::unique_ptr<emb::EAModel> ModelFromFlags(const Flags& flags) {
  std::string name = flags.GetString("model", "Dual-AMN");
  for (emb::ModelKind kind :
       {emb::ModelKind::kMTransE, emb::ModelKind::kAlignE,
        emb::ModelKind::kGcnAlign, emb::ModelKind::kDualAmn}) {
    if (emb::ModelKindName(kind) == name) {
      emb::TrainConfig config = emb::DefaultConfigFor(kind);
      if (flags.Has("epochs")) {
        config.epochs = static_cast<size_t>(flags.GetInt("epochs", 0));
      }
      if (flags.Has("seed")) {
        config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
      }
      return emb::MakeModel(kind, config);
    }
  }
  return nullptr;
}

struct InferenceResult {
  eval::RankedSimilarity ranked;
  kg::AlignmentSet aligned;
};

// The inference dispatch shared by align and snapshot.
StatusOr<InferenceResult> InferAlignment(const emb::EAModel& model,
                                         const data::EaDataset& dataset,
                                         const std::string& inference) {
  if (inference == "csls") {
    InferenceResult result{eval::RankTestEntitiesCsls(model, dataset), {}};
    result.aligned = eval::GreedyAlign(result.ranked);
    return result;
  }
  InferenceResult result{eval::RankTestEntities(model, dataset), {}};
  if (inference == "greedy") {
    result.aligned = eval::GreedyAlign(result.ranked);
  } else if (inference == "mutual") {
    result.aligned = eval::MutualBestAlign(result.ranked);
  } else if (inference == "stable") {
    result.aligned = eval::StableMatchAlign(result.ranked);
  } else {
    return Status::InvalidArgument(
        "unknown --inference (greedy|mutual|csls|stable)");
  }
  return result;
}

int CmdGenerate(const Flags& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail("--out is required");
  data::EaDataset dataset = data::MakeBenchmark(
      data::BenchmarkFromName(flags.GetString("benchmark", "ZH-EN")),
      data::ScaleFromName(flags.GetString("scale", "small")));
  Status status = data::SaveDataset(dataset, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s: kg1 %zu triples, kg2 %zu triples, %zu train / %zu "
              "test links\n",
              out.c_str(), dataset.kg1.num_triples(),
              dataset.kg2.num_triples(), dataset.train.size(),
              dataset.test.size());
  return 0;
}

// The most event loops, workers and bench-load clients `--workers` and
// `--clients` may ask for. Checked before any thread starts, so a typo
// cannot spawn thousands of threads.
constexpr int64_t kMaxWorkers = 256;
constexpr int64_t kMaxPort = 65535;

// Sets `*value` from the integer flag `name` when it is given. The value
// must be a whole number in [min, max]: text or a value outside the range
// is an error naming the flag, never a silent default or a wrapped size_t.
template <typename T>
Status ReadCountFlag(const Flags& flags, const char* name, int64_t min,
                     int64_t max, T* value) {
  if (!flags.Has(name)) return Status::Ok();
  int64_t parsed = 0;
  Status status =
      util::ParseInt64(flags.GetString(name, ""), min, max, &parsed);
  if (!status.ok()) {
    std::string allowed =
        max != INT64_MAX
            ? StrFormat("an integer in [%lld, %lld]",
                        static_cast<long long>(min),
                        static_cast<long long>(max))
            : (min == 0 ? "a non-negative integer" : "a positive integer");
    return Status::InvalidArgument(StrFormat("--%s must be %s: ", name,
                                             allowed.c_str()) +
                                   status.message());
  }
  *value = static_cast<T>(parsed);
  return Status::Ok();
}

// Sends one request line to a serving exea_cli on 127.0.0.1:`port` and
// returns its one response line.
StatusOr<std::string> AskServer(int port, const std::string& request) {
  auto fd = net::ConnectLocal(port);
  if (!fd.ok()) {
    return Status::Unavailable(StrFormat(
        "cannot connect to 127.0.0.1:%d (is `exea_cli serve --port %d` "
        "running?)",
        port, port));
  }
  net::LineReader reader(*fd);
  std::string line;
  bool truncated = false;
  size_t truncated_bytes = 0;
  bool got = net::WriteAll(*fd, request + "\n").ok() &&
             reader.ReadLine(1 << 24, &line, &truncated, &truncated_bytes);
  ::close(*fd);
  if (!got || line.empty()) {
    return Status::Unavailable("no response from server");
  }
  return line;
}

// The load_snapshot request that hot-swaps a server onto `bundle`.
std::string LoadSnapshotRequest(const std::string& bundle) {
  return "{\"op\":\"load_snapshot\",\"dir\":\"" + serve::JsonEscape(bundle) +
         "\"}";
}

int CmdStats(const Flags& flags) {
  if (flags.Has("port")) {
    // The raw stats line: a JSON object whose payload keys are
    // serve::Server::StatsJson's.
    int port = 0;
    Status read = ReadCountFlag(flags, "port", 1, kMaxPort, &port);
    if (!read.ok()) return Fail(read.message());
    auto response = AskServer(port, "{\"op\":\"stats\"}");
    if (!response.ok()) return Fail(response.status().message());
    std::printf("%s\n", response->c_str());
    return 0;
  }
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::printf("KG1: %s\n", kg::ComputeStats(dataset->kg1).ToString().c_str());
  std::printf("KG2: %s\n", kg::ComputeStats(dataset->kg2).ToString().c_str());
  std::printf("links: %zu train, %zu test\n", dataset->train.size(),
              dataset->test.size());
  return 0;
}

int CmdAlign(const Flags& flags) {
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::unique_ptr<emb::EAModel> model = ModelFromFlags(flags);
  if (model == nullptr) return Fail("unknown --model");
  model->Train(*dataset);

  std::string inference = flags.GetString("inference", "greedy");
  auto inferred = InferAlignment(*model, *dataset, inference);
  if (!inferred.ok()) return Fail(inferred.status().ToString());
  kg::AlignmentSet& aligned = inferred->aligned;
  std::printf("%s + %s inference: %zu pairs, accuracy %.3f\n",
              model->name().c_str(), inference.c_str(), aligned.size(),
              eval::Accuracy(aligned, dataset->test_gold));

  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    Status status =
        kg::SaveAlignment(aligned, dataset->kg1, dataset->kg2, out);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote %s\n", out.c_str());
  }
  std::string embeddings = flags.GetString("embeddings", "");
  if (!embeddings.empty()) {
    for (const auto& [suffix, side] :
         {std::pair<const char*, kg::KgSide>{"_ent1.txt",
                                             kg::KgSide::kSource},
          {"_ent2.txt", kg::KgSide::kTarget}}) {
      Status status = la::SaveMatrix(model->EntityEmbeddings(side),
                                     embeddings + suffix);
      if (!status.ok()) return Fail(status.ToString());
    }
    std::printf("wrote %s_ent{1,2}.txt\n", embeddings.c_str());
  }
  return 0;
}

int CmdRepair(const Flags& flags) {
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::unique_ptr<emb::EAModel> model = ModelFromFlags(flags);
  if (model == nullptr) return Fail("unknown --model");
  model->Train(*dataset);

  explain::ExeaConfig config;
  config.hops = static_cast<int>(flags.GetInt("hops", 1));
  explain::ExeaExplainer explainer(*dataset, *model, config);
  repair::RepairOptions options;
  options.enable_cr1 = !flags.Has("no-cr1");
  options.enable_cr2 = !flags.Has("no-cr2");
  options.enable_cr3 = !flags.Has("no-cr3");
  repair::RepairPipeline pipeline(explainer, options);
  size_t rounds = static_cast<size_t>(flags.GetInt("rounds", 1));
  repair::RepairReport report =
      rounds > 1 ? pipeline.RunIterative(rounds) : pipeline.Run();

  std::printf("base accuracy:      %.3f\n", report.base_accuracy);
  std::printf("repaired accuracy:  %.3f  (delta %+.3f)\n",
              report.repaired_accuracy, report.AccuracyGain());
  std::printf("one-to-many:        %zu conflicts, %zu swaps\n",
              report.one_to_many_conflicts, report.one_to_many_swaps);
  std::printf("low-confidence:     %zu removed, %zu swaps, %zu greedy\n",
              report.low_confidence_removed, report.low_confidence_swaps,
              report.greedy_fallback_matches);
  std::printf("cr1 neighbour prunes: %zu\n", report.relation_conflict_prunes);

  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    Status status = kg::SaveAlignment(report.repaired_alignment,
                                      dataset->kg1, dataset->kg2, out);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int CmdExplain(const Flags& flags) {
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::unique_ptr<emb::EAModel> model = ModelFromFlags(flags);
  if (model == nullptr) return Fail("unknown --model");
  std::string source_name = flags.GetString("source", "");
  if (source_name.empty()) return Fail("--source is required");
  kg::EntityId source = dataset->kg1.FindEntity(source_name);
  if (source == kg::kInvalidEntity) {
    return Fail("unknown KG1 entity: " + source_name);
  }
  model->Train(*dataset);

  eval::RankedSimilarity ranked = eval::RankTestEntities(*model, *dataset);
  kg::AlignmentSet aligned = eval::GreedyAlign(ranked);

  kg::EntityId target = kg::kInvalidEntity;
  std::string target_name = flags.GetString("target", "");
  if (!target_name.empty()) {
    target = dataset->kg2.FindEntity(target_name);
    if (target == kg::kInvalidEntity) {
      return Fail("unknown KG2 entity: " + target_name);
    }
  } else {
    std::vector<kg::EntityId> targets = aligned.TargetsOf(source);
    if (targets.empty()) {
      return Fail("model did not align " + source_name +
                  "; pass --target explicitly");
    }
    target = targets[0];
  }

  explain::ExeaConfig config;
  config.hops = static_cast<int>(flags.GetInt("hops", 1));
  explain::ExeaExplainer explainer(*dataset, *model, config);
  explain::AlignmentContext context(&aligned, &dataset->train);
  explain::Explanation explanation =
      explainer.Explain(source, target, context);
  explain::Adg adg = explainer.BuildAdg(explanation);

  std::string format = flags.GetString("format", "text");
  if (format == "dot") {
    std::printf("%s\n%s",
                explain::ExplanationToDot(explanation, dataset->kg1,
                                          dataset->kg2)
                    .c_str(),
                explain::AdgToDot(adg, dataset->kg1, dataset->kg2).c_str());
  } else if (format == "json") {
    std::printf(
        "{\"explanation\":%s,\"adg\":%s}\n",
        explain::ExplanationToJson(explanation, dataset->kg1, dataset->kg2)
            .c_str(),
        explain::AdgToJson(adg, dataset->kg1, dataset->kg2).c_str());
  } else {
    std::printf("pair: (%s, %s), similarity %.3f\n",
                dataset->kg1.EntityName(source).c_str(),
                dataset->kg2.EntityName(target).c_str(),
                model->Similarity(source, target));
    std::printf("matches: %zu, confidence %.3f\n",
                explanation.matches.size(), adg.confidence);
    for (const kg::Triple& t : explanation.triples1) {
      std::printf("  KG1 (%s, %s, %s)\n",
                  dataset->kg1.EntityName(t.head).c_str(),
                  dataset->kg1.RelationName(t.rel).c_str(),
                  dataset->kg1.EntityName(t.tail).c_str());
    }
    for (const kg::Triple& t : explanation.triples2) {
      std::printf("  KG2 (%s, %s, %s)\n",
                  dataset->kg2.EntityName(t.head).c_str(),
                  dataset->kg2.RelationName(t.rel).c_str(),
                  dataset->kg2.EntityName(t.tail).c_str());
    }
  }
  return 0;
}

int CmdAudit(const Flags& flags) {
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::unique_ptr<emb::EAModel> model = ModelFromFlags(flags);
  if (model == nullptr) return Fail("unknown --model");
  model->Train(*dataset);
  eval::RankedSimilarity ranked = eval::RankTestEntities(*model, *dataset);
  kg::AlignmentSet aligned = eval::GreedyAlign(ranked);

  explain::ExeaConfig config;
  explain::ExeaExplainer explainer(*dataset, *model, config);
  explain::AuditReport report =
      explain::AuditAlignment(explainer, aligned, dataset->train);

  std::printf("audited %zu pairs: %zu suspect, mean confidence %.3f\n",
              report.entries.size(), report.suspect_count,
              report.mean_confidence);
  std::printf("confidence histogram (0.0..1.0): ");
  for (size_t count : report.confidence_histogram) {
    std::printf("%zu ", count);
  }
  std::printf("\n\n");

  size_t limit = static_cast<size_t>(flags.GetInt("limit", 10));
  bool verbalize = flags.Has("verbalize");
  explain::AlignmentContext context(&aligned, &dataset->train);
  for (size_t i = 0; i < std::min(limit, report.entries.size()); ++i) {
    const explain::AuditEntry& entry = report.entries[i];
    std::string flags_text;
    for (explain::AuditFlag flag : entry.flags) {
      if (!flags_text.empty()) flags_text += ",";
      flags_text += explain::AuditFlagName(flag);
    }
    std::printf("#%zu (%s, %s)  sim %.3f  conf %.3f  matches %zu  [%s]\n",
                i + 1, dataset->kg1.EntityName(entry.source).c_str(),
                dataset->kg2.EntityName(entry.target).c_str(),
                entry.similarity, entry.confidence, entry.matches,
                flags_text.empty() ? "ok" : flags_text.c_str());
    if (verbalize) {
      explain::Explanation explanation =
          explainer.Explain(entry.source, entry.target, context);
      explain::Adg adg = explainer.BuildAdg(explanation);
      std::printf("%s\n",
                  explain::VerbalizeExplanation(explanation, adg,
                                                dataset->kg1, dataset->kg2)
                      .c_str());
    }
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::string path = flags.GetString("alignment", "");
  if (path.empty()) return Fail("--alignment is required");
  auto alignment = kg::LoadAlignment(path, dataset->kg1, dataset->kg2);
  if (!alignment.ok()) return Fail(alignment.status().ToString());
  std::printf("pairs:    %zu\n", alignment->size());
  std::printf("accuracy: %.3f\n",
              eval::Accuracy(*alignment, dataset->test_gold));
  std::printf("1-to-1:   %s\n", alignment->IsOneToOne() ? "yes" : "no");
  return 0;
}

int CmdSnapshot(const Flags& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail("--out is required");
  std::string index = flags.GetString("index", "exact");
  if (index != "exact" && index != "ivf") {
    return Fail("--index must be exact or ivf");
  }
  auto dataset = LoadFromFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::unique_ptr<emb::EAModel> model = ModelFromFlags(flags);
  if (model == nullptr) return Fail("unknown --model");
  model->Train(*dataset);

  std::string inference = flags.GetString("inference", "greedy");
  auto inferred = InferAlignment(*model, *dataset, inference);
  if (!inferred.ok()) return Fail(inferred.status().ToString());

  serve::SnapshotBundle bundle;
  bundle.meta.model_name = model->name();
  bundle.meta.dataset_name =
      flags.GetString("name", flags.GetString("dir", ""));
  bundle.meta.inference = inference;
  bundle.meta.has_relation_embeddings = model->HasRelationEmbeddings();
  bundle.meta.has_repair = flags.Has("repair");
  bundle.meta.index = index;
  bundle.emb1 = model->EntityEmbeddings(kg::KgSide::kSource);
  bundle.emb2 = model->EntityEmbeddings(kg::KgSide::kTarget);
  if (index == "ivf") {
    la::IvfOptions ivf_options;
    ivf_options.num_clusters =
        static_cast<size_t>(flags.GetInt("clusters", 0));
    ivf_options.nprobe = static_cast<size_t>(flags.GetInt("nprobe", 8));
    if (flags.Has("seed")) {
      ivf_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
    }
    bundle.ivf = la::TrainIvfIndex(bundle.emb2, ivf_options);
    std::printf("trained ivf index: %zu clusters over %zu entities, "
                "nprobe %u\n",
                bundle.ivf.centroids.rows(), bundle.emb2.rows(),
                bundle.ivf.nprobe);
  }
  if (bundle.meta.has_relation_embeddings) {
    bundle.rel1 = model->RelationEmbeddings(kg::KgSide::kSource);
    bundle.rel2 = model->RelationEmbeddings(kg::KgSide::kTarget);
  }
  bundle.alignment = inferred->aligned;
  if (bundle.meta.has_repair) {
    explain::ExeaConfig config;
    explain::ExeaExplainer explainer(*dataset, *model, config);
    repair::RepairPipeline pipeline(explainer, repair::RepairOptions{});
    size_t rounds = static_cast<size_t>(flags.GetInt("rounds", 1));
    repair::RepairReport report =
        rounds > 1 ? pipeline.RunIterative(rounds)
                   : pipeline.Run(inferred->aligned, inferred->ranked);
    bundle.repaired = report.repaired_alignment;
    std::printf("repair: accuracy %.3f -> %.3f\n", report.base_accuracy,
                report.repaired_accuracy);
  } else {
    bundle.repaired = inferred->aligned;
  }
  // Move the dataset in only after repair — the explainer above borrows it.
  bundle.dataset = std::move(*dataset);

  Status status = serve::WriteSnapshot(bundle, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf(
      "wrote snapshot %s: format v%d, %s + %s, index %s, %zu aligned "
      "pairs, %zu served pairs%s\n",
      out.c_str(), bundle.meta.format_version,
      bundle.meta.model_name.c_str(), inference.c_str(),
      bundle.meta.index.c_str(), bundle.alignment.size(),
      bundle.repaired.size(), bundle.meta.has_repair ? " (repaired)" : "");
  return 0;
}

// The flags serve and bench-load share, over the option structs' own
// defaults: --workers (worker threads and event loops), --queue,
// --deadline-ms and --cache (0 disables either), --topk and --index.
Status ReadServingFlags(const Flags& flags,
                        serve::AsyncServerOptions* server,
                        serve::EngineOptions* engine) {
  EXEA_RETURN_IF_ERROR(
      ReadCountFlag(flags, "workers", 1, kMaxWorkers, &server->workers));
  EXEA_RETURN_IF_ERROR(
      ReadCountFlag(flags, "queue", 1, INT64_MAX, &server->queue_capacity));
  int64_t deadline_ms =
      static_cast<int64_t>(server->server.deadline_seconds * 1e3);
  EXEA_RETURN_IF_ERROR(
      ReadCountFlag(flags, "deadline-ms", 0, INT64_MAX, &deadline_ms));
  server->server.deadline_seconds = static_cast<double>(deadline_ms) / 1e3;
  EXEA_RETURN_IF_ERROR(ReadCountFlag(flags, "cache", 0, INT64_MAX,
                                     &engine->explain_cache_capacity));
  EXEA_RETURN_IF_ERROR(
      ReadCountFlag(flags, "topk", 1, INT64_MAX, &engine->top_k));
  engine->index_policy = flags.GetString("index", engine->index_policy);
  return Status::Ok();
}

int CmdServe(const Flags& flags) {
  std::string bundle_dir = flags.GetString("bundle", "");
  if (bundle_dir.empty()) return Fail("--bundle is required");
  serve::AsyncServerOptions async_options;
  serve::EngineOptions engine_options;
  int port = 0;
  Status read = ReadServingFlags(flags, &async_options, &engine_options);
  if (read.ok()) {
    read = ReadCountFlag(flags, "max-conns", 1, INT64_MAX,
                         &async_options.max_connections);
  }
  if (read.ok()) read = ReadCountFlag(flags, "port", 0, kMaxPort, &port);
  if (!read.ok()) return Fail(read.message());
  auto engine = serve::QueryEngine::Open(bundle_dir, engine_options);
  if (!engine.ok()) return Fail(engine.status().ToString());
  {
    std::shared_ptr<const serve::ServingState> state =
        (*engine)->AcquireState();
    std::fprintf(stderr,
                 "serving %s (%s, %zu pairs, index %s over %zu "
                 "entities, epoch %llu)\n",
                 bundle_dir.c_str(),
                 state->bundle().meta.model_name.c_str(),
                 state->bundle().repaired.size(), state->index().name(),
                 state->index().size(),
                 static_cast<unsigned long long>(state->epoch()));
  }

  if (flags.Has("port")) {
    serve::AsyncServer server(engine->get(), async_options);
    Status status = server.Start(port);
    if (!status.ok()) return Fail(status.ToString());
    std::fprintf(stderr,
                 "listening on 127.0.0.1:%d (async: %zu workers, queue %zu, "
                 "max %zu conns)\n",
                 server.port(), async_options.workers,
                 async_options.queue_capacity, async_options.max_connections);
    server.Wait();
    std::fprintf(stderr, "server exiting; final stats: %s\n",
                 server.server().StatsJson().c_str());
    return 0;
  }
  // stdin/stdout keeps the synchronous loop: one caller, one pipe, no
  // reason for an event loop.
  serve::Server server(engine->get(), async_options.server);
  server.Serve(std::cin, std::cout);
  return 0;
}

// Synthetic recall@k vs. QPS sweep. The table is a mixture of Gaussian
// clusters (entity embeddings trained for alignment are strongly
// clustered, which is exactly the structure IVF exploits); queries are
// noisy copies of random table rows, mimicking a counterpart lookup.
int CmdBenchRecall(const Flags& flags) {
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 20000));
  size_t dim = static_cast<size_t>(flags.GetInt("dim", 64));
  size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 256));
  size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  if (rows == 0 || dim == 0 || num_queries == 0 || k == 0) {
    return Fail("--rows/--dim/--queries/--k must all be positive");
  }

  Rng rng(seed);
  size_t data_centers = std::max<size_t>(
      4, static_cast<size_t>(std::sqrt(static_cast<double>(rows))));
  la::Matrix centers(data_centers, dim);
  centers.FillNormal(rng, 1.0f);
  la::Matrix table(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    const float* c = centers.Row(i % data_centers);
    float* dst = table.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      dst[d] = c[d] + 0.15f * static_cast<float>(rng.Normal());
    }
  }
  la::Matrix queries(num_queries, dim);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* src = table.Row(rng.UniformInt(rows));
    float* dst = queries.Row(q);
    for (size_t d = 0; d < dim; ++d) {
      dst[d] = src[d] + 0.05f * static_cast<float>(rng.Normal());
    }
  }

  la::IvfOptions ivf_options;
  ivf_options.num_clusters =
      static_cast<size_t>(flags.GetInt("clusters", 0));
  ivf_options.seed = seed;
  WallTimer train_timer;
  la::IvfIndexData ivf_data = la::TrainIvfIndex(table, ivf_options);
  double train_seconds = train_timer.ElapsedSeconds();

  la::ExactIndex exact(&table);
  WallTimer exact_timer;
  auto truth = exact.TopKAll(queries, k);
  double exact_seconds = exact_timer.ElapsedSeconds();
  double exact_qps = static_cast<double>(num_queries) / exact_seconds;

  std::printf("table %zux%zu, %zu queries, k=%zu, simd=%s\n", rows, dim,
              num_queries, k,
              la::SimdLevelName(la::ActiveSimdLevel()));
  std::printf("ivf: %zu clusters, trained in %.2fs\n",
              ivf_data.centroids.rows(), train_seconds);
  std::printf("%-8s %9s %9s %12s %9s\n", "index", "recall@1",
              StrFormat("recall@%zu", k).c_str(), "QPS", "speedup");
  std::printf("%-8s %9.4f %9.4f %12.0f %8.2fx\n", "exact", 1.0, 1.0,
              exact_qps, 1.0);

  la::IvfIndex ivf(&table, &ivf_data);
  for (size_t nprobe = 1; nprobe <= ivf.num_clusters(); nprobe *= 2) {
    ivf.set_nprobe(nprobe);
    WallTimer timer;
    auto got = ivf.TopKAll(queries, k);
    double seconds = timer.ElapsedSeconds();
    size_t hit1 = 0;
    size_t hitk = 0;
    for (size_t q = 0; q < num_queries; ++q) {
      if (!truth[q].empty() && !got[q].empty() &&
          got[q][0].index == truth[q][0].index) {
        ++hit1;
      }
      for (const la::ScoredIndex& t : truth[q]) {
        for (const la::ScoredIndex& g : got[q]) {
          if (g.index == t.index) {
            ++hitk;
            break;
          }
        }
      }
    }
    double denom = static_cast<double>(num_queries);
    double qps = denom / seconds;
    std::printf("ivf/%-4zu %9.4f %9.4f %12.0f %8.2fx\n", nprobe,
                static_cast<double>(hit1) / denom,
                static_cast<double>(hitk) /
                    (denom * static_cast<double>(std::min(k, rows))),
                qps, qps / exact_qps);
    if (nprobe == ivf.num_clusters()) break;
  }
  return 0;
}

// ------------------------------------------------------------ bench-load

// One client's verdicts over its responses. Latency is measured per
// request, send to response, via a FIFO of send timestamps (exact in
// lockstep mode, and still per-request under --pipeline).
struct LoadTally {
  size_t sent = 0;
  size_t received = 0;
  size_t ok = 0;
  size_t unavailable = 0;        // queue-full rejections
  size_t deadline_exceeded = 0;  // sheds + compute timeouts
  size_t other_errors = 0;
  size_t malformed = 0;          // response that is not a protocol line
  std::vector<double> per_request_ms;
};

void ClassifyResponse(const std::string& line, LoadTally& tally) {
  ++tally.received;
  if (StartsWith(line, "{\"ok\":true")) {
    ++tally.ok;
    return;
  }
  // Error responses are flat objects: classify them by their "code" field,
  // since the message may quote any code name.
  auto error = serve::ParseFlatJson(line);
  if (!error.ok() || (*error)["ok"] != "false") {
    ++tally.malformed;
  } else if ((*error)["code"] == "UNAVAILABLE") {
    ++tally.unavailable;
  } else if ((*error)["code"] == "DEADLINE_EXCEEDED") {
    ++tally.deadline_exceeded;
  } else {
    ++tally.other_errors;
  }
}

// Runs one connection: sends `requests` (keeping up to `pipeline` in
// flight), reads one response line per request, tallies verdicts.
void RunLoadClient(int port, const std::vector<std::string>& requests,
                   size_t pipeline, LoadTally& tally) {
  auto fd = net::ConnectLocal(port);
  if (!fd.ok()) return;  // sent stays 0; the caller sees the shortfall
  net::LineReader reader(*fd);
  std::deque<WallTimer> in_flight;
  size_t next_send = 0;
  size_t next_read = 0;
  while (next_read < requests.size()) {
    while (next_send < requests.size() &&
           next_send - next_read < pipeline) {
      if (!net::WriteAll(*fd, requests[next_send] + "\n").ok()) {
        ::close(*fd);
        return;
      }
      in_flight.emplace_back();
      ++next_send;
      ++tally.sent;
    }
    std::string line;
    bool truncated;
    size_t truncated_bytes;
    if (!reader.ReadLine(1 << 24, &line, &truncated, &truncated_bytes)) {
      break;  // early EOF: received < sent fails the run
    }
    tally.per_request_ms.push_back(in_flight.front().ElapsedMillis());
    in_flight.pop_front();
    ClassifyResponse(line, tally);
    ++next_read;
  }
  ::close(*fd);
}

// Hot-swaps a running server onto a new bundle: one load_snapshot
// request, one response line echoed to stdout. The server keeps serving
// its current version on any failure, so a non-zero exit here never
// means an outage.
int CmdSwap(const Flags& flags) {
  if (!flags.Has("port")) return Fail("--port is required");
  int port = 0;
  Status read = ReadCountFlag(flags, "port", 1, kMaxPort, &port);
  if (!read.ok()) return Fail(read.message());
  std::string bundle = flags.GetString("bundle", "");
  if (bundle.empty()) return Fail("--bundle is required");

  auto response = AskServer(port, LoadSnapshotRequest(bundle));
  if (!response.ok()) return Fail(response.status().message());
  std::printf("%s\n", response->c_str());
  if (!StartsWith(*response, "{\"ok\":true")) {
    return Fail("swap rejected; the server kept its current snapshot");
  }
  return 0;
}

int CmdBenchLoad(const Flags& flags) {
  size_t clients = 8;
  size_t requests = 50;
  size_t pipeline = 1;
  size_t swaps = 5;
  int port = 0;
  serve::AsyncServerOptions async_options;
  serve::EngineOptions engine_options;
  // Every flag is checked before the bundle is read or a thread starts.
  Status read = ReadServingFlags(flags, &async_options, &engine_options);
  auto read_count = [&](const char* name, int64_t max, auto* value) {
    if (read.ok()) read = ReadCountFlag(flags, name, 1, max, value);
  };
  read_count("clients", kMaxWorkers, &clients);
  read_count("requests", INT64_MAX, &requests);
  read_count("pipeline", INT64_MAX, &pipeline);
  read_count("swaps", INT64_MAX, &swaps);
  read_count("port", kMaxPort, &port);
  if (!read.ok()) return Fail(read.message());

  // Two modes: attach to a running server (--port; stats op only, the
  // bench knows no entity names), or self-host the async core from a
  // bundle on a kernel-assigned port — no port races, which is what the
  // CI smoke uses.
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::AsyncServer> hosted;
  std::string op = flags.GetString("op", "");
  std::vector<std::string> align_entities;
  std::vector<std::pair<std::string, std::string>> explain_pairs;

  std::string bundle_dir = flags.GetString("bundle", "");
  if (bundle_dir.empty()) {
    if (!flags.Has("port")) return Fail("--bundle or --port is required");
    if (op.empty()) op = "stats";
    if (op != "stats") {
      return Fail("--port mode supports only --op stats "
                  "(use --bundle to self-host with entity traffic)");
    }
  } else {
    if (op.empty()) op = "align";
    auto opened = serve::QueryEngine::Open(bundle_dir, engine_options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    engine = std::move(*opened);

    // Pin the initial serving state for the duration of harvest; the
    // request streams stay valid across hot swaps because entity names
    // are resolved per request against whatever version is live.
    std::shared_ptr<const serve::ServingState> state = engine->AcquireState();
    const serve::SnapshotBundle& bundle = state->bundle();
    for (const kg::AlignedPair& pair : bundle.repaired.SortedPairs()) {
      align_entities.push_back(bundle.dataset.kg1.EntityName(pair.source));
      explain_pairs.emplace_back(bundle.dataset.kg1.EntityName(pair.source),
                                 bundle.dataset.kg2.EntityName(pair.target));
    }
    if (align_entities.empty()) {
      for (kg::EntityId e = 0; e < bundle.dataset.kg1.num_entities(); ++e) {
        align_entities.push_back(bundle.dataset.kg1.EntityName(e));
      }
    }
    if (align_entities.empty() && op != "stats") {
      return Fail("bundle has no entities to query");
    }
    if (explain_pairs.empty() && (op == "explain" || op == "mixed")) {
      return Fail("bundle has no aligned pairs for --op " + op);
    }

    hosted = std::make_unique<serve::AsyncServer>(engine.get(),
                                                  async_options);
    Status started = hosted->Start(0);
    if (!started.ok()) return Fail(started.ToString());
    port = hosted->port();
  }

  // Optional hot-swap churn: a side thread alternates the self-hosted
  // server between --swap-bundle and --bundle while the load clients
  // run, so the run proves that version swaps drop nothing.
  std::string swap_bundle = flags.GetString("swap-bundle", "");
  if (!swap_bundle.empty() && hosted == nullptr) {
    return Fail("--swap-bundle requires self-hosted mode (--bundle)");
  }

  // Deterministic request streams: every client's i-th request is of
  // kind_of(i) (mixed cycles align, explain, neighbors, repair_status and
  // stats), and client c's i-th request takes entry c * requests + i of
  // the entity (or pair) list, wrapping, so concurrent clients start on
  // different entities. An align that repeats an entity on the same
  // snapshot version — once the streams wrap or overlap — is answered
  // from that version's align memo without a top-k.
  auto kind_of = [&](size_t i) -> std::string {
    if (op != "mixed") return op;
    static constexpr const char* kMixed[] = {"align", "explain", "neighbors",
                                             "repair_status", "stats"};
    return kMixed[i % std::size(kMixed)];
  };
  auto request_for = [&](size_t client, size_t i) -> std::string {
    std::string kind = kind_of(i);
    size_t pick = client * requests + i;
    if (kind == "align" || kind == "neighbors") {
      const std::string& name =
          align_entities[pick % align_entities.size()];
      return "{\"op\":\"" + kind + "\",\"entity\":\"" +
             serve::JsonEscape(name) + "\"}";
    }
    if (kind == "explain" || kind == "repair_status") {
      const auto& pair = explain_pairs[pick % explain_pairs.size()];
      return "{\"op\":\"" + kind + "\",\"source\":\"" +
             serve::JsonEscape(pair.first) + "\",\"target\":\"" +
             serve::JsonEscape(pair.second) + "\"}";
    }
    return "{\"op\":\"stats\"}";
  };

  std::vector<std::vector<std::string>> streams(clients);
  for (size_t c = 0; c < clients; ++c) {
    streams[c].reserve(requests);
    for (size_t i = 0; i < requests; ++i) {
      streams[c].push_back(request_for(c, i));
    }
  }

  std::vector<LoadTally> tallies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      RunLoadClient(port, streams[c], pipeline, tallies[c]);
    });
  }
  std::atomic<size_t> swaps_done{0};
  std::atomic<size_t> swap_failures{0};
  std::thread swapper;
  if (!swap_bundle.empty()) {
    swapper = std::thread([&] {
      for (size_t i = 0; i < swaps; ++i) {
        // Alternate between the two bundles so every swap installs a
        // genuinely different version, not a no-op reload.
        const std::string& dir = (i % 2 == 0) ? swap_bundle : bundle_dir;
        auto response = AskServer(port, LoadSnapshotRequest(dir));
        if (response.ok() && StartsWith(*response, "{\"ok\":true")) {
          swaps_done.fetch_add(1);
        } else {
          swap_failures.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (swapper.joinable()) swapper.join();
  double seconds = wall.ElapsedSeconds();

  LoadTally total;
  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> latencies_by_op;
  for (const LoadTally& tally : tallies) {
    total.sent += tally.sent;
    total.received += tally.received;
    total.ok += tally.ok;
    total.unavailable += tally.unavailable;
    total.deadline_exceeded += tally.deadline_exceeded;
    total.other_errors += tally.other_errors;
    total.malformed += tally.malformed;
    latencies.insert(latencies.end(), tally.per_request_ms.begin(),
                     tally.per_request_ms.end());
    // Responses come back in request order, so the i-th latency is the
    // i-th request's.
    for (size_t i = 0; i < tally.per_request_ms.size(); ++i) {
      latencies_by_op[kind_of(i)].push_back(tally.per_request_ms[i]);
    }
  }
  if (hosted != nullptr) hosted->Shutdown();

  size_t expected = clients * requests;
  size_t missing = expected - std::min(expected, total.received);
  double qps = seconds > 0 ? static_cast<double>(total.received) / seconds
                           : 0.0;
  std::printf(
      "bench-load: op=%s clients=%zu requests=%zu pipeline=%zu sent=%zu "
      "responses=%zu ok=%zu rejected=%zu deadline_exceeded=%zu errors=%zu "
      "malformed=%zu missing=%zu qps=%.1f p50_ms=%.3f p99_ms=%.3f "
      "wall_s=%.2f\n",
      op.c_str(), clients, requests, pipeline, total.sent, total.received,
      total.ok, total.unavailable, total.deadline_exceeded,
      total.other_errors, total.malformed, missing, qps,
      obs::NearestRankQuantile(latencies, 0.5),
      obs::NearestRankQuantile(latencies, 0.99), seconds);
  for (const auto& [kind, op_latencies] : latencies_by_op) {
    std::printf("bench-load-op: op=%s responses=%zu p50_ms=%.3f "
                "p99_ms=%.3f\n",
                kind.c_str(), op_latencies.size(),
                obs::NearestRankQuantile(op_latencies, 0.5),
                obs::NearestRankQuantile(op_latencies, 0.99));
  }
  if (!swap_bundle.empty()) {
    std::printf("bench-load-swaps: attempted=%zu ok=%zu failed=%zu\n",
                swaps, swaps_done.load(), swap_failures.load());
  }
  if (total.malformed > 0 || missing > 0) {
    return Fail(StrFormat("load run unhealthy: %zu malformed, %zu missing "
                          "responses",
                          total.malformed, missing));
  }
  if (swap_failures.load() > 0) {
    return Fail(StrFormat("load run unhealthy: %zu of %zu hot swaps failed",
                          swap_failures.load(), swaps));
  }
  return 0;
}

int Main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) return Fail(flags.status().ToString());
  int64_t threads = flags->GetInt("threads", 0);
  if (threads < 0) return Fail("--threads must be >= 0 (0 = hardware)");
  util::SetThreadCount(static_cast<size_t>(threads));
  if (flags->Has("version")) {
    std::printf("exea_cli snapshot format version %d\n",
                serve::kSnapshotFormatVersion);
    return 0;
  }
  if (flags->positional().empty()) {
    if (flags->Has("help")) {
      std::printf("%s", kUsageText);
      return 0;
    }
    return Usage();
  }
  const std::string& command = flags->positional()[0];
  if (flags->Has("help")) {
    const char* help = SubcommandHelp(command);
    if (help == nullptr) return Usage();
    std::printf("%s", help);
    return 0;
  }
  if (command == "generate") return CmdGenerate(*flags);
  if (command == "stats") return CmdStats(*flags);
  if (command == "align") return CmdAlign(*flags);
  if (command == "repair") return CmdRepair(*flags);
  if (command == "explain") return CmdExplain(*flags);
  if (command == "evaluate") return CmdEvaluate(*flags);
  if (command == "audit") return CmdAudit(*flags);
  if (command == "snapshot") return CmdSnapshot(*flags);
  if (command == "serve") return CmdServe(*flags);
  if (command == "swap") return CmdSwap(*flags);
  if (command == "bench-recall") return CmdBenchRecall(*flags);
  if (command == "bench-load") return CmdBenchLoad(*flags);
  return Usage();
}

}  // namespace
}  // namespace exea

int main(int argc, char** argv) { return exea::Main(argc, argv); }
