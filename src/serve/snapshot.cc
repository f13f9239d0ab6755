#include "serve/snapshot.h"

#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "data/dataset_io.h"
#include "kg/kg_io.h"
#include "la/matrix_io.h"
#include "util/check.h"
#include "util/file.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace exea::serve {
namespace {

// Payload files, relative to the bundle root, in manifest order.
const char* const kDictionaryFiles[] = {
    "kg1_entities.tsv", "kg1_relations.tsv", "kg2_entities.tsv",
    "kg2_relations.tsv"};
const char* const kDatasetFiles[] = {
    "dataset/kg1_triples.tsv", "dataset/kg2_triples.tsv",
    "dataset/train_links.tsv", "dataset/test_links.tsv"};
// Indexed by kg::KgSide, like the two halves of kDictionaryFiles.
const char* const kAttributeFiles[] = {"dataset/attr_triples_1.tsv",
                                       "dataset/attr_triples_2.tsv"};

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

const char kIndexFileName[] = "index.ivf";

// The payload files of a bundle frozen with `meta`, in manifest order.
// Attribute files are the only optional payloads: `attributes[side]`
// says whether that KG's file is part of the bundle.
std::vector<std::string> PayloadFiles(const SnapshotMeta& meta,
                                      const bool (&attributes)[2]) {
  std::vector<std::string> files;
  for (const char* f : kDictionaryFiles) files.push_back(f);
  for (const char* f : kDatasetFiles) files.push_back(f);
  for (int side = 0; side < 2; ++side) {
    if (attributes[side]) files.push_back(kAttributeFiles[side]);
  }
  files.push_back("emb_ent1.txt");
  files.push_back("emb_ent2.txt");
  if (meta.has_relation_embeddings) {
    files.push_back("emb_rel1.txt");
    files.push_back("emb_rel2.txt");
  }
  files.push_back("alignment.tsv");
  files.push_back("repaired.tsv");
  if (meta.index == "ivf") files.push_back(kIndexFileName);
  // The manifest's integrity story assumes one checksum line per distinct
  // payload; a duplicate would let a corrupt file hide behind its twin.
  EXEA_DCHECK_EQ(std::set<std::string>(files.begin(), files.end()).size(),
                 files.size());
  return files;
}

// Runs every task on the worker pool and returns the first failure in
// task order, whichever task finished first.
Status RunInOrder(const std::vector<std::function<Status()>>& tasks) {
  std::vector<Status> results(tasks.size());
  util::ParallelFor(0, tasks.size(), 1,
                    [&](size_t i) { results[i] = tasks[i](); });
  for (Status& result : results) {
    if (!result.ok()) return std::move(result);
  }
  return Status::Ok();
}

// Verified payload bytes by file name. Each parse task moves its bytes
// out with Take, so they are freed as soon as that parse returns. Tasks
// take distinct files and nothing is inserted once the tasks start, so
// they may run concurrently.
class VerifiedPayloads {
 public:
  void Put(const std::string& file, std::string bytes) {
    bytes_.emplace(file, std::move(bytes));
  }
  bool Has(const std::string& file) const { return bytes_.count(file) > 0; }
  std::string Take(const std::string& file) {
    return std::move(bytes_.at(file));
  }

 private:
  std::map<std::string, std::string> bytes_;
};

// Phase 2's task for one KG: its two dictionaries, then
// data::BuildGraph over its triples and, when listed, its attributes.
Status LoadGraph(const std::string& dir, kg::KgSide side,
                 VerifiedPayloads& payloads, data::EaDataset& dataset) {
  int index = static_cast<int>(side);
  data::DatasetDictionaries dicts;
  std::vector<std::string>& entities =
      index == 0 ? dicts.entities1 : dicts.entities2;
  std::vector<std::string>& relations =
      index == 0 ? dicts.relations1 : dicts.relations2;
  for (auto [names, file] : {std::pair{&entities, kDictionaryFiles[2 * index]},
                             {&relations, kDictionaryFiles[2 * index + 1]}}) {
    auto parsed =
        kg::ParseDictionaryNames(payloads.Take(file), dir + "/" + file);
    if (!parsed.ok()) return parsed.status();
    *names = std::move(*parsed);
  }
  std::string attributes;
  bool has_attributes = payloads.Has(kAttributeFiles[index]);
  if (has_attributes) attributes = payloads.Take(kAttributeFiles[index]);
  return data::BuildGraph(dir + "/dataset", side,
                          payloads.Take(kDatasetFiles[index]),
                          has_attributes ? &attributes : nullptr, &dicts,
                          dataset);
}

// A task that parses one payload with `parse` into `*out`.
template <typename T, typename Parse>
std::function<Status()> ParseTask(const std::string& dir, const char* file,
                                  VerifiedPayloads& payloads, Parse parse,
                                  T* out) {
  return [&dir, file, &payloads, parse, out]() -> Status {
    StatusOr<T> parsed = parse(payloads.Take(file), dir + "/" + file);
    if (!parsed.ok()) return parsed.status();
    *out = std::move(*parsed);
    return Status::Ok();
  };
}

Status CheckConsistency(const SnapshotBundle& bundle) {
  if (bundle.emb1.rows() != bundle.dataset.kg1.num_entities() ||
      bundle.emb2.rows() != bundle.dataset.kg2.num_entities()) {
    return Status::InvalidArgument(StrFormat(
        "embedding rows do not match entity counts: %zu/%zu vs %zu/%zu",
        bundle.emb1.rows(), bundle.emb2.rows(),
        bundle.dataset.kg1.num_entities(),
        bundle.dataset.kg2.num_entities()));
  }
  if (bundle.meta.has_relation_embeddings &&
      (bundle.rel1.rows() != bundle.dataset.kg1.num_relations() ||
       bundle.rel2.rows() != bundle.dataset.kg2.num_relations())) {
    return Status::InvalidArgument(
        "relation-embedding rows do not match relation counts");
  }
  // The index key is closed-world: an unrecognized strategy must fail
  // here, not degrade to a silent exact scan that hides the mismatch.
  if (bundle.meta.index == "ivf") {
    EXEA_RETURN_IF_ERROR(la::ValidateIvfIndexData(
        bundle.ivf, bundle.emb2.rows(), bundle.emb2.cols()));
  } else if (bundle.meta.index != "exact") {
    return Status::InvalidArgument("unknown snapshot index strategy: " +
                                   bundle.meta.index);
  }
  return Status::Ok();
}

}  // namespace

uint64_t ChecksumBytes(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;  // FNV prime
  }
  return hash;
}

StatusOr<uint64_t> ChecksumFile(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ChecksumBytes(*bytes);
}

Status WriteSnapshot(const SnapshotBundle& bundle, const std::string& dir) {
  // A bundle stamped with a foreign version would be rejected by every
  // reader (or worse, misread by one): refuse to write it at all.
  EXEA_CHECK_EQ(bundle.meta.format_version, kSnapshotFormatVersion)
      << "refusing to write a bundle with a foreign format version";
  EXEA_RETURN_IF_ERROR(CheckConsistency(bundle));
  std::error_code ec;
  std::filesystem::create_directories(dir + "/dataset", ec);
  if (ec) {
    return Status::IoError("cannot create bundle directory: " + dir + ": " +
                           ec.message());
  }

  // Dictionaries first (they pin the id spaces at load time)…
  EXEA_RETURN_IF_ERROR(kg::SaveDictionary(
      bundle.dataset.kg1.entity_dictionary(), dir + "/kg1_entities.tsv"));
  EXEA_RETURN_IF_ERROR(kg::SaveDictionary(
      bundle.dataset.kg1.relation_dictionary(), dir + "/kg1_relations.tsv"));
  EXEA_RETURN_IF_ERROR(kg::SaveDictionary(
      bundle.dataset.kg2.entity_dictionary(), dir + "/kg2_entities.tsv"));
  EXEA_RETURN_IF_ERROR(kg::SaveDictionary(
      bundle.dataset.kg2.relation_dictionary(), dir + "/kg2_relations.tsv"));
  // …then the dataset, embeddings, and alignment payloads.
  EXEA_RETURN_IF_ERROR(data::SaveDataset(bundle.dataset, dir + "/dataset"));
  EXEA_RETURN_IF_ERROR(la::SaveMatrix(bundle.emb1, dir + "/emb_ent1.txt"));
  EXEA_RETURN_IF_ERROR(la::SaveMatrix(bundle.emb2, dir + "/emb_ent2.txt"));
  if (bundle.meta.has_relation_embeddings) {
    EXEA_RETURN_IF_ERROR(la::SaveMatrix(bundle.rel1, dir + "/emb_rel1.txt"));
    EXEA_RETURN_IF_ERROR(la::SaveMatrix(bundle.rel2, dir + "/emb_rel2.txt"));
  }
  EXEA_RETURN_IF_ERROR(kg::SaveAlignment(bundle.alignment, bundle.dataset.kg1,
                                         bundle.dataset.kg2,
                                         dir + "/alignment.tsv"));
  EXEA_RETURN_IF_ERROR(kg::SaveAlignment(bundle.repaired, bundle.dataset.kg1,
                                         bundle.dataset.kg2,
                                         dir + "/repaired.tsv"));
  if (bundle.meta.index == "ivf") {
    EXEA_RETURN_IF_ERROR(
        la::SaveIvfIndexData(bundle.ivf, dir + "/" + kIndexFileName));
  }

  // Manifest last, so a crashed write never leaves a bundle that passes
  // verification.
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"exea_snapshot_version", std::to_string(bundle.meta.format_version)});
  rows.push_back({"model", bundle.meta.model_name});
  rows.push_back({"dataset", bundle.meta.dataset_name});
  rows.push_back({"inference", bundle.meta.inference});
  rows.push_back({"relation_embeddings",
                  bundle.meta.has_relation_embeddings ? "1" : "0"});
  rows.push_back({"repair", bundle.meta.has_repair ? "1" : "0"});
  rows.push_back({"index", bundle.meta.index});
  const bool attributes[2] = {bundle.dataset.attrs1.num_triples() > 0,
                              bundle.dataset.attrs2.num_triples() > 0};
  for (const std::string& file : PayloadFiles(bundle.meta, attributes)) {
    auto checksum = ChecksumFile(dir + "/" + file);
    if (!checksum.ok()) return checksum.status();
    rows.push_back({"file", file, StrFormat("%016llx",
                                            static_cast<unsigned long long>(
                                                *checksum))});
  }
  return WriteTsv(ManifestPath(dir), rows);
}

StatusOr<std::unique_ptr<SnapshotBundle>> ReadSnapshot(
    const std::string& dir) {
  auto manifest = ReadTsv(ManifestPath(dir), 2);
  if (!manifest.ok()) {
    return Status::IoError("not a snapshot bundle (no readable MANIFEST): " +
                           dir);
  }
  auto bundle = std::make_unique<SnapshotBundle>();
  SnapshotMeta& meta = bundle->meta;
  meta.format_version = -1;
  struct Listed {
    std::string file;
    uint64_t checksum;
  };
  std::vector<Listed> listed;
  for (const auto& row : *manifest) {
    const std::string& key = row[0];
    if (key == "exea_snapshot_version") {
      // The MANIFEST is untrusted disk input. atoi here used to accept
      // "1junk" as version 1 and mapped overflow/garbage to 0; the
      // checked parse rejects anything that is not entirely a small
      // non-negative integer before the version gate below runs.
      int32_t version = -1;
      Status parsed = util::ParseInt32(row[1], 0, 1'000'000, &version);
      if (!parsed.ok()) {
        return Status::InvalidArgument(
            "MANIFEST exea_snapshot_version is malformed (" +
            parsed.message() + "): " + dir);
      }
      meta.format_version = version;
    } else if (key == "model") {
      meta.model_name = row[1];
    } else if (key == "dataset") {
      meta.dataset_name = row[1];
    } else if (key == "inference") {
      meta.inference = row[1];
    } else if (key == "relation_embeddings") {
      meta.has_relation_embeddings = row[1] == "1";
    } else if (key == "repair") {
      meta.has_repair = row[1] == "1";
    } else if (key == "index") {
      meta.index = row[1];
    } else if (key == "file") {
      if (row.size() < 3) {
        return Status::InvalidArgument("malformed checksum line in MANIFEST");
      }
      uint64_t checksum = 0;
      Status parsed = util::ParseUint64Hex(row[2], &checksum);
      if (!parsed.ok()) {
        return Status::InvalidArgument(
            "malformed checksum in MANIFEST (" + parsed.message() +
            "): " + dir);
      }
      listed.push_back({row[1], checksum});
    }
    // Unknown keys are ignored: minor-version additions stay readable.
  }
  // Version gate before anything else is interpreted.
  if (meta.format_version != kSnapshotFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot format version %d, this build reads version %d: %s",
        meta.format_version, kSnapshotFormatVersion, dir.c_str()));
  }
  if (listed.empty()) {
    return Status::InvalidArgument("MANIFEST lists no payload files: " + dir);
  }
  // Only listed files are verified, so only listed files are parsed.
  // keep[i]: listing i is the first of a file that a parse below reads.
  std::vector<std::string> parsed = PayloadFiles(meta, {true, true});
  std::set<std::string> unlisted(parsed.begin(), parsed.end());
  std::vector<bool> keep(listed.size());
  for (size_t i = 0; i < listed.size(); ++i) {
    keep[i] = unlisted.erase(listed[i].file) > 0;
  }
  // A required payload the MANIFEST leaves out fails before any read.
  for (const std::string& file : PayloadFiles(meta, {false, false})) {
    if (unlisted.count(file) > 0) {
      return Status::InvalidArgument(
          StrFormat("MANIFEST does not list required payload %s: %s",
                    file.c_str(), dir.c_str()));
    }
  }

  // Phase 1: read every listed file once and check its checksum on those
  // bytes, all files at once; the first failure in MANIFEST order is the
  // answer. Bytes no parse reads are dropped here.
  std::vector<std::string> bytes(listed.size());
  std::vector<std::function<Status()>> verify;
  for (size_t i = 0; i < listed.size(); ++i) {
    verify.push_back([&, i]() -> Status {
      auto read = ReadFile(dir + "/" + listed[i].file);
      if (!read.ok()) return read.status();
      if (ChecksumBytes(*read) != listed[i].checksum) {
        return Status::InvalidArgument(
            StrFormat("checksum mismatch (corrupt bundle): %s/%s",
                      dir.c_str(), listed[i].file.c_str()));
      }
      if (keep[i]) bytes[i] = std::move(*read);
      return Status::Ok();
    });
  }
  EXEA_RETURN_IF_ERROR(RunInOrder(verify));
  VerifiedPayloads payloads;
  for (size_t i = 0; i < listed.size(); ++i) {
    if (keep[i]) payloads.Put(listed[i].file, std::move(bytes[i]));
  }

  // Phase 2: the parses that need one payload, or one KG's payloads,
  // as independent tasks, the two graphs first since they take longest.
  SnapshotBundle& out = *bundle;
  out.dataset.name = meta.dataset_name;
  std::vector<std::function<Status()>> parse = {
      [&] {
        return LoadGraph(dir, kg::KgSide::kSource, payloads, out.dataset);
      },
      [&] {
        return LoadGraph(dir, kg::KgSide::kTarget, payloads, out.dataset);
      },
      ParseTask(dir, "emb_ent1.txt", payloads, la::ParseMatrix, &out.emb1),
      ParseTask(dir, "emb_ent2.txt", payloads, la::ParseMatrix, &out.emb2)};
  if (meta.has_relation_embeddings) {
    parse.push_back(
        ParseTask(dir, "emb_rel1.txt", payloads, la::ParseMatrix, &out.rel1));
    parse.push_back(
        ParseTask(dir, "emb_rel2.txt", payloads, la::ParseMatrix, &out.rel2));
  }
  if (meta.index == "ivf") {
    parse.push_back(ParseTask(dir, kIndexFileName, payloads,
                              la::ParseIvfIndexData, &out.ivf));
  }
  EXEA_RETURN_IF_ERROR(RunInOrder(parse));

  // Phase 3: the four link files, which resolve names in both graphs.
  auto parse_alignment = [&](std::string_view text, const std::string& name) {
    return kg::ParseAlignment(text, name, out.dataset.kg1, out.dataset.kg2);
  };
  EXEA_RETURN_IF_ERROR(RunInOrder({
      [&] {
        return data::LinkDataset(dir + "/dataset",
                                 payloads.Take(kDatasetFiles[2]),
                                 payloads.Take(kDatasetFiles[3]), out.dataset);
      },
      ParseTask(dir, "alignment.tsv", payloads, parse_alignment,
                &out.alignment),
      ParseTask(dir, "repaired.tsv", payloads, parse_alignment, &out.repaired),
  }));

  // CheckConsistency also validates the loaded index against emb2, so a
  // checksum-intact but structurally hostile index.ivf is rejected here
  // with a clean Status instead of reaching a query.
  EXEA_RETURN_IF_ERROR(CheckConsistency(*bundle));
  return bundle;
}

std::string SnapshotModel::name() const {
  return bundle_->meta.model_name + "@snapshot";
}

void SnapshotModel::Train(const data::EaDataset& /*dataset*/) {
  EXEA_LOG(Fatal) << "SnapshotModel is a frozen serving view; train the "
                     "underlying model offline and freeze a new bundle";
}

const la::Matrix& SnapshotModel::EntityEmbeddings(kg::KgSide side) const {
  return side == kg::KgSide::kSource ? bundle_->emb1 : bundle_->emb2;
}

const la::Matrix& SnapshotModel::RelationEmbeddings(kg::KgSide side) const {
  EXEA_CHECK(bundle_->meta.has_relation_embeddings)
      << "bundle was frozen from a model without relation embeddings";
  return side == kg::KgSide::kSource ? bundle_->rel1 : bundle_->rel2;
}

std::unique_ptr<emb::EAModel> SnapshotModel::CloneUntrained() const {
  EXEA_LOG(Fatal) << "SnapshotModel cannot be retrained (serving-only view)";
  return nullptr;
}

}  // namespace exea::serve
