// Snapshot bundles: the on-disk artifact that splits the pipeline into an
// offline phase (generate → train → infer → repair, frozen once) and an
// online phase (the query engine, which loads a bundle and serves per-pair
// requests without retraining anything).
//
// A bundle is a directory:
//   <dir>/MANIFEST             version, metadata, per-file checksums
//   <dir>/kg1_entities.tsv     entity names in id order     (id-stable load)
//   <dir>/kg1_relations.tsv    relation names in id order
//   <dir>/kg2_entities.tsv
//   <dir>/kg2_relations.tsv
//   <dir>/dataset/             the DBP15K-layout dataset (data::SaveDataset)
//   <dir>/emb_ent1.txt         entity embeddings, row = EntityId
//   <dir>/emb_ent2.txt
//   <dir>/emb_rel1.txt         relation embeddings (only when the model
//   <dir>/emb_rel2.txt          learns them; see SnapshotMeta)
//   <dir>/alignment.tsv        inference output (greedy/mutual/csls/stable)
//   <dir>/repaired.tsv         repair-pipeline output (== alignment.tsv
//                              when the bundle was frozen without repair)
//   <dir>/index.ivf            trained IVF coarse quantizer over emb_ent2
//                              (only when the bundle was frozen with
//                              --index=ivf; see SnapshotMeta::index)
//
// All payloads reuse the existing text formats (la::SaveMatrix,
// data::SaveDataset, kg::SaveAlignment), so a bundle is greppable and
// diffable. The MANIFEST carries a format-version field — a reader refuses
// bundles from another version loudly instead of misinterpreting them —
// and an FNV-1a checksum per payload file, so truncated or bit-flipped
// bundles fail at load, not at query time.
//
// Id stability: embeddings are indexed by dense entity/relation ids, and
// LoadDataset alone re-interns names in triple-file order, which need not
// match the trained model's id assignment. The bundle therefore stores the
// dictionaries explicitly (in id order) and the loader pre-interns them,
// so a loaded bundle reproduces the training-time id spaces exactly and
// every embedding row still belongs to its entity.

#ifndef EXEA_SERVE_SNAPSHOT_H_
#define EXEA_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "data/dataset.h"
#include "emb/model.h"
#include "kg/alignment.h"
#include "la/matrix.h"
#include "la/similarity_index.h"
#include "util/status.h"

namespace exea::serve {

// Bump when the bundle layout changes incompatibly. Readers reject any
// other version with FAILED_PRECONDITION.
inline constexpr int kSnapshotFormatVersion = 1;

struct SnapshotMeta {
  int format_version = kSnapshotFormatVersion;
  std::string model_name;      // e.g. "MTransE"
  std::string dataset_name;    // display name of the frozen dataset
  std::string inference;       // "greedy" | "mutual" | "csls" | "stable"
  bool has_relation_embeddings = false;
  bool has_repair = false;     // repaired.tsv came from the repair pipeline
  // Search strategy frozen into the bundle: "exact" (no extra payload)
  // or "ivf" (index.ivf holds the trained coarse quantizer). Stored as
  // an ordinary manifest key, so version-1 readers that predate it
  // simply ignore the file list entry they never look for — but THIS
  // reader refuses unknown values instead of silently serving exact.
  std::string index = "exact";
};

// Everything the online path needs, in memory.
struct SnapshotBundle {
  SnapshotMeta meta;
  data::EaDataset dataset;
  la::Matrix emb1;             // entity embeddings, source KG
  la::Matrix emb2;             // entity embeddings, target KG
  la::Matrix rel1;             // relation embeddings (empty unless
  la::Matrix rel2;             //   meta.has_relation_embeddings)
  kg::AlignmentSet alignment;  // raw inference output
  kg::AlignmentSet repaired;   // post-repair output
  // Trained IVF coarse quantizer over emb2 (empty unless
  // meta.index == "ivf"). Value type so the bundle stays copyable; the
  // engine builds its la::IvfIndex view over this plus emb2.
  la::IvfIndexData ivf;
};

// FNV-1a 64 over raw bytes, the MANIFEST checksum.
uint64_t ChecksumBytes(std::string_view bytes);

// ReadFile plus ChecksumBytes; IO_ERROR if the file cannot be read.
[[nodiscard]] StatusOr<uint64_t> ChecksumFile(const std::string& path);

// Writes `bundle` into `dir`, creating the directory tree. Overwrites an
// existing bundle in place. Fails if the bundle is internally inconsistent
// (embedding rows vs. entity counts).
[[nodiscard]]
Status WriteSnapshot(const SnapshotBundle& bundle, const std::string& dir);

// Reads a bundle back, verifying the format version and every checksum
// before any payload is interpreted. Heap-allocated because the engine
// keeps borrowed pointers into the bundle, which must stay put.
//
// Runs on the util::ParallelFor pool in three phases: read and verify
// every file the MANIFEST lists; parse each KG and each table as its own
// task; then parse the link files, which need both graphs. Only listed
// files are parsed: a required payload the MANIFEST leaves out is
// INVALID_ARGUMENT, and the attribute files load only when listed. The
// answer, error or bundle, does not depend on the thread count: each
// phase reports the first failure in its fixed task order.
[[nodiscard]] StatusOr<std::unique_ptr<SnapshotBundle>> ReadSnapshot(
    const std::string& dir);

// An EAModel view over a loaded bundle: entity (and, when present,
// relation) embeddings come straight from the snapshot matrices, so the
// explanation core runs against a served bundle exactly as it runs against
// the live trained model. Serving-only — Train/CloneUntrained are fatal.
class SnapshotModel : public emb::EAModel {
 public:
  // Borrows `bundle`, which must outlive the model.
  explicit SnapshotModel(const SnapshotBundle* bundle) : bundle_(bundle) {}

  std::string name() const override;
  void Train(const data::EaDataset& dataset) override;
  const la::Matrix& EntityEmbeddings(kg::KgSide side) const override;
  bool HasRelationEmbeddings() const override {
    return bundle_->meta.has_relation_embeddings;
  }
  const la::Matrix& RelationEmbeddings(kg::KgSide side) const override;
  std::unique_ptr<emb::EAModel> CloneUntrained() const override;

 private:
  const SnapshotBundle* bundle_;
};

}  // namespace exea::serve

#endif  // EXEA_SERVE_SNAPSHOT_H_
