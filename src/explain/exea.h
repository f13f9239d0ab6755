// ExeaExplainer: the user-facing facade of the explanation core.
//
// Wraps a trained EAModel and a dataset and provides, per EA pair:
//   * Explain()      — the semantic matching subgraph (Section III-A),
//   * BuildAdg()     — the alignment dependency graph with Eq. (9)
//                      confidence (Section III-B),
//   * Confidence()   — both steps fused.
//
// The explainer owns the derived artifacts the core needs: PARIS relation
// functionality tables for both KGs and a uniform set of relation
// embeddings (the model's own when available, Eq. (1) translation-based
// otherwise). Path enumeration and Eq. (2) path embeddings are memoized per
// entity, which is what keeps the repair loops (Algorithms 1 and 2, which
// call Explain per candidate) fast. The memo is locked, so one explainer
// serves concurrent Explain/Confidence callers (the serving workers).

#ifndef EXEA_EXPLAIN_EXEA_H_
#define EXEA_EXPLAIN_EXEA_H_

#include <mutex>
#include <unordered_map>

#include "data/dataset.h"
#include "emb/model.h"
#include "explain/adg.h"
#include "explain/config.h"
#include "explain/explanation.h"
#include "explain/matcher.h"
#include "kg/functionality.h"
#include "util/check.h"

namespace exea::explain {

class ExeaExplainer {
 public:
  // `dataset` and `model` are borrowed and must outlive the explainer;
  // the model must already be trained.
  ExeaExplainer(const data::EaDataset& dataset, const emb::EAModel& model,
                const ExeaConfig& config);

  ExeaExplainer(const ExeaExplainer&) = delete;
  ExeaExplainer& operator=(const ExeaExplainer&) = delete;

  // Generates the semantic matching subgraph for (e1, e2) under the given
  // alignment context. Fills the candidate triple lists.
  Explanation Explain(kg::EntityId e1, kg::EntityId e2,
                      const AlignmentContext& context) const;

  // Builds the ADG of an explanation produced by Explain().
  Adg BuildAdg(const Explanation& explanation) const;

  // Convenience: Explain + BuildAdg, returning only the confidence.
  double Confidence(kg::EntityId e1, kg::EntityId e2,
                    const AlignmentContext& context) const;

  const ExeaConfig& config() const { return config_; }
  const data::EaDataset& dataset() const { return *dataset_; }
  const emb::EAModel& model() const { return *model_; }
  const kg::RelationFunctionality& functionality1() const { return func1_; }
  const kg::RelationFunctionality& functionality2() const { return func2_; }
  const la::Matrix& relation_embeddings1() const { return rel1_; }
  const la::Matrix& relation_embeddings2() const { return rel2_; }

 private:
  const PathsWithEmbeddings& PathsFor(kg::KgSide side, kg::EntityId e) const;

  const data::EaDataset* dataset_;
  const emb::EAModel* model_;
  ExeaConfig config_;
  kg::RelationFunctionality func1_;
  kg::RelationFunctionality func2_;
  la::Matrix rel1_;  // relation embeddings, source KG
  la::Matrix rel2_;  // relation embeddings, target KG

  // Path memos per side. Entries are never erased, so references PathsFor
  // hands out stay valid after the lock is released.
  mutable std::mutex paths_mu_;
  mutable std::unordered_map<kg::EntityId, PathsWithEmbeddings> cache1_
      EXEA_GUARDED_BY(paths_mu_);
  mutable std::unordered_map<kg::EntityId, PathsWithEmbeddings> cache2_
      EXEA_GUARDED_BY(paths_mu_);
};

}  // namespace exea::explain

#endif  // EXEA_EXPLAIN_EXEA_H_
