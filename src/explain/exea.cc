#include "explain/exea.h"

#include "emb/relation_embedding.h"
#include "explain/path_embedding.h"
#include "obs/span.h"
#include "util/logging.h"

namespace exea::explain {

ExeaExplainer::ExeaExplainer(const data::EaDataset& dataset,
                             const emb::EAModel& model,
                             const ExeaConfig& config)
    : dataset_(&dataset),
      model_(&model),
      config_(config),
      func1_(dataset.kg1),
      func2_(dataset.kg2) {
  const la::Matrix& ent1 = model.EntityEmbeddings(kg::KgSide::kSource);
  const la::Matrix& ent2 = model.EntityEmbeddings(kg::KgSide::kTarget);
  if (model.HasRelationEmbeddings()) {
    rel1_ = model.RelationEmbeddings(kg::KgSide::kSource);
    rel2_ = model.RelationEmbeddings(kg::KgSide::kTarget);
  } else {
    // GCN-style models: fall back to Eq. (1).
    rel1_ = emb::TranslationRelationEmbeddings(dataset.kg1, ent1);
    rel2_ = emb::TranslationRelationEmbeddings(dataset.kg2, ent2);
  }
}

const PathsWithEmbeddings& ExeaExplainer::PathsFor(kg::KgSide side,
                                                   kg::EntityId e) const {
  {
    std::lock_guard<std::mutex> lock(paths_mu_);
    auto& cache = side == kg::KgSide::kSource ? cache1_ : cache2_;
    auto it = cache.find(e);
    if (it != cache.end()) return it->second;
  }
  // Enumerate outside the lock so concurrent misses on other entities
  // proceed in parallel.
  const kg::KnowledgeGraph& graph =
      side == kg::KgSide::kSource ? dataset_->kg1 : dataset_->kg2;
  const la::Matrix& ent = model_->EntityEmbeddings(side);
  const la::Matrix& rel = side == kg::KgSide::kSource ? rel1_ : rel2_;

  kg::PathEnumerationOptions options;
  options.max_length = config_.hops;
  options.max_paths = config_.max_paths_per_entity;
  options.max_branch = config_.max_branch;

  PathsWithEmbeddings entry;
  entry.paths = kg::EnumeratePaths(graph, e, options);
  entry.embeddings.reserve(entry.paths.size());
  for (const kg::RelationPath& path : entry.paths) {
    entry.embeddings.push_back(PathEmbedding(path, ent, rel));
  }
  std::lock_guard<std::mutex> lock(paths_mu_);
  auto& cache = side == kg::KgSide::kSource ? cache1_ : cache2_;
  // A racing miss on the same entity may have inserted first; its entry is
  // identical (enumeration is deterministic), so keep it.
  return cache.emplace(e, std::move(entry)).first->second;
}

Explanation ExeaExplainer::Explain(kg::EntityId e1, kg::EntityId e2,
                                   const AlignmentContext& context) const {
  obs::Span span("exea.explain");
  // Entity ids arrive from callers that resolved untrusted names; pin the
  // range before they select adjacency lists and embedding rows.
  EXEA_CHECK(e1 < dataset_->kg1.num_entities());
  EXEA_CHECK(e2 < dataset_->kg2.num_entities());
  const PathsWithEmbeddings* side1;
  const PathsWithEmbeddings* side2;
  {
    obs::Span paths_span("paths");
    side1 = &PathsFor(kg::KgSide::kSource, e1);
    side2 = &PathsFor(kg::KgSide::kTarget, e2);
  }
  Explanation explanation;
  {
    obs::Span match_span("match");
    explanation = MatchPaths(e1, e2, *side1, *side2, context);
  }
  {
    obs::Span candidates_span("candidates");
    explanation.candidates1 =
        kg::TriplesWithinHops(dataset_->kg1, e1, config_.hops);
    explanation.candidates2 =
        kg::TriplesWithinHops(dataset_->kg2, e2, config_.hops);
  }
  return explanation;
}

Adg ExeaExplainer::BuildAdg(const Explanation& explanation) const {
  obs::Span span("exea.adg");
  return explain::BuildAdg(
      explanation, func1_, func2_,
      [this](kg::EntityId a, kg::EntityId b) {
        return model_->Similarity(a, b);
      },
      config_);
}

double ExeaExplainer::Confidence(kg::EntityId e1, kg::EntityId e2,
                                 const AlignmentContext& context) const {
  return BuildAdg(Explain(e1, e2, context)).confidence;
}

}  // namespace exea::explain
