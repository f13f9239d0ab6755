#include "kg/functionality.h"

#include "util/logging.h"

namespace exea::kg {

RelationFunctionality::RelationFunctionality(const KnowledgeGraph& graph) {
  size_t num_rel = graph.num_relations();
  func_.assign(num_rel, 0.0);
  ifunc_.assign(num_rel, 0.0);
  // head_seen[e] == r + 1 once e has been counted as a head of relation r
  // (0: never counted), and likewise for tails, so one pass over a
  // relation's triples counts its distinct heads and tails exactly.
  std::vector<RelationId> head_seen(graph.num_entities(), 0);
  std::vector<RelationId> tail_seen(graph.num_entities(), 0);
  for (RelationId r = 0; r < num_rel; ++r) {
    const std::vector<uint32_t>& indexes = graph.TriplesOfRelation(r);
    if (indexes.empty()) continue;
    RelationId stamp = r + 1;
    size_t heads = 0;
    size_t tails = 0;
    for (uint32_t idx : indexes) {
      const Triple& t = graph.triples()[idx];
      if (head_seen[t.head] != stamp) {
        head_seen[t.head] = stamp;
        ++heads;
      }
      if (tail_seen[t.tail] != stamp) {
        tail_seen[t.tail] = stamp;
        ++tails;
      }
    }
    double n = static_cast<double>(indexes.size());
    func_[r] = static_cast<double>(heads) / n;
    ifunc_[r] = static_cast<double>(tails) / n;
  }
}

double RelationFunctionality::Func(RelationId r) const {
  EXEA_CHECK_LT(r, func_.size());
  return func_[r];
}

double RelationFunctionality::InverseFunc(RelationId r) const {
  EXEA_CHECK_LT(r, ifunc_.size());
  return ifunc_[r];
}

}  // namespace exea::kg
