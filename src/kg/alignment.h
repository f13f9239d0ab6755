// Alignment containers.
//
// An AlignmentSet is a mutable set of (source entity, target entity) pairs
// with bidirectional lookup. It is deliberately *not* constrained to be
// one-to-one: raw model output can contain one-to-many conflicts, and the
// repair pipeline's whole job is to detect and remove them.

#ifndef EXEA_KG_ALIGNMENT_H_
#define EXEA_KG_ALIGNMENT_H_

#include <unordered_map>
#include <vector>

#include "kg/types.h"

namespace exea::kg {

struct AlignedPair {
  EntityId source = kInvalidEntity;
  EntityId target = kInvalidEntity;

  friend bool operator==(const AlignedPair& a, const AlignedPair& b) {
    return a.source == b.source && a.target == b.target;
  }
  friend bool operator<(const AlignedPair& a, const AlignedPair& b) {
    if (a.source != b.source) return a.source < b.source;
    return a.target < b.target;
  }
};

class AlignmentSet {
 public:
  AlignmentSet() = default;

  // Adds (source, target); returns false if the exact pair already exists.
  bool Add(EntityId source, EntityId target);

  // Removes (source, target); returns false if absent.
  bool Remove(EntityId source, EntityId target);

  bool Contains(EntityId source, EntityId target) const;

  // Whether any pair mentions this source (resp. target) entity.
  bool HasSource(EntityId source) const;
  bool HasTarget(EntityId target) const;

  // Targets aligned with `source` (usually 0 or 1; >1 before one-to-many
  // repair). Deterministic (sorted) order.
  std::vector<EntityId> TargetsOf(EntityId source) const;
  std::vector<EntityId> SourcesOf(EntityId target) const;

  // The unique counterpart, or kInvalidEntity if there are 0 or >1.
  EntityId UniqueTargetOf(EntityId source) const;
  EntityId UniqueSourceOf(EntityId target) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // All pairs in deterministic (sorted) order.
  std::vector<AlignedPair> SortedPairs() const;

  // True if no target has more than one source and vice versa.
  bool IsOneToOne() const;

 private:
  // Each mentioned entity's counterparts, sorted ascending. A sorted
  // vector rather than a hash set: an entity usually has one counterpart,
  // so a pair costs one map node and one small buffer per side, and the
  // sorted accessors copy instead of sorting.
  std::unordered_map<EntityId, std::vector<EntityId>> by_source_;
  std::unordered_map<EntityId, std::vector<EntityId>> by_target_;
  size_t size_ = 0;  // pairs
};

// Fraction of `predicted` pairs that appear in `gold` (the paper's EA
// accuracy: correct pairs / total gold pairs). `gold_size` defaults to the
// gold map size.
double AlignmentAccuracy(
    const AlignmentSet& predicted,
    const std::unordered_map<EntityId, EntityId>& gold_source_to_target);

}  // namespace exea::kg

#endif  // EXEA_KG_ALIGNMENT_H_
