#include "kg/alignment.h"

#include <algorithm>

namespace exea::kg {

namespace {

// Inserts `id` into the sorted `ids`; false if it is already there.
bool InsertSorted(std::vector<EntityId>& ids, EntityId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) return false;
  ids.insert(it, id);
  return true;
}

// Erases `id` from the sorted `ids`; false if it is absent.
bool EraseSorted(std::vector<EntityId>& ids, EntityId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return false;
  ids.erase(it);
  return true;
}

// The sorted counterparts `index` holds for `id` (empty if none).
std::vector<EntityId> CounterpartsOf(
    const std::unordered_map<EntityId, std::vector<EntityId>>& index,
    EntityId id) {
  auto it = index.find(id);
  return it == index.end() ? std::vector<EntityId>() : it->second;
}

// The one counterpart `index` holds for `id`, or kInvalidEntity.
EntityId UniqueCounterpartOf(
    const std::unordered_map<EntityId, std::vector<EntityId>>& index,
    EntityId id) {
  auto it = index.find(id);
  if (it == index.end() || it->second.size() != 1) return kInvalidEntity;
  return it->second.front();
}

}  // namespace

bool AlignmentSet::Add(EntityId source, EntityId target) {
  if (!InsertSorted(by_source_[source], target)) return false;
  InsertSorted(by_target_[target], source);
  ++size_;
  return true;
}

bool AlignmentSet::Remove(EntityId source, EntityId target) {
  auto src_it = by_source_.find(source);
  if (src_it == by_source_.end() || !EraseSorted(src_it->second, target)) {
    return false;
  }
  if (src_it->second.empty()) by_source_.erase(src_it);
  auto tgt_it = by_target_.find(target);
  EraseSorted(tgt_it->second, source);
  if (tgt_it->second.empty()) by_target_.erase(tgt_it);
  --size_;
  return true;
}

bool AlignmentSet::Contains(EntityId source, EntityId target) const {
  auto it = by_source_.find(source);
  return it != by_source_.end() &&
         std::binary_search(it->second.begin(), it->second.end(), target);
}

bool AlignmentSet::HasSource(EntityId source) const {
  return by_source_.count(source) > 0;
}

bool AlignmentSet::HasTarget(EntityId target) const {
  return by_target_.count(target) > 0;
}

std::vector<EntityId> AlignmentSet::TargetsOf(EntityId source) const {
  return CounterpartsOf(by_source_, source);
}

std::vector<EntityId> AlignmentSet::SourcesOf(EntityId target) const {
  return CounterpartsOf(by_target_, target);
}

EntityId AlignmentSet::UniqueTargetOf(EntityId source) const {
  return UniqueCounterpartOf(by_source_, source);
}

EntityId AlignmentSet::UniqueSourceOf(EntityId target) const {
  return UniqueCounterpartOf(by_target_, target);
}

std::vector<AlignedPair> AlignmentSet::SortedPairs() const {
  std::vector<AlignedPair> out;
  out.reserve(size_);
  for (const auto& [source, targets] : by_source_) {
    for (EntityId target : targets) out.push_back({source, target});
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool AlignmentSet::IsOneToOne() const {
  for (const auto& [source, targets] : by_source_) {
    if (targets.size() > 1) return false;
  }
  for (const auto& [target, sources] : by_target_) {
    if (sources.size() > 1) return false;
  }
  return true;
}

double AlignmentAccuracy(
    const AlignmentSet& predicted,
    const std::unordered_map<EntityId, EntityId>& gold_source_to_target) {
  if (gold_source_to_target.empty()) return 0.0;
  size_t correct = 0;
  for (const auto& [source, target] : gold_source_to_target) {
    if (predicted.Contains(source, target)) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(gold_source_to_target.size());
}

}  // namespace exea::kg
