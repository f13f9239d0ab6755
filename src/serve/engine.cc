#include "serve/engine.h"

#include <filesystem>

#include "explain/export.h"
#include "la/similarity.h"
#include "la/similarity_index.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace exea::serve {
namespace {

// The explain cache key of (e1, e2) on `state`. The epoch makes the key
// version-relative: after a swap the same (name, name) pair resolves to a
// different key, so a pre-swap entry can never answer a post-swap
// request — even when a laggard renderer Puts its stale result after the
// swap's Clear() already ran.
ExplainLruCache::Key ExplainKey(const ServingState& state, kg::EntityId e1,
                                kg::EntityId e2) {
  return {state.epoch(), static_cast<uint64_t>(e1) << 32 | e2};
}

// Target tables below this many rows scan faster than they probe, so
// "auto" serves them exact even when the bundle ships an IVF index.
constexpr size_t kIvfMinRows = 4096;

Status ValidateIndexPolicy(const std::string& policy) {
  if (policy == "auto" || policy == "exact" || policy == "ivf") {
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown index policy '" + policy +
                                 "' (expected auto|exact|ivf)");
}

// Resolves a validated index_policy against `bundle`: true when align
// should probe the bundle's IVF index rather than scan exactly. An "ivf"
// request on a bundle frozen without an index degrades to exact with a
// warning instead of refusing to serve.
bool UseIvf(const std::string& policy, const SnapshotBundle& bundle) {
  if (policy == "exact") return false;
  if (bundle.ivf.empty()) {
    if (policy == "ivf") {
      EXEA_LOG(Warning) << "index_policy=ivf but the bundle was frozen "
                           "without a trained index; serving exact";
    }
    return false;
  }
  return policy == "ivf" || bundle.emb2.rows() >= kIvfMinRows;
}

// What AlignBatch knows before any top-k: the version it pinned, the
// resolved rows, and each row's memoized candidates (nullptr for the
// `missed` rows, which the memo does not hold yet).
struct AlignLookup {
  std::shared_ptr<const ServingState> state;
  std::vector<kg::EntityId> ids;
  std::vector<const std::vector<la::ScoredIndex>*> topk;
  std::vector<size_t> missed;
};

// Pins one version, resolves `sources`, checks the deadline and reads
// the memo. One pinned version throughout: the ids resolved here index
// the same tables the caller's top-k and results read, even if a swap
// lands in between.
StatusOr<AlignLookup> LookUpAlign(const QueryEngine& engine,
                                  const std::vector<std::string>& sources,
                                  const Deadline& deadline) {
  AlignLookup lookup;
  lookup.state = engine.AcquireState();
  auto ids = engine.ResolveAlignBatch(*lookup.state, sources);
  if (!ids.ok()) return ids.status();
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("align: deadline expired before lookup");
  }
  lookup.ids = std::move(*ids);
  lookup.topk.resize(lookup.ids.size());
  for (size_t i = 0; i < lookup.ids.size(); ++i) {
    // Resolved ids index the embedding table and the memo directly;
    // snapshot-load consistency (rows == entity count) makes this hold
    // WITHIN one pinned state, and a violation here would hand Row()
    // out-of-table memory — always-on check.
    EXEA_CHECK_LT(lookup.ids[i], lookup.state->bundle().emb1.rows());
    lookup.topk[i] = lookup.state->MemoizedTopK(lookup.ids[i]);
    if (lookup.topk[i] == nullptr) lookup.missed.push_back(i);
  }
  return lookup;
}

// The served results for a lookup whose every row has its candidates.
std::vector<AlignResult> BuildAlignResults(
    const AlignLookup& lookup, const std::vector<std::string>& sources) {
  const SnapshotBundle& bundle = lookup.state->bundle();
  std::vector<AlignResult> results;
  results.reserve(lookup.ids.size());
  for (size_t i = 0; i < lookup.ids.size(); ++i) {
    AlignResult result;
    result.source = sources[i];
    result.index = lookup.state->index().name();
    for (kg::EntityId target : bundle.repaired.TargetsOf(lookup.ids[i])) {
      result.aligned.push_back(bundle.dataset.kg2.EntityName(target));
    }
    result.candidates.reserve(lookup.topk[i]->size());
    for (const la::ScoredIndex& candidate : *lookup.topk[i]) {
      result.candidates.emplace_back(
          bundle.dataset.kg2.EntityName(candidate.index),
          static_cast<double>(candidate.score));
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace

QueryEngine::QueryEngine(std::unique_ptr<SnapshotBundle> bundle,
                         std::string source, const EngineOptions& options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::Registry::Global()),
      manager_(registry_),
      cache_(options.explain_cache_capacity,
             &registry_->GetGauge("serve.explain_cache.size")),
      cache_hits_(registry_->GetCounter("serve.explain_cache.hits")),
      cache_misses_(registry_->GetCounter("serve.explain_cache.misses")),
      cache_invalidations_(
          registry_->GetCounter("serve.explain_cache.invalidations")),
      align_memo_misses_(registry_->GetCounter("serve.align_memo.misses")) {
  manager_.Install(BuildState(std::move(bundle), std::move(source)));
}

std::unique_ptr<const ServingState> QueryEngine::BuildState(
    std::unique_ptr<SnapshotBundle> bundle, std::string source) {
  bool use_ivf = UseIvf(options_.index_policy, *bundle);
  return std::make_unique<ServingState>(
      std::move(bundle), manager_.NextEpoch(), std::move(source), use_ivf,
      options_.top_k, registry_);
}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Open(
    const std::string& dir, const EngineOptions& options) {
  Status policy = ValidateIndexPolicy(options.index_policy);
  if (!policy.ok()) return policy;
  auto bundle = ReadSnapshot(dir);
  if (!bundle.ok()) return bundle.status();
  EXEA_CHECK(*bundle != nullptr) << "engine constructed without a bundle";
  return std::unique_ptr<QueryEngine>(
      // private ctor — make_unique cannot call it, and the pointer goes
      // straight into the unique_ptr. exea-lint: allow(raw-new-delete)
      new QueryEngine(std::move(*bundle), dir, options));
}

std::unique_ptr<QueryEngine> QueryEngine::FromBundle(
    std::unique_ptr<SnapshotBundle> bundle, const EngineOptions& options) {
  EXEA_CHECK(bundle != nullptr) << "engine constructed without a bundle";
  EXEA_CHECK_OK(ValidateIndexPolicy(options.index_policy));
  return std::unique_ptr<QueryEngine>(
      // private ctor — make_unique cannot call it, and the pointer goes
      // straight into the unique_ptr. exea-lint: allow(raw-new-delete)
      new QueryEngine(std::move(bundle), "<memory>", options));
}

StatusOr<uint64_t> QueryEngine::LoadSnapshot(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("load_snapshot: empty bundle dir");
  }
  // Swap requests arrive over the wire; a relative escape like
  // "bundles/../../etc" must die here, before any filesystem probe.
  if (dir.find("..") != std::string::npos) {
    return Status::InvalidArgument(
        "load_snapshot: refusing bundle dir with '..': " + dir);
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("load_snapshot: no such bundle dir: " + dir);
  }
  auto bundle = ReadSnapshot(dir);
  if (!bundle.ok()) {
    // Normalize the loader's codes to this op's contract: an unreadable
    // bundle is NOT_FOUND, anything wrong with its contents (format
    // version, checksums, shapes) is an invalid argument to the op. The
    // current version keeps serving either way.
    const Status& status = bundle.status();
    if (status.code() == StatusCode::kIoError) {
      return Status::NotFound(status.message());
    }
    if (status.code() == StatusCode::kFailedPrecondition) {
      return Status::InvalidArgument(status.message());
    }
    return status;
  }
  std::lock_guard<std::mutex> lock(swap_mu_);
  uint64_t epoch = manager_.Install(BuildState(std::move(*bundle), dir));
  if (options_.explain_cache_capacity > 0) {
    // Entity ids are version-relative, so every cached rendering is now
    // unaddressable (the epoch key) — drop the storage too.
    cache_.Clear();
    cache_invalidations_.Increment();
  }
  return epoch;
}

EngineStatusResult QueryEngine::EngineStatus() const {
  std::shared_ptr<const ServingState> state = AcquireState();
  EngineStatusResult result;
  result.epoch = state->epoch();
  result.source = state->source();
  result.index = state->index().name();
  result.index_size = state->index().size();
  result.live_versions = registry_->GaugeValue("serve.snapshot.versions");
  result.swaps = registry_->CounterValue("serve.snapshot.swaps");
  result.explain_cache_size = cache_.size();
  result.memo_filled = state->MemoRowsFilled();
  result.memo_rows = state->memo_rows();
  return result;
}

StatusOr<kg::EntityId> QueryEngine::ResolveSource(
    const ServingState& state, const std::string& name) const {
  kg::EntityId e = state.bundle().dataset.kg1.FindEntity(name);
  if (e == kg::kInvalidEntity) {
    return Status::NotFound("unknown KG1 entity: " + name);
  }
  return e;
}

StatusOr<kg::EntityId> QueryEngine::ResolveTarget(
    const ServingState& state, const std::string& name) const {
  kg::EntityId e = state.bundle().dataset.kg2.FindEntity(name);
  if (e == kg::kInvalidEntity) {
    return Status::NotFound("unknown KG2 entity: " + name);
  }
  return e;
}

StatusOr<AlignResult> QueryEngine::Align(const std::string& source,
                                         const Deadline& deadline) const {
  auto batch = AlignBatch({source}, deadline);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

StatusOr<std::vector<AlignResult>> QueryEngine::AlignBatch(
    const std::vector<std::string>& sources, const Deadline& deadline) const {
  auto lookup = LookUpAlign(*this, sources, deadline);
  if (!lookup.ok()) return lookup.status();

  // The rows the memo could not answer go to one batched top-k, which
  // the similarity kernel splits over the worker pool, and fill the memo.
  std::vector<std::vector<la::ScoredIndex>> computed;
  if (!lookup->missed.empty()) {
    align_memo_misses_.Increment(lookup->missed.size());
    std::vector<kg::EntityId> missed_ids;
    missed_ids.reserve(lookup->missed.size());
    for (size_t i : lookup->missed) missed_ids.push_back(lookup->ids[i]);
    {
      obs::Span span(registry_, "serve.align_topk");
      computed = lookup->state->ComputeTopK(missed_ids);
    }
    for (size_t j = 0; j < lookup->missed.size(); ++j) {
      lookup->topk[lookup->missed[j]] = &computed[j];
    }
  }
  return BuildAlignResults(*lookup, sources);
}

std::optional<std::vector<AlignResult>> QueryEngine::AlignBatchFromMemo(
    const std::vector<std::string>& sources, const Deadline& deadline) const {
  auto lookup = LookUpAlign(*this, sources, deadline);
  if (!lookup.ok() || !lookup->missed.empty()) return std::nullopt;
  return BuildAlignResults(*lookup, sources);
}

StatusOr<std::vector<kg::EntityId>> QueryEngine::ResolveAlignBatch(
    const ServingState& state, const std::vector<std::string>& sources) const {
  if (sources.empty()) {
    return Status::InvalidArgument("empty align batch");
  }
  std::vector<kg::EntityId> ids;
  ids.reserve(sources.size());
  for (const std::string& name : sources) {
    auto id = ResolveSource(state, name);
    if (!id.ok()) return id.status();
    ids.push_back(*id);
  }
  return ids;
}

StatusOr<ExplainResult> QueryEngine::Explain(const std::string& source,
                                             const std::string& target,
                                             const Deadline& deadline) const {
  std::shared_ptr<const ServingState> state = AcquireState();
  auto e1 = ResolveSource(*state, source);
  if (!e1.ok()) return e1.status();
  auto e2 = ResolveTarget(*state, target);
  if (!e2.ok()) return e2.status();
  const SnapshotBundle& bundle = state->bundle();
  EXEA_DCHECK_LT(*e1, bundle.dataset.kg1.num_entities());
  EXEA_DCHECK_LT(*e2, bundle.dataset.kg2.num_entities());
  ExplainLruCache::Key key = ExplainKey(*state, *e1, *e2);

  std::optional<ExplainResult> cached = ReadExplainCache(key);
  if (cached.has_value()) return std::move(*cached);
  if (options_.explain_cache_capacity > 0) cache_misses_.Increment();
  if (deadline.Expired()) {
    return Status::DeadlineExceeded(
        "explain: deadline expired before generation");
  }

  ExplainResult result;
  {
    obs::Span span(registry_, "serve.explain_render");
    explain::Explanation explanation =
        state->explainer().Explain(*e1, *e2, state->context());
    explain::Adg adg = state->explainer().BuildAdg(explanation);
    result.json = StrFormat(
        "{\"explanation\":%s,\"adg\":%s}",
        explain::ExplanationToJson(explanation, bundle.dataset.kg1,
                                   bundle.dataset.kg2)
            .c_str(),
        explain::AdgToJson(adg, bundle.dataset.kg1, bundle.dataset.kg2)
            .c_str());
    result.confidence = adg.confidence;
  }

  if (options_.explain_cache_capacity > 0) {
    cache_.Put(key, ExplainLruCache::Entry{result.json, result.confidence});
  }
  return result;
}

std::optional<ExplainResult> QueryEngine::ExplainFromCache(
    const std::string& source, const std::string& target) const {
  std::shared_ptr<const ServingState> state = AcquireState();
  kg::EntityId e1 = state->bundle().dataset.kg1.FindEntity(source);
  kg::EntityId e2 = state->bundle().dataset.kg2.FindEntity(target);
  if (e1 == kg::kInvalidEntity || e2 == kg::kInvalidEntity) {
    return std::nullopt;
  }
  return ReadExplainCache(ExplainKey(*state, e1, e2));
}

std::optional<ExplainResult> QueryEngine::ReadExplainCache(
    const ExplainLruCache::Key& key) const {
  ExplainLruCache::Entry cached;
  if (options_.explain_cache_capacity == 0 || !cache_.Get(key, &cached)) {
    return std::nullopt;
  }
  cache_hits_.Increment();
  ExplainResult result;
  result.json = std::move(cached.json);
  result.confidence = cached.confidence;
  result.cache_hit = true;
  return result;
}

StatusOr<NeighborsResult> QueryEngine::Neighbors(
    const std::string& entity, int side, const Deadline& deadline) const {
  if (side != 1 && side != 2) {
    return Status::InvalidArgument("side must be 1 (KG1) or 2 (KG2)");
  }
  std::shared_ptr<const ServingState> state = AcquireState();
  const kg::KnowledgeGraph& graph =
      side == 1 ? state->bundle().dataset.kg1 : state->bundle().dataset.kg2;
  kg::EntityId e = graph.FindEntity(entity);
  if (e == kg::kInvalidEntity) {
    return Status::NotFound(StrFormat("unknown KG%d entity: %s", side,
                                      entity.c_str()));
  }
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("neighbors: deadline expired");
  }
  NeighborsResult result;
  result.entity = entity;
  for (const kg::AdjacentEdge& edge : graph.Edges(e)) {
    result.edges.push_back({graph.RelationName(edge.rel),
                            graph.EntityName(edge.neighbor), edge.outgoing});
  }
  return result;
}

StatusOr<RepairStatusResult> QueryEngine::RepairStatus(
    const std::string& source, const std::string& target,
    const Deadline& deadline) const {
  std::shared_ptr<const ServingState> state = AcquireState();
  auto e1 = ResolveSource(*state, source);
  if (!e1.ok()) return e1.status();
  auto e2 = ResolveTarget(*state, target);
  if (!e2.ok()) return e2.status();
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("repair_status: deadline expired");
  }
  const SnapshotBundle& bundle = state->bundle();
  RepairStatusResult result;
  result.in_base = bundle.alignment.Contains(*e1, *e2);
  result.in_repaired = bundle.repaired.Contains(*e1, *e2);
  for (kg::EntityId t : bundle.repaired.TargetsOf(*e1)) {
    result.repaired_targets.push_back(bundle.dataset.kg2.EntityName(t));
  }
  if (result.in_base && result.in_repaired) {
    result.verdict = "kept";
  } else if (result.in_base) {
    result.verdict = result.repaired_targets.empty() ? "removed" : "replaced";
  } else if (result.in_repaired) {
    result.verdict = "added";
  } else {
    result.verdict = "absent";
  }
  return result;
}

void QueryEngine::ClearExplainCache() { cache_.Clear(); }

void QueryEngine::FillAlignMemos(
    std::stop_token stop, const std::function<void()>& before_block) const {
  uint64_t seen = 0;  // the epoch filled (or dropped) last
  while (true) {
    // Declared inside the loop, so a dropped version's handle is released
    // before the next wait rather than pinned through it.
    std::shared_ptr<const ServingState> state =
        manager_.AwaitNewer(seen, stop);
    if (state == nullptr) return;  // stop requested
    seen = state->epoch();
    for (size_t row = 0; row < state->memo_rows();) {
      if (before_block) before_block();
      if (stop.stop_requested() || manager_.Acquire() != state) break;
      row = state->FillMemoBlock(row);
    }
  }
}

}  // namespace exea::serve
