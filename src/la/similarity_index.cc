#include "la/similarity_index.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <sstream>
#include <string>

#include "la/matrix_io.h"
#include "la/simd.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/file.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace exea::la {
namespace {

// Same fixed-block grain as similarity.cc; see the determinism note
// there.
constexpr size_t kRowGrain = 16;

obs::Registry& Reg(obs::Registry* registry) {
  return registry != nullptr ? *registry : obs::Registry::Global();
}

// L2-normalized copy of `table` (zero rows stay zero).
Matrix NormalizedCopy(const Matrix& table) {
  std::vector<float> inv = RowInverseNorms(table);
  Matrix out(table.rows(), table.cols());
  util::ParallelFor(0, table.rows(), kRowGrain, [&](size_t i) {
    const float* src = table.Row(i);
    float* dst = out.Row(i);
    for (size_t c = 0; c < table.cols(); ++c) {
      dst[c] = src[c] * inv[i];
    }
  });
  return out;
}

// Argmax_c dot(row, centroid_c), ties to the lower centroid index.
size_t NearestCentroid(const float* row, const Matrix& centroids,
                       const SimdOps& ops) {
  size_t best = 0;
  float best_dot = ops.dot(row, centroids.Row(0), centroids.cols());
  for (size_t c = 1; c < centroids.rows(); ++c) {
    float d = ops.dot(row, centroids.Row(c), centroids.cols());
    if (d > best_dot) {
      best_dot = d;
      best = c;
    }
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExactIndex
// ---------------------------------------------------------------------------

ExactIndex::ExactIndex(const Matrix* table, obs::Registry* registry)
    : table_(table),
      inv_norms_(RowInverseNorms(*table)),
      registry_(registry),
      queries_(Reg(registry).GetCounter("index.exact.queries")) {
  EXEA_CHECK(table != nullptr);
}

std::vector<std::vector<ScoredIndex>> ExactIndex::TopKAll(
    const Matrix& queries, size_t k) const {
  obs::Span span(registry_, "la.index.exact.topk");
  EXEA_CHECK_EQ(queries.cols(), table_->cols());
  queries_.Increment(queries.rows());
  std::vector<std::vector<ScoredIndex>> out(queries.rows());
  util::ParallelFor(0, queries.rows(), kRowGrain, [&](size_t i) {
    out[i] = TopKWithNorms(queries.Row(i), *table_, inv_norms_, k);
  });
  return out;
}

// ---------------------------------------------------------------------------
// IVF training
// ---------------------------------------------------------------------------

IvfIndexData TrainIvfIndex(const Matrix& table, const IvfOptions& options) {
  IvfIndexData data;
  size_t rows = table.rows();
  size_t dim = table.cols();
  if (rows == 0) return data;

  size_t k = options.num_clusters;
  if (k == 0) {
    k = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(rows))));
  }
  k = std::max<size_t>(1, std::min(k, rows));

  const SimdOps& ops = ActiveSimdOps();
  Matrix normalized = NormalizedCopy(table);

  // Seeded init: k distinct rows, taken in ascending id order so the
  // starting centroids do not depend on the sampler's output order.
  Rng rng(options.seed);
  std::vector<size_t> init = rng.SampleWithoutReplacement(rows, k);
  std::sort(init.begin(), init.end());
  Matrix centroids(k, dim);
  for (size_t c = 0; c < k; ++c) {
    const float* src = normalized.Row(init[c]);
    std::copy(src, src + dim, centroids.Row(c));
  }

  // Lloyd rounds: parallel deterministic assignment, serial centroid
  // accumulation (fixed order), spherical re-normalization. A cluster
  // that loses all members keeps its previous centroid.
  std::vector<size_t> assign(rows, 0);
  for (size_t iter = 0; iter < options.iterations; ++iter) {
    util::ParallelFor(0, rows, kRowGrain, [&](size_t i) {
      assign[i] = NearestCentroid(normalized.Row(i), centroids, ops);
    });
    Matrix sums(k, dim);
    std::vector<size_t> members(k, 0);
    for (size_t i = 0; i < rows; ++i) {
      float* dst = sums.Row(assign[i]);
      const float* src = normalized.Row(i);
      for (size_t c = 0; c < dim; ++c) dst[c] += src[c];
      ++members[assign[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (members[c] == 0) continue;
      float* row = sums.Row(c);
      float norm = std::sqrt(ops.dot(row, row, dim));
      if (norm <= 1e-12f) continue;
      float inv = 1.0f / norm;
      float* dst = centroids.Row(c);
      for (size_t d = 0; d < dim; ++d) dst[d] = row[d] * inv;
    }
  }

  // Final assignment builds the posting lists; ascending ids per list
  // by construction (canonical serialized form).
  util::ParallelFor(0, rows, kRowGrain, [&](size_t i) {
    assign[i] = NearestCentroid(normalized.Row(i), centroids, ops);
  });
  data.centroids = std::move(centroids);
  data.lists.assign(k, {});
  for (size_t i = 0; i < rows; ++i) {
    data.lists[assign[i]].push_back(static_cast<uint32_t>(i));
  }
  data.nprobe = static_cast<uint32_t>(
      std::max<size_t>(1, std::min(options.nprobe, k)));
  data.iterations = static_cast<uint32_t>(options.iterations);
  data.seed = options.seed;
  return data;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

Status ValidateIvfIndexData(const IvfIndexData& data, size_t table_rows,
                            size_t table_cols) {
  if (data.empty()) {
    return Status::InvalidArgument("ivf index: no centroids");
  }
  if (data.centroids.cols() != table_cols) {
    std::ostringstream msg;
    msg << "ivf index: centroid dim " << data.centroids.cols()
        << " != table dim " << table_cols;
    return Status::InvalidArgument(msg.str());
  }
  if (data.lists.size() != data.centroids.rows()) {
    std::ostringstream msg;
    msg << "ivf index: " << data.lists.size() << " posting lists for "
        << data.centroids.rows() << " centroids";
    return Status::InvalidArgument(msg.str());
  }
  if (data.nprobe == 0 || data.nprobe > data.centroids.rows()) {
    std::ostringstream msg;
    msg << "ivf index: nprobe " << data.nprobe << " outside [1, "
        << data.centroids.rows() << "]";
    return Status::InvalidArgument(msg.str());
  }
  // Every table row in exactly one list, ascending within each list.
  std::vector<bool> seen(table_rows, false);
  size_t total = 0;
  for (size_t c = 0; c < data.lists.size(); ++c) {
    const std::vector<uint32_t>& list = data.lists[c];
    for (size_t p = 0; p < list.size(); ++p) {
      uint32_t id = list[p];
      if (id >= table_rows) {
        std::ostringstream msg;
        msg << "ivf index: list " << c << " references row " << id
            << " beyond table of " << table_rows;
        return Status::InvalidArgument(msg.str());
      }
      if (p > 0 && list[p - 1] >= id) {
        std::ostringstream msg;
        msg << "ivf index: list " << c << " not strictly ascending at row "
            << id;
        return Status::InvalidArgument(msg.str());
      }
      if (seen[id]) {
        std::ostringstream msg;
        msg << "ivf index: row " << id << " appears in more than one list";
        return Status::InvalidArgument(msg.str());
      }
      seen[id] = true;
      ++total;
    }
  }
  if (total != table_rows) {
    std::ostringstream msg;
    msg << "ivf index: lists cover " << total << " of " << table_rows
        << " table rows";
    return Status::InvalidArgument(msg.str());
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Persistence (same text discipline as matrix_io.cc)
// ---------------------------------------------------------------------------

Status SaveIvfIndexData(const IvfIndexData& data, const std::string& path) {
  size_t rows = 0;
  for (const auto& list : data.lists) rows += list.size();
  std::string text = StrFormat(
      "exea_ivf_index 1\n%zu %zu %zu %" PRIu32 " %" PRIu32 " %" PRIu64 "\n",
      data.centroids.rows(), data.centroids.cols(), rows, data.nprobe,
      data.iterations, data.seed);
  AppendMatrixRows(data.centroids, &text);
  for (const auto& list : data.lists) {
    text += std::to_string(list.size());
    for (uint32_t id : list) {
      text.push_back(' ');
      text += std::to_string(id);
    }
    text.push_back('\n');
  }
  return WriteFile(path, text);
}

StatusOr<IvfIndexData> ParseIvfIndexData(std::string_view text,
                                         const std::string& name) {
  util::NumberScanner in(text);
  uint64_t version = 0;
  if (in.NextToken() != "exea_ivf_index" || !in.Next(&version) ||
      version != 1) {
    return Status::InvalidArgument("bad ivf index header in " + name);
  }
  size_t clusters = 0;
  size_t dim = 0;
  size_t rows = 0;
  IvfIndexData data;
  if (!in.Next(&clusters) || !in.Next(&dim) || !in.Next(&rows) ||
      !in.Next(&data.nprobe) || !in.Next(&data.iterations) ||
      !in.Next(&data.seed)) {
    return Status::InvalidArgument("bad ivf index dimensions in " + name);
  }
  // Same pre-allocation guard as LoadMatrix: refuse absurd sizes before
  // allocating, with division so the product cannot wrap.
  constexpr uint64_t kMaxElements = 100'000'000;
  if (clusters == 0 || dim == 0 || clusters > kMaxElements ||
      dim > kMaxElements || clusters > kMaxElements / dim ||
      rows > kMaxElements) {
    std::ostringstream msg;
    msg << name << ": implausible ivf index shape " << clusters << "x" << dim
        << " over " << rows << " rows";
    return Status::InvalidArgument(msg.str());
  }
  data.centroids = Matrix(clusters, dim);
  for (size_t c = 0; c < clusters; ++c) {
    float* row = data.centroids.Row(c);
    for (size_t d = 0; d < dim; ++d) {
      if (!in.Next(&row[d])) {
        std::ostringstream msg;
        msg << name << ": truncated centroid " << c;
        return Status::InvalidArgument(msg.str());
      }
    }
  }
  data.lists.assign(clusters, {});
  size_t total = 0;
  for (size_t c = 0; c < clusters; ++c) {
    size_t len = 0;
    if (!in.Next(&len) || len > rows) {
      std::ostringstream msg;
      msg << name << ": bad posting list length for list " << c;
      return Status::InvalidArgument(msg.str());
    }
    data.lists[c].resize(len);
    for (size_t p = 0; p < len; ++p) {
      if (!in.Next(&data.lists[c][p])) {
        std::ostringstream msg;
        msg << name << ": truncated posting list " << c;
        return Status::InvalidArgument(msg.str());
      }
    }
    total += len;
  }
  if (total != rows) {
    std::ostringstream msg;
    msg << name << ": posting lists cover " << total << " rows, header says "
        << rows;
    return Status::InvalidArgument(msg.str());
  }
  return data;
}

StatusOr<IvfIndexData> LoadIvfIndexData(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseIvfIndexData(*text, path);
}

// ---------------------------------------------------------------------------
// IvfIndex queries
// ---------------------------------------------------------------------------

IvfIndex::IvfIndex(const Matrix* table, const IvfIndexData* data,
                   obs::Registry* registry)
    : table_(table),
      data_(data),
      inv_norms_(RowInverseNorms(*table)),
      centroid_inv_norms_(RowInverseNorms(data->centroids)),
      nprobe_(data->nprobe),
      registry_(registry),
      queries_(Reg(registry).GetCounter("index.ivf.queries")),
      probes_(Reg(registry).GetCounter("index.recall_probe")),
      candidates_(Reg(registry).GetCounter("index.ivf.candidates")) {
  EXEA_CHECK(table != nullptr);
  EXEA_CHECK(data != nullptr);
  EXEA_CHECK(!data->empty());
  nprobe_ = std::max<size_t>(1, std::min(nprobe_, num_clusters()));
}

size_t IvfIndex::num_clusters() const { return data_->centroids.rows(); }

void IvfIndex::set_nprobe(size_t nprobe) {
  nprobe_ = std::max<size_t>(1, std::min(nprobe, num_clusters()));
}

std::vector<std::vector<ScoredIndex>> IvfIndex::TopKAll(const Matrix& queries,
                                                        size_t k) const {
  obs::Span span(registry_, "la.index.ivf.topk");
  EXEA_CHECK_EQ(queries.cols(), table_->cols());
  const SimdOps& ops = ActiveSimdOps();
  size_t nq = queries.rows();

  // Stage 1 — probe: rank centroids per query, keep the nprobe nearest.
  // Centroid scoring reuses the exact top-k machinery, so probe order
  // ties break on the lower centroid id like every other ranking.
  std::vector<std::vector<ScoredIndex>> probes(nq);
  {
    obs::Span probe_span(registry_, "probe");
    util::ParallelFor(0, nq, kRowGrain, [&](size_t i) {
      probes[i] = TopKWithNorms(queries.Row(i), data_->centroids,
                                centroid_inv_norms_, nprobe_);
    });
  }

  // Stage 2 — re-rank: exact cosine over the union of probed lists.
  // The score expression matches TopKWithNorms bit for bit, so
  // nprobe == num_clusters reproduces ExactIndex output exactly.
  std::vector<std::vector<ScoredIndex>> out(nq);
  std::vector<size_t> scanned(nq, 0);
  {
    obs::Span rerank_span(registry_, "rerank");
    util::ParallelFor(0, nq, kRowGrain, [&](size_t i) {
      const float* query = queries.Row(i);
      float qnorm = std::sqrt(ops.dot(query, query, table_->cols()));
      float qinv = qnorm > 1e-12f ? 1.0f / qnorm : 0.0f;
      std::vector<ScoredIndex> scored;
      for (const ScoredIndex& probe : probes[i]) {
        for (uint32_t id : data_->lists[probe.index]) {
          scored.push_back(
              {id, ops.dot(query, table_->Row(id), table_->cols()) * qinv *
                       inv_norms_[id]});
        }
      }
      scanned[i] = scored.size();
      size_t keep = std::min(k, scored.size());
      std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                        ScoredLess);
      scored.resize(keep);
      out[i] = std::move(scored);
    });
  }

  queries_.Increment(nq);
  probes_.Increment(nq * nprobe_);
  size_t candidates = 0;
  for (size_t s : scanned) candidates += s;
  candidates_.Increment(candidates);
  return out;
}

}  // namespace exea::la
