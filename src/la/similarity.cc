#include "la/similarity.h"

#include <algorithm>
#include <cmath>

#include "la/simd.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/parallel.h"

namespace exea::la {
namespace {

// Row-block size for the parallel loops below. Blocks are fixed by the
// range alone (see util/parallel.h), so results are bit-identical at any
// thread count; each row is written by exactly one task.
constexpr size_t kRowGrain = 16;

// Table rows scored per dot_rows call in TopKWithNorms; the scores
// live in a stack buffer of this many floats.
constexpr size_t kScoreBlock = 256;

}  // namespace

// Precomputes per-row inverse norms; zero rows get 0 so their similarity
// collapses to 0 instead of NaN. Uses the dispatched dot kernel so the
// norms (and everything derived from them) stay bit-identical across
// SIMD levels.
std::vector<float> RowInverseNorms(const Matrix& m) {
  const SimdOps& ops = ActiveSimdOps();
  std::vector<float> inv(m.rows());
  util::ParallelFor(0, inv.size(), /*grain=*/256, [&](size_t i) {
    const float* row = m.Row(i);
    float norm = std::sqrt(ops.dot(row, row, m.cols()));
    inv[i] = norm > 1e-12f ? 1.0f / norm : 0.0f;
  });
  return inv;
}

bool ScoredLess(const ScoredIndex& a, const ScoredIndex& b) {
  // The pinned candidate order: descending score, ties broken by
  // ascending index (see la_test "TopKTieBreak*"). SIMD reduction
  // reordering cannot permute equal-score neighbors because the
  // comparator, not the scan order, decides placement.
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

// Scores one query against every table row (with precomputed table
// inverse norms) and keeps the top k. Shared by the single-query and
// all-queries entry points, and by ExactIndex / the IVF centroid probe
// in similarity_index.cc.
std::vector<ScoredIndex> TopKWithNorms(const float* query, const Matrix& table,
                                       const std::vector<float>& inv_table,
                                       size_t k) {
  // Contract with every caller: one precomputed inverse norm per table
  // row. A mismatch would read stale norms and silently mis-rank
  // candidates.
  EXEA_DCHECK_EQ(inv_table.size(), table.rows());
  const SimdOps& ops = ActiveSimdOps();
  const size_t rows = table.rows();
  const size_t dim = table.cols();
  float qnorm = std::sqrt(ops.dot(query, query, dim));
  float qinv = qnorm > 1e-12f ? 1.0f / qnorm : 0.0f;
  // A bounded max-heap under ScoredLess: its front is the worst row kept
  // so far, and a row enters only if it ranks strictly before that one.
  // ScoredLess is a strict total order, so the kept set and its sorted
  // order are exactly the prefix a full sort would return.
  const size_t keep = std::min(k, rows);
  std::vector<ScoredIndex> heap;
  heap.reserve(keep);
  if (keep == 0) return heap;
  float dots[kScoreBlock];
  for (size_t block = 0; block < rows; block += kScoreBlock) {
    size_t count = std::min(kScoreBlock, rows - block);
    ops.dot_rows(query, table.Row(block), count, dim, dots);
    const float* inv = inv_table.data() + block;
    for (size_t r = 0; r < count; ++r) {
      ScoredIndex candidate{static_cast<uint32_t>(block + r),
                            (dots[r] * qinv) * inv[r]};
      if (heap.size() < keep) {
        heap.push_back(candidate);
        std::push_heap(heap.begin(), heap.end(), ScoredLess);
      } else if (ScoredLess(candidate, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), ScoredLess);
        heap.back() = candidate;
        std::push_heap(heap.begin(), heap.end(), ScoredLess);
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end(), ScoredLess);
  EXEA_DCHECK_EQ(heap.size(), keep);
  return heap;
}

Matrix CosineSimilarityMatrix(const Matrix& a, const Matrix& b) {
  obs::Span span("la.cosine_matrix");
  EXEA_CHECK_EQ(a.cols(), b.cols());
  const SimdOps& ops = ActiveSimdOps();
  std::vector<float> inv_a = RowInverseNorms(a);
  std::vector<float> inv_b = RowInverseNorms(b);
  EXEA_DCHECK_EQ(inv_a.size(), a.rows());
  EXEA_DCHECK_EQ(inv_b.size(), b.rows());
  Matrix out(a.rows(), b.rows());
  util::ParallelFor(0, a.rows(), kRowGrain, [&](size_t i) {
    float* orow = out.Row(i);
    ops.dot_rows(a.Row(i), b.data().data(), b.rows(), a.cols(), orow);
    for (size_t j = 0; j < b.rows(); ++j) {
      orow[j] = (orow[j] * inv_a[i]) * inv_b[j];
    }
  });
  return out;
}

std::vector<ScoredIndex> TopKByCosine(const float* query, const Matrix& table,
                                      size_t k) {
  return TopKWithNorms(query, table, RowInverseNorms(table), k);
}

std::vector<std::vector<ScoredIndex>> TopKByCosineAll(const Matrix& queries,
                                                      const Matrix& table,
                                                      size_t k) {
  obs::Span span("la.topk_all");
  EXEA_CHECK_EQ(queries.cols(), table.cols());
  std::vector<float> inv_t = RowInverseNorms(table);
  std::vector<std::vector<ScoredIndex>> out(queries.rows());
  util::ParallelFor(0, queries.rows(), kRowGrain, [&](size_t i) {
    out[i] = TopKWithNorms(queries.Row(i), table, inv_t, k);
  });
  return out;
}

int64_t ArgMaxCosine(const float* query, const Matrix& table) {
  if (table.rows() == 0) return -1;
  std::vector<ScoredIndex> top = TopKByCosine(query, table, 1);
  return top.empty() ? -1 : static_cast<int64_t>(top[0].index);
}

}  // namespace exea::la
