// Embedding-similarity utilities: pairwise cosine similarity matrices and
// ranked top-k retrieval. These back the alignment-inference phase and the
// ranked candidate matrix M consumed by the repair algorithms.

#ifndef EXEA_LA_SIMILARITY_H_
#define EXEA_LA_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace exea::la {

// Full pairwise cosine similarity: out(i, j) = cos(a.Row(i), b.Row(j)).
// Row dimensions must match.
Matrix CosineSimilarityMatrix(const Matrix& a, const Matrix& b);

// One candidate with its similarity score.
struct ScoredIndex {
  uint32_t index = 0;
  float score = 0.0f;
};

// The canonical candidate ordering shared by every ranked entry point:
// descending score, ties broken by ascending index. Pinned by la_test so
// SIMD reduction reordering cannot silently permute equal-score
// neighbors.
bool ScoredLess(const ScoredIndex& a, const ScoredIndex& b);

// Per-row inverse L2 norms of `m`; rows with norm <= 1e-12 get 0 so
// their similarity collapses to 0 instead of NaN. Computed with the
// active SIMD kernels (see la/simd.h).
std::vector<float> RowInverseNorms(const Matrix& m);

// Top-k table rows for one query given precomputed table inverse norms
// (inv_table.size() must equal table.rows()). Result is sorted by
// ScoredLess and has min(k, table.rows()) entries. Shared by
// TopKByCosine* and the SimilarityIndex implementations.
std::vector<ScoredIndex> TopKWithNorms(const float* query, const Matrix& table,
                                       const std::vector<float>& inv_table,
                                       size_t k);

// For a query vector, returns the k highest-cosine rows of `table`,
// sorted by descending score (ties broken by ascending index for
// determinism).
std::vector<ScoredIndex> TopKByCosine(const float* query, const Matrix& table,
                                      size_t k);

// For every row of `queries`, the top-k rows of `table` by cosine.
// Result[i] is sorted descending.
std::vector<std::vector<ScoredIndex>> TopKByCosineAll(const Matrix& queries,
                                                      const Matrix& table,
                                                      size_t k);

// Returns argmax_j cos(query, table.Row(j)), or -1 if the table is empty.
int64_t ArgMaxCosine(const float* query, const Matrix& table);

}  // namespace exea::la

#endif  // EXEA_LA_SIMILARITY_H_
