// SimilarityIndex: the search-strategy seam between "score a query
// against an embedding table" and "how that scan is executed".
//
// Two implementations:
//
//   * ExactIndex — today's dense top-k scan with the table's inverse
//     norms precomputed once at construction. Exact by definition; the
//     results are bit-identical to la::TopKByCosineAll at a fixed
//     EXEA_SIMD level.
//   * IvfIndex — an IVF-style cluster-pruned approximate index: a
//     k-means coarse quantizer partitions the table rows into posting
//     lists, a query probes its `nprobe` nearest centroids, and the
//     rows in the probed lists are re-ranked with the exact cosine
//     kernel. Recall is tunable via nprobe; nprobe == num_clusters
//     degenerates to the exact scan (same candidates, same comparator,
//     bit-identical output).
//
// Approximate results are permitted ONLY behind this interface: callers
// that opt into an IvfIndex accept that rows outside the probed lists
// are invisible to that query. Everything else (training, eval,
// repair) keeps calling the exact la::TopKByCosineAll entry points.
//
// Determinism: construction and queries are deterministic functions of
// (table bytes, options, EXEA_SIMD level) — k-means is seeded through
// exea::Rng, iteration counts are fixed, and assignment/probing ties
// break on the lower index. Same seed ⇒ byte-identical serialized
// index (pinned by index_test).
//
// Both index types borrow the table (and IvfIndex its trained data);
// the borrowed objects must outlive the index and must not be moved
// while it is alive — a Matrix move would leave the stored pointer
// dangling. serve::SnapshotModel owns all three with matching
// lifetimes.

#ifndef EXEA_LA_SIMILARITY_INDEX_H_
#define EXEA_LA_SIMILARITY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "la/matrix.h"
#include "la/similarity.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace exea::la {

class SimilarityIndex {
 public:
  virtual ~SimilarityIndex() = default;

  // Stable strategy name ("exact", "ivf"); surfaced in align responses
  // and the serving stats op.
  virtual const char* name() const = 0;

  // Number of table rows this index searches over.
  virtual size_t size() const = 0;

  // For every row of `queries`, the top-k table rows by cosine, sorted
  // by ScoredLess (score desc, index asc). Result rows have
  // min(k, candidates) entries; an approximate index may consider fewer
  // candidates than the full table. queries.cols() must match the
  // table. Thread-safe for concurrent callers.
  virtual std::vector<std::vector<ScoredIndex>> TopKAll(
      const Matrix& queries, size_t k) const = 0;
};

// The exact dense scan behind the SimilarityIndex interface. Borrows
// `table`; precomputes inverse norms once.
class ExactIndex final : public SimilarityIndex {
 public:
  // `registry` receives index.* counters; nullptr → Registry::Global().
  explicit ExactIndex(const Matrix* table, obs::Registry* registry = nullptr);

  const char* name() const override { return "exact"; }
  size_t size() const override { return table_->rows(); }
  std::vector<std::vector<ScoredIndex>> TopKAll(const Matrix& queries,
                                                size_t k) const override;

 private:
  const Matrix* table_;
  std::vector<float> inv_norms_;  // one per table row
  obs::Registry* registry_;
  obs::Counter& queries_;  // index.exact.queries
};

// Tuning knobs for IVF training and probing.
struct IvfOptions {
  // Coarse-quantizer size; 0 → ceil(sqrt(rows)), clamped to [1, rows].
  size_t num_clusters = 0;
  // Posting lists probed per query, clamped to [1, num_clusters].
  size_t nprobe = 8;
  // Fixed k-means refinement rounds (no convergence test: a data-
  // dependent stopping rule would make construction input-shape
  // fragile; a fixed count keeps it deterministic and predictable).
  size_t iterations = 10;
  // Seed for the exea::Rng that picks the initial centroids.
  uint64_t seed = 42;
};

// The trained, serializable part of an IVF index: a value type so
// serve::SnapshotBundle can carry it by copy/move independently of the
// table it was trained on.
struct IvfIndexData {
  Matrix centroids;                        // num_clusters x dim
  std::vector<std::vector<uint32_t>> lists;  // row ids per centroid, ascending
  uint32_t nprobe = 0;                     // default probe width at query time
  uint32_t iterations = 0;                 // provenance: training rounds
  uint64_t seed = 0;                       // provenance: init seed
  bool empty() const { return centroids.rows() == 0; }
};

// Trains the coarse quantizer over `table` (spherical k-means on
// L2-normalized rows). Deterministic in (table, options); zero-norm
// rows land in the list of the first centroid they tie with (index 0's
// bias is harmless — they score 0 against everything anyway).
IvfIndexData TrainIvfIndex(const Matrix& table, const IvfOptions& options);

// Structural validation of `data` against the table it claims to index:
// centroid/table dim match, every row id < table_rows, each row in
// exactly one list, sane nprobe. Everything ParseIvfIndexData or
// ReadSnapshot accepts must pass this before a query runs.
[[nodiscard]] Status ValidateIvfIndexData(const IvfIndexData& data,
                                          size_t table_rows,
                                          size_t table_cols);

// Plain-text persistence, same %.9g discipline as matrix_io (byte-exact
// round trip, deterministic bytes for deterministic data).
// ParseIvfIndexData reads the format out of `text`, with `name` (the path,
// for a file) prefixing every error message; LoadIvfIndexData is ReadFile
// plus ParseIvfIndexData.
[[nodiscard]] Status SaveIvfIndexData(const IvfIndexData& data,
                                      const std::string& path);
[[nodiscard]] StatusOr<IvfIndexData> ParseIvfIndexData(
    std::string_view text, const std::string& name);
[[nodiscard]] StatusOr<IvfIndexData> LoadIvfIndexData(const std::string& path);

// Query-side view over a trained IvfIndexData and the table it indexes
// (both borrowed). Callers must have validated `data` against `table`.
class IvfIndex final : public SimilarityIndex {
 public:
  // `registry` receives index.* counters; nullptr → Registry::Global().
  IvfIndex(const Matrix* table, const IvfIndexData* data,
           obs::Registry* registry = nullptr);

  const char* name() const override { return "ivf"; }
  // Validated posting lists cover every row once: the table's row count.
  size_t size() const override { return table_->rows(); }
  std::vector<std::vector<ScoredIndex>> TopKAll(const Matrix& queries,
                                                size_t k) const override;

  size_t num_clusters() const;
  size_t nprobe() const { return nprobe_; }
  // Overrides the persisted probe width (clamped to [1, num_clusters]).
  void set_nprobe(size_t nprobe);

 private:
  const Matrix* table_;
  const IvfIndexData* data_;
  std::vector<float> inv_norms_;
  std::vector<float> centroid_inv_norms_;
  size_t nprobe_;
  obs::Registry* registry_;
  obs::Counter& queries_;     // index.ivf.queries
  obs::Counter& probes_;      // index.recall_probe
  obs::Counter& candidates_;  // index.ivf.candidates
};

}  // namespace exea::la

#endif  // EXEA_LA_SIMILARITY_INDEX_H_
