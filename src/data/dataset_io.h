// Directory-based persistence for EA datasets in the DBP15K/OpenEA file
// layout:
//   <dir>/kg1_triples.tsv      head \t relation \t tail
//   <dir>/kg2_triples.tsv
//   <dir>/train_links.tsv      source_entity \t target_entity
//   <dir>/test_links.tsv
//   <dir>/attr_triples_1.tsv   entity \t attribute \t value   (optional)
//   <dir>/attr_triples_2.tsv                                  (optional)
//
// LoadDataset reconstructs gold from train + test links (the synthetic
// generator's full gold map equals their union). Attribute files are
// loaded when present and skipped otherwise.
//
// A load is two steps over the files' bytes: BuildGraph once per KG, then
// LinkDataset. LoadDataset reads the files and runs them in order;
// serve::ReadSnapshot runs the two graph steps as independent tasks.

#ifndef EXEA_DATA_DATASET_IO_H_
#define EXEA_DATA_DATASET_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "kg/types.h"
#include "util/status.h"

namespace exea::data {

// Writes the four files into `dir` (which must already exist).
[[nodiscard]]
Status SaveDataset(const EaDataset& dataset, const std::string& dir);

// Loads a dataset previously written by SaveDataset (or hand-assembled in
// the same layout). `name` becomes the dataset's display name.
[[nodiscard]] StatusOr<EaDataset> LoadDataset(const std::string& dir,
                                const std::string& name);

// Pre-interned entity/relation name lists (in id order) for both KGs.
// Captured at save time from the live graphs, they pin the dense id
// spaces across a round trip: LoadDataset by itself interns names in
// triple-file order, which need not match the order the original graphs
// interned them in.
struct DatasetDictionaries {
  std::vector<std::string> entities1;
  std::vector<std::string> relations1;
  std::vector<std::string> entities2;
  std::vector<std::string> relations2;
};

// As LoadDataset, but interns `dicts` into the two graphs first so every
// entity/relation keeps its original id. Triples may not mention names
// outside the dictionaries (fails with INVALID_ARGUMENT). The serving
// snapshot loader uses this to keep embedding-matrix rows aligned with
// entity ids.
[[nodiscard]] StatusOr<EaDataset> LoadDataset(const std::string& dir,
                                const std::string& name,
                                const DatasetDictionaries& dicts);

// Step 1 of a load, once per KG; `side` picks kg1/attrs1 or kg2/attrs2
// of `dataset`, and only those two are touched, so the two sides may run
// concurrently. Interns that side's half of `dicts` when it is non-null,
// adds the triples in `triples`, fails if they name anything outside a
// pinned dictionary, then adds the attribute triples in `*attributes`
// when it is non-null. `dir` is the dataset directory: error messages
// name the files under it as LoadDataset's do.
[[nodiscard]] Status BuildGraph(const std::string& dir, kg::KgSide side,
                                std::string_view triples,
                                const std::string* attributes,
                                const DatasetDictionaries* dicts,
                                EaDataset& dataset);

// Step 2, once both graphs are built: the train and test links, the gold
// maps, the train/test overlap check and ValidateDataset.
[[nodiscard]] Status LinkDataset(const std::string& dir,
                                 std::string_view train_links,
                                 std::string_view test_links,
                                 EaDataset& dataset);

}  // namespace exea::data

#endif  // EXEA_DATA_DATASET_IO_H_
