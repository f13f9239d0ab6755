#include "data/dataset_io.h"

#include <filesystem>
#include <span>

#include "kg/kg_io.h"
#include "util/file.h"
#include "util/tsv.h"

namespace exea::data {
namespace {

Status SaveAttributes(const kg::AttributeStore& attrs,
                      const kg::KnowledgeGraph& graph,
                      const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(attrs.num_triples());
  for (const kg::AttributeTriple& t : attrs.triples()) {
    rows.push_back({graph.EntityName(t.entity),
                    attrs.AttributeName(t.attribute), t.value});
  }
  return WriteTsv(path, rows);
}

// Dataset file names relative to its directory, indexed by kg::KgSide.
const char* const kTriplesFiles[] = {"kg1_triples.tsv", "kg2_triples.tsv"};
const char* const kAttributeFiles[] = {"attr_triples_1.tsv",
                                       "attr_triples_2.tsv"};

Status ParseAttributes(std::string_view text, const std::string& name,
                       const kg::KnowledgeGraph& graph,
                       kg::AttributeStore& attrs) {
  auto rows = SplitTsv(text, 3, name);
  if (!rows.ok()) return rows.status();
  for (size_t r = 0; r < rows->size(); ++r) {
    std::span<const std::string_view> row = (*rows)[r];
    kg::EntityId entity = graph.FindEntity(row[0]);
    if (entity == kg::kInvalidEntity) {
      return Status::NotFound("unknown entity in attribute file: " +
                              std::string(row[0]));
    }
    attrs.AddTriple(entity, row[1], row[2]);
  }
  return Status::Ok();
}

}  // namespace

Status SaveDataset(const EaDataset& dataset, const std::string& dir) {
  if (dataset.attrs1.num_triples() > 0) {
    EXEA_RETURN_IF_ERROR(SaveAttributes(dataset.attrs1, dataset.kg1,
                                        dir + "/attr_triples_1.tsv"));
  }
  if (dataset.attrs2.num_triples() > 0) {
    EXEA_RETURN_IF_ERROR(SaveAttributes(dataset.attrs2, dataset.kg2,
                                        dir + "/attr_triples_2.tsv"));
  }
  EXEA_RETURN_IF_ERROR(
      kg::SaveTriples(dataset.kg1, dir + "/kg1_triples.tsv"));
  EXEA_RETURN_IF_ERROR(
      kg::SaveTriples(dataset.kg2, dir + "/kg2_triples.tsv"));
  EXEA_RETURN_IF_ERROR(kg::SaveAlignment(dataset.train, dataset.kg1,
                                         dataset.kg2,
                                         dir + "/train_links.tsv"));
  kg::AlignmentSet test;
  for (const kg::AlignedPair& pair : dataset.test) {
    test.Add(pair.source, pair.target);
  }
  return kg::SaveAlignment(test, dataset.kg1, dataset.kg2,
                           dir + "/test_links.tsv");
}

Status BuildGraph(const std::string& dir, kg::KgSide side,
                  std::string_view triples, const std::string* attributes,
                  const DatasetDictionaries* dicts, EaDataset& dataset) {
  int index = static_cast<int>(side);
  bool source = side == kg::KgSide::kSource;
  kg::KnowledgeGraph& graph = source ? dataset.kg1 : dataset.kg2;
  static const std::vector<std::string> kUnpinned;
  const std::vector<std::string>& entities =
      dicts == nullptr ? kUnpinned
                       : source ? dicts->entities1 : dicts->entities2;
  const std::vector<std::string>& relations =
      dicts == nullptr ? kUnpinned
                       : source ? dicts->relations1 : dicts->relations2;
  for (const std::string& entity : entities) graph.AddEntity(entity);
  for (const std::string& relation : relations) graph.AddRelation(relation);
  EXEA_RETURN_IF_ERROR(kg::ParseTriplesInto(
      triples, dir + "/" + kTriplesFiles[index], graph));
  if (dicts != nullptr && (graph.num_entities() != entities.size() ||
                           graph.num_relations() != relations.size())) {
    return Status::InvalidArgument(
        "triple files mention names absent from the saved dictionaries: " +
        dir);
  }
  if (attributes == nullptr) return Status::Ok();
  return ParseAttributes(*attributes, dir + "/" + kAttributeFiles[index],
                         graph, source ? dataset.attrs1 : dataset.attrs2);
}

Status LinkDataset(const std::string& dir, std::string_view train_links,
                   std::string_view test_links, EaDataset& dataset) {
  auto train = kg::ParseAlignment(train_links, dir + "/train_links.tsv",
                                  dataset.kg1, dataset.kg2);
  if (!train.ok()) return train.status();
  dataset.train = std::move(*train);

  auto test = kg::ParseAlignment(test_links, dir + "/test_links.tsv",
                                 dataset.kg1, dataset.kg2);
  if (!test.ok()) return test.status();

  for (const kg::AlignedPair& pair : dataset.train.SortedPairs()) {
    dataset.gold[pair.source] = pair.target;
  }
  dataset.test = test->SortedPairs();
  for (const kg::AlignedPair& pair : dataset.test) {
    if (dataset.train.HasSource(pair.source)) {
      return Status::InvalidArgument(
          "entity appears in both train and test links: " +
          dataset.kg1.EntityName(pair.source));
    }
    dataset.gold[pair.source] = pair.target;
    dataset.test_gold[pair.source] = pair.target;
    dataset.test_sources.push_back(pair.source);
  }
  ValidateDataset(dataset);
  return Status::Ok();
}

namespace {

// The path form: reads each file, then runs the two steps in order. When
// `dicts` is non-null the graphs are pre-interned from it (id-stable load).
StatusOr<EaDataset> LoadDatasetImpl(const std::string& dir,
                                    const std::string& name,
                                    const DatasetDictionaries* dicts) {
  EaDataset dataset;
  dataset.name = name;
  for (kg::KgSide side : {kg::KgSide::kSource, kg::KgSide::kTarget}) {
    int index = static_cast<int>(side);
    auto triples = ReadFile(dir + "/" + kTriplesFiles[index]);
    if (!triples.ok()) return triples.status();
    std::string attr_path = dir + "/" + kAttributeFiles[index];
    bool has_attributes = std::filesystem::exists(attr_path);
    StatusOr<std::string> attributes = std::string();
    if (has_attributes) attributes = ReadFile(attr_path);
    if (!attributes.ok()) return attributes.status();
    EXEA_RETURN_IF_ERROR(BuildGraph(dir, side, *triples,
                                    has_attributes ? &*attributes : nullptr,
                                    dicts, dataset));
  }
  auto train = ReadFile(dir + "/train_links.tsv");
  if (!train.ok()) return train.status();
  auto test = ReadFile(dir + "/test_links.tsv");
  if (!test.ok()) return test.status();
  EXEA_RETURN_IF_ERROR(LinkDataset(dir, *train, *test, dataset));
  return dataset;
}

}  // namespace

StatusOr<EaDataset> LoadDataset(const std::string& dir,
                                const std::string& name) {
  return LoadDatasetImpl(dir, name, nullptr);
}

StatusOr<EaDataset> LoadDataset(const std::string& dir,
                                const std::string& name,
                                const DatasetDictionaries& dicts) {
  return LoadDatasetImpl(dir, name, &dicts);
}

}  // namespace exea::data
