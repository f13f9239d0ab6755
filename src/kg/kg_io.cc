#include "kg/kg_io.h"

#include <span>

#include "util/file.h"
#include "util/tsv.h"

namespace exea::kg {

StatusOr<KnowledgeGraph> LoadTriples(const std::string& path) {
  KnowledgeGraph graph;
  EXEA_RETURN_IF_ERROR(LoadTriplesInto(path, graph));
  return graph;
}

Status LoadTriplesInto(const std::string& path, KnowledgeGraph& graph) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseTriplesInto(*text, path, graph);
}

Status ParseTriplesInto(std::string_view text, const std::string& name,
                        KnowledgeGraph& graph) {
  auto rows = SplitTsv(text, 3, name);
  if (!rows.ok()) return rows.status();
  for (size_t r = 0; r < rows->size(); ++r) {
    std::span<const std::string_view> row = (*rows)[r];
    graph.AddTriple(row[0], row[1], row[2]);
  }
  return Status::Ok();
}

Status SaveTriples(const KnowledgeGraph& graph, const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(graph.num_triples());
  for (const Triple& t : graph.triples()) {
    rows.push_back({graph.EntityName(t.head), graph.RelationName(t.rel),
                    graph.EntityName(t.tail)});
  }
  return WriteTsv(path, rows);
}

StatusOr<AlignmentSet> LoadAlignment(const std::string& path,
                                     const KnowledgeGraph& source,
                                     const KnowledgeGraph& target) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseAlignment(*text, path, source, target);
}

StatusOr<AlignmentSet> ParseAlignment(std::string_view text,
                                      const std::string& name,
                                      const KnowledgeGraph& source,
                                      const KnowledgeGraph& target) {
  auto rows = SplitTsv(text, 2, name);
  if (!rows.ok()) return rows.status();
  AlignmentSet alignment;
  for (size_t r = 0; r < rows->size(); ++r) {
    std::span<const std::string_view> row = (*rows)[r];
    EntityId s = source.FindEntity(row[0]);
    if (s == kInvalidEntity) {
      return Status::NotFound("unknown source entity: " +
                              std::string(row[0]));
    }
    EntityId t = target.FindEntity(row[1]);
    if (t == kInvalidEntity) {
      return Status::NotFound("unknown target entity: " +
                              std::string(row[1]));
    }
    alignment.Add(s, t);
  }
  return alignment;
}

Status SaveAlignment(const AlignmentSet& alignment,
                     const KnowledgeGraph& source,
                     const KnowledgeGraph& target, const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(alignment.size());
  for (const AlignedPair& pair : alignment.SortedPairs()) {
    rows.push_back(
        {source.EntityName(pair.source), target.EntityName(pair.target)});
  }
  return WriteTsv(path, rows);
}

Status SaveDictionary(const Dictionary& dictionary, const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(dictionary.size());
  for (uint32_t id = 0; id < dictionary.size(); ++id) {
    rows.push_back({dictionary.Name(id)});
  }
  return WriteTsv(path, rows);
}

StatusOr<std::vector<std::string>> LoadDictionaryNames(
    const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseDictionaryNames(*text, path);
}

StatusOr<std::vector<std::string>> ParseDictionaryNames(
    std::string_view text, const std::string& name) {
  auto rows = SplitTsv(text, 1, name);
  if (!rows.ok()) return rows.status();
  std::vector<std::string> names;
  names.reserve(rows->size());
  for (size_t r = 0; r < rows->size(); ++r) {
    std::string_view first = (*rows)[r][0];
    if (first.empty()) {
      return Status::InvalidArgument("empty name in dictionary file: " + name);
    }
    names.emplace_back(first);
  }
  return names;
}

}  // namespace exea::kg
