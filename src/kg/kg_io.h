// On-disk I/O for KGs and alignments in the DBP15K/OpenEA TSV layout:
//   triples:    head \t relation \t tail   (one triple per line)
//   alignment:  source_entity \t target_entity
//
// Each loader has a Parse* form over bytes already in memory, where
// `name` (the path, for a file) prefixes TSV error messages; the path form
// is ReadFile plus the Parse* form.

#ifndef EXEA_KG_KG_IO_H_
#define EXEA_KG_KG_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "kg/alignment.h"
#include "kg/graph.h"
#include "util/status.h"

namespace exea::kg {

// Loads a triple file into a new KnowledgeGraph.
[[nodiscard]] StatusOr<KnowledgeGraph> LoadTriples(const std::string& path);

// Loads a triple file into an existing graph (names already present are
// reused; new ones are interned). Pre-interning the dictionaries before
// calling this pins the id space, which is what the serving snapshot
// format relies on to keep embedding rows aligned with entity ids.
[[nodiscard]]
Status LoadTriplesInto(const std::string& path, KnowledgeGraph& graph);
[[nodiscard]] Status ParseTriplesInto(std::string_view text,
                                      const std::string& name,
                                      KnowledgeGraph& graph);

// Writes all triples of `graph` to `path`.
[[nodiscard]]
Status SaveTriples(const KnowledgeGraph& graph, const std::string& path);

// Writes the dictionary's names one per line, in id order. Names must be
// newline-free (the TSV layout already requires this).
[[nodiscard]]
Status SaveDictionary(const Dictionary& dictionary, const std::string& path);

// Reads a dictionary file back as names in id order. Blank lines are
// rejected (a name can never be empty).
[[nodiscard]] StatusOr<std::vector<std::string>> LoadDictionaryNames(
    const std::string& path);
[[nodiscard]] StatusOr<std::vector<std::string>> ParseDictionaryNames(
    std::string_view text, const std::string& name);

// Loads an alignment file, resolving names in the two graphs.
// Unknown entity names fail with NOT_FOUND.
[[nodiscard]] StatusOr<AlignmentSet> LoadAlignment(const std::string& path,
                                     const KnowledgeGraph& source,
                                     const KnowledgeGraph& target);
[[nodiscard]] StatusOr<AlignmentSet> ParseAlignment(
    std::string_view text, const std::string& name,
    const KnowledgeGraph& source, const KnowledgeGraph& target);

// Writes pairs as name TSV.
[[nodiscard]] Status SaveAlignment(const AlignmentSet& alignment,
                     const KnowledgeGraph& source,
                     const KnowledgeGraph& target, const std::string& path);

}  // namespace exea::kg

#endif  // EXEA_KG_KG_IO_H_
