// Unit tests for the KG substrate: dictionary, graph store, functionality,
// neighbourhoods/paths, alignment sets, and KG I/O.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "kg/alignment.h"
#include "kg/dictionary.h"
#include "kg/functionality.h"
#include "kg/graph.h"
#include "kg/kg_io.h"
#include "kg/neighborhood.h"
#include "kg/stats.h"
#include "util/rng.h"
#include "util/tsv.h"

namespace exea::kg {
namespace {

// -------------------------------------------------------------- Dictionary

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  uint32_t a = dict.Intern("alpha");
  uint32_t b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, LookupAndName) {
  Dictionary dict;
  uint32_t id = dict.Intern("x");
  EXPECT_EQ(dict.Lookup("x"), id);
  EXPECT_EQ(dict.Lookup("missing"), UINT32_MAX);
  EXPECT_EQ(dict.Name(id), "x");
  EXPECT_TRUE(dict.Contains("x"));
}

TEST(DictionaryTest, LooksUpThroughAViewIntoALargerBuffer) {
  Dictionary dict;
  uint32_t id = dict.Intern("en/Beta");
  const std::string buffer = "zh/Alpha\ten/Beta\ten/Gamma";
  std::string_view name = std::string_view(buffer).substr(9, 7);
  EXPECT_EQ(dict.Lookup(name), id);
  EXPECT_EQ(dict.Intern(name), id);
  EXPECT_EQ(dict.Lookup(std::string_view(buffer).substr(9, 6)), UINT32_MAX);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, IdsAreDenseInInsertionOrder) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("c"), 2u);
}

// ------------------------------------------------------------------ Graph

KnowledgeGraph ChainGraph() {
  // a -r-> b -r-> c, plus a -s-> c.
  KnowledgeGraph g;
  g.AddTriple("a", "r", "b");
  g.AddTriple("b", "r", "c");
  g.AddTriple("a", "s", "c");
  return g;
}

TEST(GraphTest, CountsAndContains) {
  KnowledgeGraph g = ChainGraph();
  EXPECT_EQ(g.num_entities(), 3u);
  EXPECT_EQ(g.num_relations(), 2u);
  EXPECT_EQ(g.num_triples(), 3u);
  Triple t{g.FindEntity("a"), g.FindRelation("r"), g.FindEntity("b")};
  EXPECT_TRUE(g.ContainsTriple(t));
  Triple missing{g.FindEntity("b"), g.FindRelation("s"), g.FindEntity("a")};
  EXPECT_FALSE(g.ContainsTriple(missing));
}

TEST(GraphTest, DuplicateTripleRejected) {
  KnowledgeGraph g;
  EXPECT_TRUE(g.AddTriple("a", "r", "b"));
  EXPECT_FALSE(g.AddTriple("a", "r", "b"));
  EXPECT_EQ(g.num_triples(), 1u);
}

TEST(GraphTest, EdgesBothDirections) {
  KnowledgeGraph g = ChainGraph();
  EntityId b = g.FindEntity("b");
  const auto& edges = g.Edges(b);
  ASSERT_EQ(edges.size(), 2u);
  // Incoming from a, outgoing to c.
  bool has_in = false;
  bool has_out = false;
  for (const AdjacentEdge& e : edges) {
    if (!e.outgoing && e.neighbor == g.FindEntity("a")) has_in = true;
    if (e.outgoing && e.neighbor == g.FindEntity("c")) has_out = true;
  }
  EXPECT_TRUE(has_in);
  EXPECT_TRUE(has_out);
}

TEST(GraphTest, SelfLoopSingleAdjacencyEntry) {
  KnowledgeGraph g;
  g.AddTriple("a", "r", "a");
  EXPECT_EQ(g.Edges(g.FindEntity("a")).size(), 1u);
}

TEST(GraphTest, TriplesOfRelation) {
  KnowledgeGraph g = ChainGraph();
  RelationId r = g.FindRelation("r");
  EXPECT_EQ(g.TriplesOfRelation(r).size(), 2u);
  EXPECT_EQ(g.TriplesOfRelation(g.FindRelation("s")).size(), 1u);
}

TEST(GraphTest, WithoutTriplesPreservesIds) {
  KnowledgeGraph g = ChainGraph();
  std::unordered_set<Triple, TripleHash> removed;
  removed.insert({g.FindEntity("a"), g.FindRelation("r"), g.FindEntity("b")});
  KnowledgeGraph reduced = g.WithoutTriples(removed);
  EXPECT_EQ(reduced.num_triples(), 2u);
  EXPECT_EQ(reduced.num_entities(), 3u);
  EXPECT_EQ(reduced.FindEntity("a"), g.FindEntity("a"));
  EXPECT_EQ(reduced.FindRelation("s"), g.FindRelation("s"));
  EXPECT_FALSE(reduced.ContainsTriple(
      {g.FindEntity("a"), g.FindRelation("r"), g.FindEntity("b")}));
}

TEST(GraphTest, StatsComputation) {
  KnowledgeGraph g = ChainGraph();
  g.AddEntity("isolated");
  KgStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_entities, 4u);
  EXPECT_EQ(stats.num_triples, 3u);
  EXPECT_EQ(stats.isolated_entities, 1u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_FALSE(stats.ToString().empty());
}

// -------------------------------------------------------------- Functionality

TEST(FunctionalityTest, FunctionalRelationScoresOne) {
  KnowledgeGraph g;
  // Each head appears once with r: func = 1. Tails all distinct: ifunc = 1.
  g.AddTriple("a", "r", "x");
  g.AddTriple("b", "r", "y");
  RelationFunctionality f(g);
  EXPECT_DOUBLE_EQ(f.Func(g.FindRelation("r")), 1.0);
  EXPECT_DOUBLE_EQ(f.InverseFunc(g.FindRelation("r")), 1.0);
}

TEST(FunctionalityTest, RepeatedHeadsLowerFunc) {
  KnowledgeGraph g;
  // Head a used twice with r -> func = 1 distinct head...
  g.AddTriple("a", "r", "x");
  g.AddTriple("a", "r", "y");
  g.AddTriple("b", "r", "z");
  RelationFunctionality f(g);
  // 2 distinct heads over 3 triples; 3 distinct tails over 3 triples.
  EXPECT_NEAR(f.Func(g.FindRelation("r")), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(f.InverseFunc(g.FindRelation("r")), 1.0, 1e-9);
}

TEST(FunctionalityTest, HubTailLowersInverseFunc) {
  KnowledgeGraph g;
  g.AddTriple("a", "made_by", "hub");
  g.AddTriple("b", "made_by", "hub");
  g.AddTriple("c", "made_by", "hub");
  RelationFunctionality f(g);
  EXPECT_NEAR(f.InverseFunc(g.FindRelation("made_by")), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(f.Func(g.FindRelation("made_by")), 1.0, 1e-9);
}

TEST(FunctionalityTest, UnusedRelationIsZero) {
  KnowledgeGraph g;
  g.AddTriple("a", "r", "b");
  g.AddRelation("unused");
  RelationFunctionality f(g);
  EXPECT_EQ(f.Func(g.FindRelation("unused")), 0.0);
}

// Random graphs with self-loops, repeated heads and tails, and relations
// that never occur: the stamp-based counts give exactly the doubles of a
// hash-set count of distinct heads and tails.
TEST(FunctionalityTest, MatchesHashSetReferenceOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    KnowledgeGraph g;
    size_t entities = 1 + rng.UniformInt(12);
    size_t relations = 1 + rng.UniformInt(6);
    for (size_t e = 0; e < entities; ++e) g.AddEntity("e" + std::to_string(e));
    for (size_t r = 0; r < relations; ++r) {
      g.AddRelation("r" + std::to_string(r));
    }
    size_t triples = rng.UniformInt(60);
    for (size_t i = 0; i < triples; ++i) {
      EntityId head = static_cast<EntityId>(rng.UniformInt(entities));
      // Relation 0 only ever forms self-loops; the last relation gets no
      // triples unless it is also relation 0.
      RelationId rel =
          static_cast<RelationId>(rng.UniformInt(std::max<size_t>(
              1, relations - 1)));
      EntityId tail = rel == 0 ? head
                               : static_cast<EntityId>(
                                     rng.UniformInt(entities));
      g.AddTriple(head, rel, tail);
    }
    RelationFunctionality f(g);
    ASSERT_EQ(f.num_relations(), relations);
    for (RelationId r = 0; r < relations; ++r) {
      std::set<EntityId> heads;
      std::set<EntityId> tails;
      for (uint32_t idx : g.TriplesOfRelation(r)) {
        heads.insert(g.triples()[idx].head);
        tails.insert(g.triples()[idx].tail);
      }
      double n = static_cast<double>(g.TriplesOfRelation(r).size());
      double func = n == 0 ? 0.0 : static_cast<double>(heads.size()) / n;
      double ifunc = n == 0 ? 0.0 : static_cast<double>(tails.size()) / n;
      EXPECT_EQ(f.Func(r), func) << "seed " << seed << " relation " << r;
      EXPECT_EQ(f.InverseFunc(r), ifunc)
          << "seed " << seed << " relation " << r;
    }
  }
}

// ------------------------------------------------------------- Neighborhood

TEST(NeighborhoodTest, OneHopTriples) {
  KnowledgeGraph g = ChainGraph();
  std::vector<Triple> triples =
      TriplesWithinHops(g, g.FindEntity("a"), 1);
  // a's incident triples: (a,r,b) and (a,s,c).
  EXPECT_EQ(triples.size(), 2u);
}

TEST(NeighborhoodTest, TwoHopTriplesIncludeNeighborsTriples) {
  KnowledgeGraph g = ChainGraph();
  std::vector<Triple> triples =
      TriplesWithinHops(g, g.FindEntity("a"), 2);
  EXPECT_EQ(triples.size(), 3u);  // everything in this small graph
}

TEST(NeighborhoodTest, HopsDoNotDuplicate) {
  KnowledgeGraph g = ChainGraph();
  std::vector<Triple> triples =
      TriplesWithinHops(g, g.FindEntity("b"), 2);
  std::set<Triple> unique(triples.begin(), triples.end());
  EXPECT_EQ(unique.size(), triples.size());
}

TEST(NeighborhoodTest, PathEnumerationLengthOne) {
  KnowledgeGraph g = ChainGraph();
  PathEnumerationOptions options;
  options.max_length = 1;
  std::vector<RelationPath> paths =
      EnumeratePaths(g, g.FindEntity("a"), options);
  EXPECT_EQ(paths.size(), 2u);
  for (const RelationPath& p : paths) {
    EXPECT_EQ(p.length(), 1u);
    EXPECT_EQ(p.source, g.FindEntity("a"));
  }
}

TEST(NeighborhoodTest, PathEnumerationTwoHopsNoRevisit) {
  KnowledgeGraph g = ChainGraph();
  PathEnumerationOptions options;
  options.max_length = 2;
  std::vector<RelationPath> paths =
      EnumeratePaths(g, g.FindEntity("a"), options);
  // 1-hop: a->b, a->c. 2-hop: a->b->c, a->c->b (via r reverse from c? c has
  // edges: b->r->c incoming, a->s->c incoming; from c can reach b).
  for (const RelationPath& p : paths) {
    std::set<EntityId> seen{p.source};
    for (const PathStep& s : p.steps) {
      EXPECT_TRUE(seen.insert(s.to).second) << "path revisits an entity";
    }
  }
  // Shorter paths come first.
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length(), paths[i].length());
  }
}

TEST(NeighborhoodTest, PathTriplesOrientation) {
  KnowledgeGraph g = ChainGraph();
  PathEnumerationOptions options;
  options.max_length = 2;
  std::vector<RelationPath> paths =
      EnumeratePaths(g, g.FindEntity("c"), options);
  // Every reported triple must exist in the graph in its stated
  // orientation.
  for (const RelationPath& p : paths) {
    for (const Triple& t : p.Triples()) {
      EXPECT_TRUE(g.ContainsTriple(t));
    }
  }
}

TEST(NeighborhoodTest, MaxPathsCapRespected) {
  KnowledgeGraph g;
  for (int i = 0; i < 20; ++i) {
    g.AddTriple("hub", "r" + std::to_string(i), "spoke" + std::to_string(i));
  }
  PathEnumerationOptions options;
  options.max_length = 1;
  options.max_paths = 5;
  EXPECT_EQ(EnumeratePaths(g, g.FindEntity("hub"), options).size(), 5u);
}

TEST(NeighborhoodTest, MaxBranchCapRespected) {
  KnowledgeGraph g;
  for (int i = 0; i < 20; ++i) {
    g.AddTriple("hub", "r", "spoke" + std::to_string(i));
  }
  PathEnumerationOptions options;
  options.max_length = 1;
  options.max_branch = 3;
  EXPECT_EQ(EnumeratePaths(g, g.FindEntity("hub"), options).size(), 3u);
}

// ---------------------------------------------------------------- Alignment

TEST(AlignmentTest, AddRemoveContains) {
  AlignmentSet a;
  EXPECT_TRUE(a.Add(1, 2));
  EXPECT_FALSE(a.Add(1, 2));
  EXPECT_TRUE(a.Contains(1, 2));
  EXPECT_TRUE(a.Remove(1, 2));
  EXPECT_FALSE(a.Remove(1, 2));
  EXPECT_TRUE(a.empty());
}

TEST(AlignmentTest, BidirectionalLookup) {
  AlignmentSet a;
  a.Add(1, 10);
  a.Add(2, 10);
  a.Add(1, 11);
  EXPECT_TRUE(a.HasSource(1));
  EXPECT_TRUE(a.HasTarget(10));
  EXPECT_FALSE(a.HasSource(99));
  EXPECT_EQ(a.TargetsOf(1), (std::vector<EntityId>{10, 11}));
  EXPECT_EQ(a.SourcesOf(10), (std::vector<EntityId>{1, 2}));
}

TEST(AlignmentTest, UniqueLookups) {
  AlignmentSet a;
  a.Add(1, 10);
  EXPECT_EQ(a.UniqueTargetOf(1), 10u);
  EXPECT_EQ(a.UniqueSourceOf(10), 1u);
  a.Add(1, 11);
  EXPECT_EQ(a.UniqueTargetOf(1), kInvalidEntity);
  EXPECT_EQ(a.UniqueTargetOf(5), kInvalidEntity);
}

TEST(AlignmentTest, RemoveCleansIndexes) {
  AlignmentSet a;
  a.Add(1, 10);
  a.Remove(1, 10);
  EXPECT_FALSE(a.HasSource(1));
  EXPECT_FALSE(a.HasTarget(10));
}

TEST(AlignmentTest, IsOneToOne) {
  AlignmentSet a;
  a.Add(1, 10);
  a.Add(2, 11);
  EXPECT_TRUE(a.IsOneToOne());
  a.Add(3, 10);
  EXPECT_FALSE(a.IsOneToOne());
  a.Remove(3, 10);
  EXPECT_TRUE(a.IsOneToOne());
}

TEST(AlignmentTest, SortedPairsDeterministic) {
  AlignmentSet a;
  a.Add(5, 2);
  a.Add(1, 9);
  a.Add(5, 1);
  std::vector<AlignedPair> pairs = a.SortedPairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].source, 1u);
  EXPECT_EQ(pairs[1].target, 1u);
  EXPECT_EQ(pairs[2].target, 2u);
}

// Random Add/Remove sequences over a few ids (so one-to-many conflicts
// and re-adds are common) against a plain std::set of pairs: every
// return value and every accessor must agree with the set-of-pairs
// semantics, for ids in the set and ids never added.
TEST(AlignmentTest, RandomEditsMatchSetOfPairsModel) {
  constexpr EntityId kIds = 9;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    AlignmentSet alignment;
    std::set<std::pair<EntityId, EntityId>> model;
    for (int step = 0; step < 400; ++step) {
      EntityId source = static_cast<EntityId>(rng.UniformInt(kIds));
      EntityId target = static_cast<EntityId>(rng.UniformInt(kIds));
      if (rng.Bernoulli(0.6)) {
        ASSERT_EQ(alignment.Add(source, target),
                  model.insert({source, target}).second);
      } else {
        ASSERT_EQ(alignment.Remove(source, target),
                  model.erase({source, target}) == 1);
      }
      ASSERT_EQ(alignment.size(), model.size());
      ASSERT_EQ(alignment.empty(), model.empty());

      std::vector<AlignedPair> pairs;
      for (const auto& [s, t] : model) pairs.push_back({s, t});
      ASSERT_EQ(alignment.SortedPairs(), pairs) << "seed " << seed;
      bool one_to_one = true;
      for (EntityId id = 0; id <= kIds; ++id) {  // kIds is never added
        std::vector<EntityId> targets;
        std::vector<EntityId> sources;
        for (const auto& [s, t] : model) {
          if (s == id) targets.push_back(t);
          if (t == id) sources.push_back(s);
        }
        std::sort(sources.begin(), sources.end());
        one_to_one = one_to_one && targets.size() <= 1 && sources.size() <= 1;
        ASSERT_EQ(alignment.TargetsOf(id), targets);
        ASSERT_EQ(alignment.SourcesOf(id), sources);
        ASSERT_EQ(alignment.HasSource(id), !targets.empty());
        ASSERT_EQ(alignment.HasTarget(id), !sources.empty());
        ASSERT_EQ(alignment.UniqueTargetOf(id),
                  targets.size() == 1 ? targets[0] : kInvalidEntity);
        ASSERT_EQ(alignment.UniqueSourceOf(id),
                  sources.size() == 1 ? sources[0] : kInvalidEntity);
        for (EntityId other = 0; other <= kIds; ++other) {
          ASSERT_EQ(alignment.Contains(id, other),
                    model.count({id, other}) > 0);
        }
      }
      ASSERT_EQ(alignment.IsOneToOne(), one_to_one);
    }
  }
}

TEST(AlignmentTest, AccuracyAgainstGold) {
  AlignmentSet predicted;
  predicted.Add(1, 10);
  predicted.Add(2, 99);  // wrong
  std::unordered_map<EntityId, EntityId> gold{{1, 10}, {2, 20}, {3, 30}};
  EXPECT_NEAR(AlignmentAccuracy(predicted, gold), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(AlignmentAccuracy(predicted, {}), 0.0);
}

// --------------------------------------------------------------------- I/O

class KgIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("exea_kgio_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(KgIoTest, TripleRoundTrip) {
  KnowledgeGraph g = ChainGraph();
  std::string path = (dir_ / "triples.tsv").string();
  ASSERT_TRUE(SaveTriples(g, path).ok());
  auto loaded = LoadTriples(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_triples(), g.num_triples());
  EXPECT_EQ(loaded->num_entities(), g.num_entities());
  for (const Triple& t : g.triples()) {
    Triple mapped{loaded->FindEntity(g.EntityName(t.head)),
                  loaded->FindRelation(g.RelationName(t.rel)),
                  loaded->FindEntity(g.EntityName(t.tail))};
    EXPECT_TRUE(loaded->ContainsTriple(mapped));
  }
}

TEST_F(KgIoTest, AlignmentRoundTrip) {
  KnowledgeGraph g1 = ChainGraph();
  KnowledgeGraph g2;
  g2.AddTriple("a2", "r", "b2");
  AlignmentSet alignment;
  alignment.Add(g1.FindEntity("a"), g2.FindEntity("a2"));
  alignment.Add(g1.FindEntity("b"), g2.FindEntity("b2"));
  std::string path = (dir_ / "alignment.tsv").string();
  ASSERT_TRUE(SaveAlignment(alignment, g1, g2, path).ok());
  auto loaded = LoadAlignment(path, g1, g2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(loaded->Contains(g1.FindEntity("a"), g2.FindEntity("a2")));
}

TEST_F(KgIoTest, AlignmentUnknownEntityFails) {
  KnowledgeGraph g1 = ChainGraph();
  KnowledgeGraph g2 = ChainGraph();
  std::string path = (dir_ / "bad.tsv").string();
  ASSERT_TRUE(WriteTsv(path, {{"ghost", "a"}}).ok());
  auto loaded = LoadAlignment(path, g1, g2);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace exea::kg
