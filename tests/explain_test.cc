// Tests for the explanation core: Eq. (2) path embeddings, bidirectional
// mutual-best matching, ADG edge classification/weights (Eqs. (3)-(7)),
// the Eq. (8)/(9) confidence — including the Fig. 2 worked example — and
// the ExeaExplainer facade.

#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "emb/model.h"
#include "explain/adg.h"
#include "explain/config.h"
#include "explain/exea.h"
#include "explain/matcher.h"
#include "explain/path_embedding.h"
#include "la/vector_ops.h"

namespace exea::explain {
namespace {

// ---------------------------------------------------------- path embedding

TEST(PathEmbeddingTest, SingleStepFormula) {
  la::Matrix ent(2, 2);
  ent.SetRow(0, {2, 4});
  ent.SetRow(1, {9, 9});  // terminal: excluded from the entity mean
  la::Matrix rel(1, 2);
  rel.SetRow(0, {1, -1});
  kg::RelationPath path;
  path.source = 0;
  path.steps.push_back({0, /*outgoing=*/true, 1});
  la::Vec p = PathEmbedding(path, ent, rel);
  ASSERT_EQ(p.size(), 4u);
  // n = 1: entity part = e_source; relation part = r.
  EXPECT_NEAR(p[0], 2.0f, 1e-6f);
  EXPECT_NEAR(p[1], 4.0f, 1e-6f);
  EXPECT_NEAR(p[2], 1.0f, 1e-6f);
  EXPECT_NEAR(p[3], -1.0f, 1e-6f);
}

TEST(PathEmbeddingTest, TwoStepAveragesInternalEntities) {
  la::Matrix ent(3, 1);
  ent.SetRow(0, {2});
  ent.SetRow(1, {4});
  ent.SetRow(2, {100});  // terminal, excluded
  la::Matrix rel(2, 1);
  rel.SetRow(0, {3});
  rel.SetRow(1, {5});
  kg::RelationPath path;
  path.source = 0;
  path.steps.push_back({0, true, 1});
  path.steps.push_back({1, true, 2});
  la::Vec p = PathEmbedding(path, ent, rel);
  // entity part = (e0 + e1)/2 = 3; relation part = (r0 + r1)/2 = 4.
  EXPECT_NEAR(p[0], 3.0f, 1e-6f);
  EXPECT_NEAR(p[1], 4.0f, 1e-6f);
}

TEST(PathEmbeddingTest, BackwardStepNegatesRelation) {
  la::Matrix ent(2, 1);
  ent.SetRow(0, {1});
  la::Matrix rel(1, 1);
  rel.SetRow(0, {7});
  kg::RelationPath forward;
  forward.source = 0;
  forward.steps.push_back({0, true, 1});
  kg::RelationPath backward;
  backward.source = 0;
  backward.steps.push_back({0, false, 1});
  EXPECT_NEAR(PathEmbedding(forward, ent, rel)[1], 7.0f, 1e-6f);
  EXPECT_NEAR(PathEmbedding(backward, ent, rel)[1], -7.0f, 1e-6f);
}

// ----------------------------------------------------------------- matcher

TEST(AlignmentContextTest, MergesSeedsAndResults) {
  kg::AlignmentSet result;
  result.Add(1, 10);
  kg::AlignmentSet seeds;
  seeds.Add(2, 20);
  AlignmentContext context(&result, &seeds);
  EXPECT_TRUE(context.AreAligned(1, 10));
  EXPECT_TRUE(context.AreAligned(2, 20));
  EXPECT_FALSE(context.AreAligned(1, 20));
  EXPECT_EQ(context.AlignedTargets(1), (std::vector<kg::EntityId>{10}));
  EXPECT_EQ(context.AlignedSources(20), (std::vector<kg::EntityId>{2}));
}

// Builds a PathsWithEmbeddings fixture from (target, embedding) pairs; all
// paths single-step from `source`.
PathsWithEmbeddings MakePaths(
    kg::EntityId source,
    const std::vector<std::pair<kg::EntityId, la::Vec>>& entries) {
  PathsWithEmbeddings out;
  for (const auto& [target, embedding] : entries) {
    kg::RelationPath path;
    path.source = source;
    path.steps.push_back({0, true, target});
    out.paths.push_back(path);
    out.embeddings.push_back(embedding);
  }
  return out;
}

TEST(MatcherTest, MutualBestPairsMatch) {
  // Side 1 paths to neighbours 10, 11; side 2 to 20, 21.
  // Alignment: 10<->20, 11<->21. Embeddings make (10,20) and (11,21)
  // mutually best.
  PathsWithEmbeddings side1 =
      MakePaths(1, {{10, {1, 0}}, {11, {0, 1}}});
  PathsWithEmbeddings side2 =
      MakePaths(2, {{20, {1, 0.1f}}, {21, {0.1f, 1}}});
  kg::AlignmentSet result;
  result.Add(10, 20);
  result.Add(11, 21);
  AlignmentContext context(&result, nullptr);
  Explanation e = MatchPaths(1, 2, side1, side2, context);
  ASSERT_EQ(e.matches.size(), 2u);
  EXPECT_EQ(e.matches[0].p1.target(), 10u);
  EXPECT_EQ(e.matches[0].p2.target(), 20u);
  EXPECT_EQ(e.matches[1].p1.target(), 11u);
  EXPECT_EQ(e.matches[1].p2.target(), 21u);
  EXPECT_EQ(e.triples1.size(), 2u);
  EXPECT_EQ(e.triples2.size(), 2u);
}

TEST(MatcherTest, UnalignedNeighborsNeverMatch) {
  PathsWithEmbeddings side1 = MakePaths(1, {{10, {1, 0}}});
  PathsWithEmbeddings side2 = MakePaths(2, {{20, {1, 0}}});
  AlignmentContext context(nullptr, nullptr);  // no alignment knowledge
  Explanation e = MatchPaths(1, 2, side1, side2, context);
  EXPECT_TRUE(e.empty());
}

TEST(MatcherTest, NonMutualBestRejected) {
  // Both side-1 paths prefer side-2 path A, but A prefers only one of
  // them; the loser stays unmatched.
  PathsWithEmbeddings side1 =
      MakePaths(1, {{10, {1, 0}}, {11, {0.9f, 0.1f}}});
  PathsWithEmbeddings side2 = MakePaths(2, {{20, {1, 0}}});
  kg::AlignmentSet result;
  result.Add(10, 20);
  result.Add(11, 20);
  AlignmentContext context(&result, nullptr);
  Explanation e = MatchPaths(1, 2, side1, side2, context);
  ASSERT_EQ(e.matches.size(), 1u);
  EXPECT_EQ(e.matches[0].p1.target(), 10u);
}

TEST(MatcherTest, SimilarityRecorded) {
  PathsWithEmbeddings side1 = MakePaths(1, {{10, {1, 0}}});
  PathsWithEmbeddings side2 = MakePaths(2, {{20, {1, 1}}});
  kg::AlignmentSet result;
  result.Add(10, 20);
  AlignmentContext context(&result, nullptr);
  Explanation e = MatchPaths(1, 2, side1, side2, context);
  ASSERT_EQ(e.matches.size(), 1u);
  EXPECT_NEAR(e.matches[0].similarity, 1.0f / std::sqrt(2.0f), 1e-5f);
}

// --------------------------------------------------------------------- ADG

// Fixture KGs for weight computation:
// KG1: (n1, r1, e1) — neighbour is head, so weight uses func-side logic.
// KG2: (n2, r2, e2).
struct AdgFixture {
  kg::KnowledgeGraph kg1;
  kg::KnowledgeGraph kg2;
  kg::EntityId e1, n1, e2, n2;
  kg::RelationId r1, r2;

  AdgFixture() {
    e1 = kg1.AddEntity("e1");
    n1 = kg1.AddEntity("n1");
    r1 = kg1.AddRelation("r1");
    kg1.AddTriple(n1, r1, e1);
    e2 = kg2.AddEntity("e2");
    n2 = kg2.AddEntity("n2");
    r2 = kg2.AddRelation("r2");
    kg2.AddTriple(n2, r2, e2);
  }

  // The explanation: one matched single-step path pair e1<-n1 / e2<-n2.
  Explanation MakeExplanation() const {
    Explanation e;
    e.e1 = e1;
    e.e2 = e2;
    MatchedPathPair match;
    match.p1.source = e1;
    match.p1.steps.push_back({r1, /*outgoing=*/false, n1});
    match.p2.source = e2;
    match.p2.steps.push_back({r2, /*outgoing=*/false, n2});
    match.similarity = 0.9f;
    e.matches.push_back(match);
    return e;
  }
};

TEST(AdgTest, PathWeightUsesFuncForIncoming) {
  AdgFixture fx;
  kg::RelationFunctionality func(fx.kg1);
  kg::RelationPath incoming;
  incoming.source = fx.e1;
  incoming.steps.push_back({fx.r1, false, fx.n1});
  EXPECT_DOUBLE_EQ(PathWeight(incoming, func), func.Func(fx.r1));
  kg::RelationPath outgoing;
  outgoing.source = fx.n1;
  outgoing.steps.push_back({fx.r1, true, fx.e1});
  EXPECT_DOUBLE_EQ(PathWeight(outgoing, func), func.InverseFunc(fx.r1));
}

TEST(AdgTest, PathWeightMultipliesSteps) {
  // Chain a -r-> b -r-> c where r has func/ifunc below 1.
  kg::KnowledgeGraph g;
  g.AddTriple("a", "r", "b");
  g.AddTriple("b", "r", "c");
  g.AddTriple("a", "r", "c");  // lowers ifunc: 3 triples, 3 tails... adjust
  g.AddTriple("x", "r", "b");  // duplicate tail b: ifunc = 3/4
  kg::RelationFunctionality func(g);
  kg::RelationPath path;
  path.source = g.FindEntity("a");
  path.steps.push_back({g.FindRelation("r"), true, g.FindEntity("b")});
  path.steps.push_back({g.FindRelation("r"), true, g.FindEntity("c")});
  double step = func.InverseFunc(g.FindRelation("r"));
  EXPECT_DOUBLE_EQ(PathWeight(path, func), step * step);
}

TEST(AdgTest, StrongEdgeClassificationAndWeight) {
  AdgFixture fx;
  kg::RelationFunctionality func1(fx.kg1);
  kg::RelationFunctionality func2(fx.kg2);
  ExeaConfig config;
  Explanation e = fx.MakeExplanation();
  Adg adg = BuildAdg(
      e, func1, func2, [](kg::EntityId, kg::EntityId) { return 1.0; },
      config);
  ASSERT_EQ(adg.neighbors.size(), 1u);
  ASSERT_EQ(adg.neighbors[0].edges.size(), 1u);
  const AdgEdge& edge = adg.neighbors[0].edges[0];
  EXPECT_EQ(edge.influence, EdgeInfluence::kStrong);
  // Eq. (5): min(func1(r1), func2(r2)) = min(1, 1) = 1.
  EXPECT_DOUBLE_EQ(edge.weight, 1.0);
  EXPECT_TRUE(adg.HasStrongEdge());
}

TEST(AdgTest, Figure2WorkedExample) {
  // The paper's Fig. 2: two strongly-influential neighbour nodes with
  // influences 0.960 and 0.937 and edge weights 0.759 and 0.757 give
  // c = sigmoid(0.960*0.759 + 0.937*0.757) = 0.808.
  Adg adg;
  AdgNode a;
  a.influence = 0.960;
  a.edges.push_back({EdgeInfluence::kStrong, 0.759, 0});
  AdgNode b;
  b.influence = 0.937;
  b.edges.push_back({EdgeInfluence::kStrong, 0.757, 1});
  adg.neighbors = {a, b};
  ExeaConfig config;
  RecomputeConfidence(adg, config);
  EXPECT_NEAR(adg.strong_sum, 0.960 * 0.759 + 0.937 * 0.757, 1e-9);
  EXPECT_NEAR(adg.confidence, 0.808, 0.001);
}

TEST(AdgTest, ModerateEdgeAlphaDiscount) {
  AdgFixture fx;
  // Make p2 a two-step path: e2 <- n2 <- m2.
  kg::EntityId m2 = fx.kg2.AddEntity("m2");
  fx.kg2.AddTriple(m2, fx.r2, fx.n2);
  kg::RelationFunctionality func1(fx.kg1);
  kg::RelationFunctionality func2(fx.kg2);
  Explanation e = fx.MakeExplanation();
  e.matches[0].p2.steps.push_back({fx.r2, false, m2});
  ExeaConfig config;
  config.alpha = 0.5;
  Adg adg = BuildAdg(
      e, func1, func2, [](kg::EntityId, kg::EntityId) { return 1.0; },
      config);
  ASSERT_EQ(adg.neighbors[0].edges.size(), 1u);
  const AdgEdge& edge = adg.neighbors[0].edges[0];
  EXPECT_EQ(edge.influence, EdgeInfluence::kModerate);
  double w1 = PathWeight(e.matches[0].p1, func1);
  double w2 = PathWeight(e.matches[0].p2, func2);
  EXPECT_DOUBLE_EQ(edge.weight, 0.5 * std::min(w1, w2));
  EXPECT_FALSE(adg.HasStrongEdge());
}

TEST(AdgTest, WeakEdgeFixedWeight) {
  AdgFixture fx;
  kg::EntityId m1 = fx.kg1.AddEntity("m1");
  fx.kg1.AddTriple(m1, fx.r1, fx.n1);
  kg::EntityId m2 = fx.kg2.AddEntity("m2");
  fx.kg2.AddTriple(m2, fx.r2, fx.n2);
  kg::RelationFunctionality func1(fx.kg1);
  kg::RelationFunctionality func2(fx.kg2);
  Explanation e = fx.MakeExplanation();
  e.matches[0].p1.steps.push_back({fx.r1, false, m1});
  e.matches[0].p2.steps.push_back({fx.r2, false, m2});
  ExeaConfig config;
  config.weak_weight = 0.07;
  Adg adg = BuildAdg(
      e, func1, func2, [](kg::EntityId, kg::EntityId) { return 1.0; },
      config);
  const AdgEdge& edge = adg.neighbors[0].edges[0];
  EXPECT_EQ(edge.influence, EdgeInfluence::kWeak);
  EXPECT_DOUBLE_EQ(edge.weight, 0.07);
}

TEST(AdgTest, AdaptiveConfidenceEquation9) {
  // theta = 1.0: strong sum below theta pulls in moderate edges; gamma
  // gates weak edges similarly.
  ExeaConfig config;
  config.theta = 1.0;
  config.gamma = 0.2;
  Adg adg;
  AdgNode node;
  node.influence = 1.0;
  node.edges.push_back({EdgeInfluence::kStrong, 0.5, 0});
  node.edges.push_back({EdgeInfluence::kModerate, 0.3, 1});
  node.edges.push_back({EdgeInfluence::kWeak, 0.1, 2});
  adg.neighbors = {node};
  RecomputeConfidence(adg, config);
  // c_s = 0.5 < 1.0 -> add c_m = 0.3; c_m >= gamma=0.2 -> skip c_w.
  EXPECT_NEAR(adg.confidence, la::Sigmoid(0.8), 1e-9);

  config.gamma = 0.4;  // now c_m < gamma -> add c_w too
  RecomputeConfidence(adg, config);
  EXPECT_NEAR(adg.confidence, la::Sigmoid(0.9), 1e-9);

  config.theta = 0.4;  // c_s >= theta -> strong only
  RecomputeConfidence(adg, config);
  EXPECT_NEAR(adg.confidence, la::Sigmoid(0.5), 1e-9);
}

TEST(AdgTest, NoEvidenceConfidenceIsHalf) {
  Adg adg;
  ExeaConfig config;
  RecomputeConfidence(adg, config);
  EXPECT_DOUBLE_EQ(adg.confidence, 0.5);
  EXPECT_FALSE(adg.HasStrongEdge());
}

TEST(AdgTest, RemoveNeighborRecomputes) {
  Adg adg;
  AdgNode a;
  a.influence = 1.0;
  a.edges.push_back({EdgeInfluence::kStrong, 1.0, 0});
  AdgNode b;
  b.influence = 1.0;
  b.edges.push_back({EdgeInfluence::kStrong, 2.0, 1});
  adg.neighbors = {a, b};
  ExeaConfig config;
  RecomputeConfidence(adg, config);
  double before = adg.confidence;
  RemoveNeighbor(adg, 1, config);
  EXPECT_EQ(adg.neighbors.size(), 1u);
  EXPECT_LT(adg.confidence, before);
  EXPECT_NEAR(adg.confidence, la::Sigmoid(1.0), 1e-9);
}

TEST(AdgTest, NodesMergeMatchesWithSameTerminals) {
  AdgFixture fx;
  // Add a second relation between the same pair of entities on each side.
  kg::RelationId s1 = fx.kg1.AddRelation("s1");
  fx.kg1.AddTriple(fx.n1, s1, fx.e1);
  kg::RelationId s2 = fx.kg2.AddRelation("s2");
  fx.kg2.AddTriple(fx.n2, s2, fx.e2);
  Explanation e = fx.MakeExplanation();
  MatchedPathPair second;
  second.p1.source = fx.e1;
  second.p1.steps.push_back({s1, false, fx.n1});
  second.p2.source = fx.e2;
  second.p2.steps.push_back({s2, false, fx.n2});
  e.matches.push_back(second);
  kg::RelationFunctionality func1(fx.kg1);
  kg::RelationFunctionality func2(fx.kg2);
  Adg adg = BuildAdg(
      e, func1, func2, [](kg::EntityId, kg::EntityId) { return 1.0; },
      ExeaConfig{});
  ASSERT_EQ(adg.neighbors.size(), 1u);  // merged into one node
  EXPECT_EQ(adg.neighbors[0].edges.size(), 2u);
}

// ------------------------------------------------------------ ExeaExplainer

class ExplainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::EaDataset(
        data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny));
    model_ = emb::MakeDefaultModel(emb::ModelKind::kMTransE).release();
    model_->Train(*dataset_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static data::EaDataset* dataset_;
  static emb::EAModel* model_;
};

data::EaDataset* ExplainerTest::dataset_ = nullptr;
emb::EAModel* ExplainerTest::model_ = nullptr;

TEST_F(ExplainerTest, ExplainsGoldPairsWithSeedContext) {
  ExeaConfig config;
  ExeaExplainer explainer(*dataset_, *model_, config);
  // Context: gold alignment (as if the model were perfect).
  kg::AlignmentSet gold_set;
  for (const auto& [s, t] : dataset_->gold) gold_set.Add(s, t);
  AlignmentContext context(&gold_set, &dataset_->train);
  size_t non_empty = 0;
  for (size_t i = 0; i < 20; ++i) {
    const kg::AlignedPair& pair = dataset_->test[i];
    Explanation e = explainer.Explain(pair.source, pair.target, context);
    EXPECT_EQ(e.e1, pair.source);
    EXPECT_FALSE(e.candidates1.empty());
    if (!e.empty()) ++non_empty;
    // Explanation triples must be candidate triples.
    std::set<kg::Triple> candidates(e.candidates1.begin(),
                                    e.candidates1.end());
    for (const kg::Triple& t : e.triples1) {
      EXPECT_TRUE(candidates.count(t) > 0 || e.matches.empty());
    }
  }
  EXPECT_GE(non_empty, 15u) << "gold pairs should usually be explainable";
}

TEST_F(ExplainerTest, GoldPairsBeatMismatchedPairsOnConfidence) {
  ExeaConfig config;
  ExeaExplainer explainer(*dataset_, *model_, config);
  kg::AlignmentSet gold_set;
  for (const auto& [s, t] : dataset_->gold) gold_set.Add(s, t);
  AlignmentContext context(&gold_set, &dataset_->train);
  double gold_sum = 0.0;
  double wrong_sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i + 1 < 30; i += 2) {
    const kg::AlignedPair& a = dataset_->test[i];
    const kg::AlignedPair& b = dataset_->test[i + 1];
    gold_sum += explainer.Confidence(a.source, a.target, context);
    wrong_sum += explainer.Confidence(a.source, b.target, context);
    ++count;
  }
  EXPECT_GT(gold_sum / count, wrong_sum / count);
}

TEST_F(ExplainerTest, HopsControlCandidateScope) {
  ExeaConfig one_hop;
  one_hop.hops = 1;
  ExeaConfig two_hop;
  two_hop.hops = 2;
  ExeaExplainer explainer1(*dataset_, *model_, one_hop);
  ExeaExplainer explainer2(*dataset_, *model_, two_hop);
  kg::AlignmentSet empty;
  AlignmentContext context(&empty, &dataset_->train);
  const kg::AlignedPair& pair = dataset_->test[0];
  Explanation e1 = explainer1.Explain(pair.source, pair.target, context);
  Explanation e2 = explainer2.Explain(pair.source, pair.target, context);
  EXPECT_GT(e2.candidates1.size(), e1.candidates1.size());
}

TEST_F(ExplainerTest, RelationEmbeddingFallbackForGcn) {
  // GCN-Align has no relation embeddings; the explainer must synthesize
  // Eq. (1) embeddings with matching dimensionality.
  std::unique_ptr<emb::EAModel> gcn =
      emb::MakeDefaultModel(emb::ModelKind::kGcnAlign);
  gcn->Train(*dataset_);
  ExeaExplainer explainer(*dataset_, *gcn, ExeaConfig{});
  EXPECT_EQ(explainer.relation_embeddings1().rows(),
            dataset_->kg1.num_relations());
  EXPECT_EQ(explainer.relation_embeddings1().cols(),
            gcn->EntityEmbeddings(kg::KgSide::kSource).cols());
}

// One explainer shared by concurrent callers, as the serving workers share
// it: cold pairs fill the path memo from several threads at once, and every
// answer must equal the serial one. ci/check.sh runs this under TSAN.
TEST_F(ExplainerTest, ConcurrentColdExplainsMatchSerial) {
  kg::AlignmentSet gold_set;
  for (const auto& [s, t] : dataset_->gold) gold_set.Add(s, t);
  AlignmentContext context(&gold_set, &dataset_->train);
  constexpr size_t kThreads = 4;
  constexpr size_t kPairs = 40;
  ASSERT_GE(dataset_->test.size(), kPairs);

  struct Answer {
    std::vector<kg::Triple> triples1;
    std::vector<kg::Triple> triples2;
    double confidence = 0.0;
  };
  auto explain = [&](const ExeaExplainer& explainer, size_t i) {
    const kg::AlignedPair& pair = dataset_->test[i];
    Explanation e = explainer.Explain(pair.source, pair.target, context);
    return Answer{e.triples1, e.triples2, explainer.BuildAdg(e).confidence};
  };

  ExeaExplainer serial(*dataset_, *model_, ExeaConfig{});
  std::vector<Answer> expected;
  for (size_t i = 0; i < kPairs; ++i) expected.push_back(explain(serial, i));

  ExeaExplainer shared(*dataset_, *model_, ExeaConfig{});
  std::vector<Answer> answers(kPairs);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < kPairs; i += kThreads) {
        answers[i] = explain(shared, i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(answers[i].triples1, expected[i].triples1) << "pair " << i;
    EXPECT_EQ(answers[i].triples2, expected[i].triples2) << "pair " << i;
    EXPECT_EQ(answers[i].confidence, expected[i].confidence) << "pair " << i;
  }
}

TEST(ExeaConfigTest, BetaIsSigmoidTheta) {
  ExeaConfig config;
  config.theta = 0.0;
  EXPECT_DOUBLE_EQ(config.LowConfidenceBeta(), 0.5);
  config.theta = 1.0;
  EXPECT_NEAR(config.LowConfidenceBeta(), la::Sigmoid(1.0), 1e-12);
}

}  // namespace
}  // namespace exea::explain
