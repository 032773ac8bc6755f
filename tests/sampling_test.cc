#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "sampling/alias.h"
#include "sampling/corpus.h"
#include "sampling/exploration.h"
#include "sampling/negative_sampler.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sgns.h"
#include "sampling/walker.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace hybridgnn {

/// Test-only peer (befriended by MultiplexHeteroGraph): desyncs the CSR
/// adjacency from the active-relation table, a state Build() never produces
/// but filtered or partially loaded graphs can.
struct GraphTestPeer {
  static void ClearRelationAdjacency(MultiplexHeteroGraph& g, RelationId r) {
    g.adjacency_[r].clear();
    std::fill(g.offsets_[r].begin(), g.offsets_[r].end(), 0);
    // active_rels_ is deliberately left stale.
  }
};

namespace {

using testing::SmallBipartite;
using testing::UiuScheme;

// ---------- AliasTable ----------

TEST(AliasTableTest, MatchesWeights) {
  Rng rng(1);
  AliasTable table({1.0, 3.0, 6.0});
  constexpr int kDraws = 60000;
  std::map<size_t, int> counts;
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.6, 0.02);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Rng rng(2);
  AliasTable table({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(rng), 1u);
}

TEST(AliasTableTest, SingleElement) {
  Rng rng(3);
  AliasTable table({2.5});
  EXPECT_EQ(table.Sample(rng), 0u);
  EXPECT_EQ(table.size(), 1u);
}

// ---------- NegativeSampler ----------

TEST(NegativeSamplerTest, SampleOfTypeReturnsCorrectType) {
  MultiplexHeteroGraph g = SmallBipartite();
  NegativeSampler sampler(g);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(g.node_type(sampler.SampleOfType(0, rng)), 0);
    EXPECT_EQ(g.node_type(sampler.SampleOfType(1, rng)), 1);
  }
}

TEST(NegativeSamplerTest, SampleLikeMatchesTypeAndAvoidsSelf) {
  MultiplexHeteroGraph g = SmallBipartite();
  NegativeSampler sampler(g);
  Rng rng(5);
  int self_hits = 0;
  for (int i = 0; i < 300; ++i) {
    NodeId v = sampler.SampleLike(4, rng);
    EXPECT_EQ(g.node_type(v), g.node_type(4));
    if (v == 4) ++self_hits;
  }
  EXPECT_LT(self_hits, 10);
}

TEST(NegativeSamplerTest, HigherDegreeSampledMoreOften) {
  MultiplexHeteroGraph g = SmallBipartite();
  NegativeSampler sampler(g);
  Rng rng(6);
  std::map<NodeId, int> counts;
  for (int i = 0; i < 30000; ++i) ++counts[sampler.SampleOfType(1, rng)];
  // i4 has degree 4, i6 has degree 2: expect strictly more draws.
  EXPECT_GT(counts[4], counts[6]);
}

// ---------- Walks ----------

TEST(WalkerTest, RelationWalkStaysInRelation) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(7);
  RelationId buy = g.FindRelation("buy");
  for (int i = 0; i < 50; ++i) {
    auto walk = RelationWalk(g, buy, 0, 6, rng);
    ASSERT_GE(walk.size(), 1u);
    EXPECT_EQ(walk[0], 0u);
    for (size_t k = 0; k + 1 < walk.size(); ++k) {
      EXPECT_TRUE(g.HasEdge(walk[k], walk[k + 1], buy));
    }
  }
}

TEST(WalkerTest, RelationWalkStopsAtIsolatedNode) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(8);
  RelationId buy = g.FindRelation("buy");
  // u3 has no buy edges.
  auto walk = RelationWalk(g, buy, 3, 5, rng);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(WalkerTest, UniformWalkUsesAnyRelation) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(9);
  auto walk = UniformWalk(g, 0, 10, rng);
  EXPECT_GE(walk.size(), 2u);
  for (size_t k = 0; k + 1 < walk.size(); ++k) {
    bool connected = false;
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      connected |= g.HasEdge(walk[k], walk[k + 1], r);
    }
    EXPECT_TRUE(connected);
  }
}

TEST(WalkerTest, MetapathWalkAlternatesTypes) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(10);
  MetapathScheme scheme = UiuScheme(g, g.FindRelation("view"));
  for (int i = 0; i < 30; ++i) {
    auto walk = MetapathWalk(g, scheme, 0, 8, rng);
    for (size_t k = 0; k < walk.size(); ++k) {
      // U-I-U cycle: even positions user, odd positions item.
      EXPECT_EQ(g.node_type(walk[k]), k % 2 == 0 ? 0 : 1);
    }
  }
}

TEST(WalkerTest, MetapathWalkRespectsRelation) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(11);
  RelationId buy = g.FindRelation("buy");
  MetapathScheme scheme = UiuScheme(g, buy);
  auto walk = MetapathWalk(g, scheme, 3, 6, rng);
  EXPECT_EQ(walk.size(), 1u);  // u3 has no buy edges
}

TEST(WalkerTest, Node2VecWalkConnected) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(12);
  for (int i = 0; i < 20; ++i) {
    auto walk = Node2VecWalk(g, 0, 8, 0.5, 2.0, rng);
    for (size_t k = 0; k + 1 < walk.size(); ++k) {
      bool connected = false;
      for (RelationId r = 0; r < g.num_relations(); ++r) {
        connected |= g.HasEdge(walk[k], walk[k + 1], r);
      }
      EXPECT_TRUE(connected);
    }
  }
}

TEST(WalkerTest, MetapathGuidedNeighborsLevelsTyped) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(13);
  MetapathScheme scheme = UiuScheme(g, g.FindRelation("view"));
  auto levels = MetapathGuidedNeighbors(g, scheme, 0, 10, rng);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<NodeId>{0}));
  for (NodeId v : levels[1]) EXPECT_EQ(g.node_type(v), 1);  // items
  for (NodeId v : levels[2]) EXPECT_EQ(g.node_type(v), 0);  // users
  EXPECT_FALSE(levels[1].empty());
}

// ---------- Randomized inter-relationship exploration ----------

TEST(ExplorationTest, StepReturnsNeighborUnderSomeRelation) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    NodeId next = ExplorationStep(g, 0, rng);
    ASSERT_NE(next, kInvalidNode);
    bool connected = false;
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      connected |= g.HasEdge(0, next, r);
    }
    EXPECT_TRUE(connected);
  }
}

TEST(ExplorationTest, IsolatedNodeReturnsInvalid) {
  GraphBuilder b;
  NodeTypeId t = b.AddNodeType("n").value();
  RelationId r = b.AddRelation("r").value();
  EXPECT_TRUE(b.AddNodes(t, 3).ok());
  EXPECT_TRUE(b.AddEdge(0, 1, r).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(15);
  EXPECT_EQ(ExplorationStep(*g, 2, rng), kInvalidNode);
  auto walk = ExplorationWalk(*g, 2, 5, rng);
  EXPECT_EQ(walk.size(), 1u);
}

// Regression: when the active-relation table still lists a relation whose
// adjacency is empty, phase 2 used to call Rng::UniformUint64(0) and
// CHECK-abort the process. The step must fail soft with kInvalidNode.
TEST(ExplorationTest, StaleActiveRelationReturnsInvalidInsteadOfAborting) {
  MultiplexHeteroGraph g = SmallBipartite();
  const RelationId buy = g.FindRelation("buy");
  GraphTestPeer::ClearRelationAdjacency(g, buy);
  ASSERT_TRUE(g.Neighbors(0, buy).empty());
  // u0's active table still lists buy, so phase 1 keeps proposing it.
  bool active_lists_buy = false;
  for (RelationId r : g.ActiveRelations(0)) active_lists_buy |= (r == buy);
  ASSERT_TRUE(active_lists_buy) << "fixture must present the stale state";

  Rng rng(27);
  int invalid = 0;
  for (int i = 0; i < 200; ++i) {
    NodeId next = ExplorationStep(g, 0, rng);
    if (next == kInvalidNode) {
      ++invalid;
    } else {
      // Any real step must use a relation that still has edges.
      EXPECT_TRUE(g.HasEdge(0, next, g.FindRelation("view")));
    }
  }
  EXPECT_GT(invalid, 0) << "empty-neighborhood branch never exercised";
  // Walks terminate cleanly instead of crashing mid-walk.
  auto walk = ExplorationWalk(g, 0, 10, rng);
  EXPECT_GE(walk.size(), 1u);
  EXPECT_LE(walk.size(), 11u);
}

TEST(ExplorationTest, WalkLengthBounded) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(16);
  auto walk = ExplorationWalk(g, 0, 4, rng);
  EXPECT_GE(walk.size(), 2u);
  EXPECT_LE(walk.size(), 5u);
  EXPECT_EQ(walk[0], 0u);
}

// Property test: the empirical two-phase transition frequencies must match
// the closed-form probability of Eqs. 1-2.
TEST(ExplorationTest, EmpiricalMatchesClosedFormProbability) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(17);
  constexpr int kDraws = 200000;
  std::map<NodeId, int> counts;
  for (int i = 0; i < kDraws; ++i) ++counts[ExplorationStep(g, 0, rng)];
  double total_p = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double p = ExplorationTransitionProbability(g, 0, u);
    total_p += p;
    const double freq = counts.count(u)
                            ? counts[u] / static_cast<double>(kDraws)
                            : 0.0;
    EXPECT_NEAR(freq, p, 0.01) << "node " << u;
  }
  EXPECT_NEAR(total_p, 1.0, 1e-9);
}

TEST(ExplorationTest, NeighborsLevelsRespectDepthAndFanout) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(18);
  auto levels = ExplorationNeighbors(g, 0, 3, 5, rng);
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0], (std::vector<NodeId>{0}));
  for (size_t k = 1; k < levels.size(); ++k) {
    EXPECT_LE(levels[k].size(), 5u);
  }
  EXPECT_FALSE(levels[1].empty());
}

// Exploration must be able to cross relations: starting from u0 (which has
// both view and buy edges), multi-step walks should reach i5 (view-only
// neighbor) AND stay able to traverse buy-only paths.
TEST(ExplorationTest, CrossesRelationSubgraphs) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(19);
  std::set<NodeId> visited;
  for (int i = 0; i < 500; ++i) {
    auto walk = ExplorationWalk(g, 3, 4, rng);  // u3: only view edges
    visited.insert(walk.begin(), walk.end());
  }
  // From u3 via i5 (view) to u0, then over u0's buy edge to i4.
  EXPECT_TRUE(visited.count(4) > 0);
}

// ---------- Corpus ----------

TEST(CorpusTest, HarvestPairsWindow) {
  std::vector<NodeId> walk = {1, 2, 3, 4};
  std::vector<SkipGramPair> pairs;
  HarvestPairs(walk, 1, 0, pairs);
  // Each interior node pairs with 2 neighbors, ends with 1: 2+2+1+1 = 6.
  EXPECT_EQ(pairs.size(), 6u);
  for (const auto& p : pairs) {
    EXPECT_NE(p.center, p.context);
    EXPECT_EQ(p.rel, 0);
  }
}

CorpusOptions TinyCorpus() {
  CorpusOptions options;
  options.num_walks_per_node = 3;
  options.walk_length = 4;
  options.window = 2;
  return options;
}

std::vector<SkipGramPair> DrawPass(const PairStream& stream, Rng& rng) {
  std::vector<SkipGramPair> pairs;
  PairStream::Reader reader(stream, stream.pairs_per_pass(),
                            stream.walks_per_pass(), rng);
  SkipGramPair p;
  while (reader.Next(&p)) pairs.push_back(p);
  return pairs;
}

TEST(PairStreamTest, PassMatchesMaterializedCorpusSize) {
  MultiplexHeteroGraph g = SmallBipartite();
  const PairStream stream = PairStream::Uniform(g, TinyCorpus(), 2);
  // Every node has an edge, and a 4-step walk has 2+3+4+3+2 window pairs.
  EXPECT_EQ(stream.walks_per_pass(), 3 * g.num_nodes());
  const size_t walk_pairs = stream.walks_per_pass() * 14;
  const size_t edge_pairs = 2 * 2 * g.num_edges();
  EXPECT_EQ(stream.pairs_per_pass(), walk_pairs + edge_pairs);
  EXPECT_DOUBLE_EQ(stream.edge_share(),
                   static_cast<double>(edge_pairs) /
                       static_cast<double>(walk_pairs + edge_pairs));
  // Without edges, the walk cap ends the pass after exactly the walks'
  // pairs: uniform walks from non-isolated nodes never end early.
  const PairStream bare = PairStream::Uniform(g, TinyCorpus(), 0);
  EXPECT_EQ(bare.edge_share(), 0.0);
  Rng rng(21);
  PairStream::Reader reader(bare, SIZE_MAX, bare.walks_per_pass(), rng);
  SkipGramPair p;
  size_t drawn = 0;
  while (reader.Next(&p)) {
    EXPECT_EQ(p.rel, kInvalidRelation);
    ++drawn;
  }
  EXPECT_EQ(drawn, walk_pairs);
}

TEST(PairStreamTest, EdgePairsAreGraphEdges) {
  MultiplexHeteroGraph g = SmallBipartite();
  const PairStream stream = PairStream::Uniform(g, TinyCorpus(), 2);
  Rng rng(22);
  size_t edges = 0;
  for (const SkipGramPair& p : DrawPass(stream, rng)) {
    ASSERT_LT(p.center, g.num_nodes());
    ASSERT_LT(p.context, g.num_nodes());
    if (p.rel == kInvalidRelation) continue;
    EXPECT_TRUE(g.HasEdge(p.center, p.context, p.rel));
    ++edges;
  }
  EXPECT_GT(edges, 0u);
}

TEST(PairStreamTest, EdgeOnlyStreamWithoutWalkPairs) {
  MultiplexHeteroGraph g = SmallBipartite();
  CorpusOptions no_window = TinyCorpus();
  no_window.window = 0;
  CorpusOptions no_walks = TinyCorpus();  // also a zero walk cap
  no_walks.num_walks_per_node = 0;
  for (const CorpusOptions& options : {no_window, no_walks}) {
    const PairStream stream = PairStream::Uniform(g, options, 2);
    EXPECT_EQ(stream.pairs_per_pass(), 2 * 2 * g.num_edges());
    EXPECT_EQ(stream.edge_share(), 1.0);
    Rng rng(25);
    const std::vector<SkipGramPair> pairs = DrawPass(stream, rng);
    EXPECT_EQ(pairs.size(), stream.pairs_per_pass());
    for (const SkipGramPair& p : pairs) {
      EXPECT_TRUE(g.HasEdge(p.center, p.context, p.rel));
    }
    // Without edge copies either, the stream is empty.
    EXPECT_EQ(PairStream::Uniform(g, options, 0).pairs_per_pass(), 0u);
  }
}

TEST(PairStreamTest, SameSeedSameStream) {
  MultiplexHeteroGraph g = SmallBipartite();
  const PairStream stream = PairStream::Node2Vec(g, TinyCorpus(), 0.5, 2.0);
  auto draw = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const SkipGramPair& p : DrawPass(stream, rng)) {
      out.emplace_back(p.center, p.context);
    }
    return out;
  };
  const auto a = draw(23);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, draw(23));
  EXPECT_NE(a, draw(24));
}

TEST(PairStreamTest, EdgelessGraphYieldsNothing) {
  GraphBuilder b;
  const NodeTypeId t = b.AddNodeType("node").value();
  ASSERT_TRUE(b.AddRelation("rel").ok());
  ASSERT_TRUE(b.AddNodes(t, 4).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const PairStream stream = PairStream::Uniform(*g, TinyCorpus(), 2);
  EXPECT_EQ(stream.walks_per_pass(), 0u);
  EXPECT_EQ(stream.pairs_per_pass(), 0u);
  Rng rng(24);
  EXPECT_TRUE(DrawPass(stream, rng).empty());
  NegativeSampler sampler(*g);
  SgnsEmbedder emb(g->num_nodes(), 4, rng);
  const Status st = emb.Train(stream, sampler, SgnsOptions{}, rng);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
}

TEST(SgnsTest, HogwildTrainProducesFiniteEmbeddings) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(26);
  CorpusOptions options;
  options.num_walks_per_node = 4;
  options.walk_length = 5;
  options.window = 2;
  NegativeSampler sampler(g);
  SgnsOptions so;
  so.dim = 8;
  so.epochs = 3;
  so.num_threads = 4;
  SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
  ASSERT_TRUE(
      emb.Train(PairStream::Uniform(g, options, 2), sampler, so, rng).ok());
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    for (size_t j = 0; j < so.dim; ++j) {
      EXPECT_TRUE(std::isfinite(emb.embeddings().At(v, j)));
      EXPECT_TRUE(std::isfinite(emb.contexts().At(v, j)));
    }
  }
}

// SgnsEmbedder::Train before it sampled each chunk ahead of training it:
// one serial epoch loop drawing and training a pair at a time.
void PairAtATimeTrain(const PairStream& stream, const NegativeSampler& sampler,
                      const SgnsOptions& opts, Rng& rng, Tensor& emb,
                      Tensor& ctx) {
  const size_t use =
      opts.max_pairs_per_epoch == 0
          ? stream.pairs_per_pass()
          : std::min(stream.pairs_per_pass(), opts.max_pairs_per_epoch);
  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    PairStream::Reader reader(stream, use, stream.walks_per_pass(), rng);
    std::vector<float*> rows(1 + opts.negatives);
    SkipGramPair p;
    for (size_t i = 0; reader.Next(&p); ++i) {
      const float lr = opts.learning_rate *
                       (1.0f - 0.9f * static_cast<float>(i) /
                                   static_cast<float>(use));
      SgnsPairUpdate(emb.RowPtr(p.center), ctx, p.context, sampler, rows, lr,
                     rng);
    }
  }
}

// Sampling a chunk before training it changes neither the draws nor the
// updates: an uncapped pass longer than one chunk gives the pair-at-a-time
// loop's tables and leaves the Rng where that loop leaves it.
TEST(SgnsTest, ChunkedTrainMatchesPairAtATimeLoop) {
  MultiplexHeteroGraph g = SmallBipartite();
  CorpusOptions corpus;
  corpus.num_walks_per_node = 500;  // 280,032 pairs a pass
  const PairStream stream = PairStream::Uniform(g, corpus, 2);
  ASSERT_GT(stream.pairs_per_pass(), SgnsEmbedder::kChunkPairs);
  NegativeSampler sampler(g);
  SgnsOptions so;
  so.dim = 12;
  so.epochs = 2;
  so.max_pairs_per_epoch = 0;
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (kernels::Backend backend : backends) {
    SCOPED_TRACE(kernels::BackendName(backend));
    kernels::ScopedBackend scoped(backend);
    Rng rng(29);
    SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
    Tensor ref_emb = emb.embeddings();
    Tensor ref_ctx = emb.contexts();
    Rng ref_rng = rng;
    ASSERT_TRUE(emb.Train(stream, sampler, so, rng).ok());
    PairAtATimeTrain(stream, sampler, so, ref_rng, ref_emb, ref_ctx);
    EXPECT_EQ(std::memcmp(emb.embeddings().data(), ref_emb.data(),
                          ref_emb.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(emb.contexts().data(), ref_ctx.data(),
                          ref_ctx.size() * sizeof(float)),
              0);
    EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64());
  }
}

// Each Hogwild worker fills its own buffer; together they train exactly
// the capped epoch.
TEST(SgnsTest, HogwildTrainsEveryPairOfTheEpoch) {
  MultiplexHeteroGraph g = SmallBipartite();
  CorpusOptions corpus;
  corpus.num_walks_per_node = 40;
  const PairStream stream = PairStream::Uniform(g, corpus, 2);
  NegativeSampler sampler(g);
  SgnsOptions so;
  so.dim = 8;
  so.epochs = 3;
  so.num_threads = 4;
  so.max_pairs_per_epoch = stream.pairs_per_pass() / 2 + 1;
  obs::Counter& trained =
      obs::GlobalRegistry().GetCounter("core/sgns_pairs_trained");
  const uint64_t before = trained.value();
  Rng rng(30);
  SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
  ASSERT_TRUE(emb.Train(stream, sampler, so, rng).ok());
  EXPECT_EQ(trained.value() - before, so.epochs * so.max_pairs_per_epoch);
  EXPECT_TRUE(AllFinite(emb.embeddings()));
  EXPECT_TRUE(AllFinite(emb.contexts()));
}

TEST(SgnsTest, RejectsBadLearningRate) {
  MultiplexHeteroGraph g = SmallBipartite();
  const PairStream stream = PairStream::Uniform(g, TinyCorpus(), 2);
  NegativeSampler sampler(g);
  for (float lr : {0.0f, -0.1f, std::nanf(""), INFINITY}) {
    Rng rng(27);
    SgnsOptions so;
    so.dim = 4;
    so.learning_rate = lr;
    SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
    const Status st = emb.Train(stream, sampler, so, rng);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << lr;
  }
}

TEST(SgnsTest, NonFiniteTablesFailNamingTheEpoch) {
  MultiplexHeteroGraph g = SmallBipartite();
  const PairStream stream = PairStream::Uniform(g, TinyCorpus(), 2);
  NegativeSampler sampler(g);
  Rng rng(28);
  SgnsOptions so;
  so.dim = 4;
  so.learning_rate = 1e30f;
  SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  const uint64_t before = nonfinite.value();
  const Status st = emb.Train(stream, sampler, so, rng);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.message().find("epoch 0"), std::string::npos) << st.message();
  EXPECT_EQ(nonfinite.value(), before + 1);
}

// ---------- Layered sampler ----------

TEST(NeighborSamplerTest, SampleLayersShapes) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(23);
  auto levels = SampleLayers(g, 0, 2, 4, rng);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<NodeId>{0}));
  EXPECT_LE(levels[1].size(), 4u);
  EXPECT_FALSE(levels[1].empty());
}

TEST(NeighborSamplerTest, PerRelationNeighborsRespectRelation) {
  MultiplexHeteroGraph g = SmallBipartite();
  Rng rng(24);
  auto per_rel = SamplePerRelationNeighbors(g, 3, 4, rng);
  ASSERT_EQ(per_rel.size(), 2u);
  EXPECT_FALSE(per_rel[g.FindRelation("view")].empty());
  EXPECT_TRUE(per_rel[g.FindRelation("buy")].empty());
  for (NodeId u : per_rel[g.FindRelation("view")]) {
    EXPECT_TRUE(g.HasEdge(3, u, g.FindRelation("view")));
  }
}

}  // namespace
}  // namespace hybridgnn
