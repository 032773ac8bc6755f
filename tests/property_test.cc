// Property-style sweeps across all five dataset profiles: every invariant
// here must hold for ANY generated multiplex heterogeneous graph, not just
// the hand-built fixtures.

#include <gtest/gtest.h>

#include <set>

#include "data/profiles.h"
#include "data/split.h"
#include "graph/stats.h"
#include "sampling/corpus.h"
#include "sampling/exploration.h"
#include "sampling/negative_sampler.h"
#include "sampling/walker.h"

namespace hybridgnn {
namespace {

class ProfilePropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    auto ds = MakeDataset(GetParam(), 0.12, 1234);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = std::move(ds).value();
  }
  Dataset dataset_;
};

TEST_P(ProfilePropertyTest, AdjacencyIsSymmetricAndSorted) {
  const auto& g = dataset_.graph;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      auto nbrs = g.Neighbors(v, r);
      for (size_t i = 0; i + 1 < nbrs.size(); ++i) {
        ASSERT_LE(nbrs[i], nbrs[i + 1]);
      }
      for (NodeId u : nbrs) {
        ASSERT_TRUE(g.HasEdge(u, v, r)) << "asymmetric adjacency";
      }
    }
  }
}

TEST_P(ProfilePropertyTest, DegreeSumsMatchEdgeCounts) {
  const auto& g = dataset_.graph;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    size_t degree_sum = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.Degree(v, r);
    EXPECT_EQ(degree_sum, 2 * g.EdgesOfRelation(r).size());
  }
}

TEST_P(ProfilePropertyTest, ActiveRelationsConsistentWithDegrees) {
  const auto& g = dataset_.graph;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::set<RelationId> active(g.ActiveRelations(v).begin(),
                                g.ActiveRelations(v).end());
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      EXPECT_EQ(active.count(r) > 0, g.Degree(v, r) > 0);
    }
  }
}

TEST_P(ProfilePropertyTest, ExplorationProbabilitiesSumToOne) {
  const auto& g = dataset_.graph;
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId v = static_cast<NodeId>(rng.UniformUint64(g.num_nodes()));
    if (g.TotalDegree(v) == 0) continue;
    double total = 0.0;
    // Sum closed-form transition probabilities over the union neighborhood.
    std::set<NodeId> candidates;
    for (RelationId r : g.ActiveRelations(v)) {
      auto nbrs = g.Neighbors(v, r);
      candidates.insert(nbrs.begin(), nbrs.end());
    }
    for (NodeId u : candidates) {
      total += ExplorationTransitionProbability(g, v, u);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_P(ProfilePropertyTest, MetapathWalksRespectSchemes) {
  const auto& g = dataset_.graph;
  Rng rng(7);
  for (const auto& scheme : dataset_.schemes) {
    const auto& starts = g.NodesOfType(scheme.source_type());
    ASSERT_FALSE(starts.empty());
    for (int trial = 0; trial < 10; ++trial) {
      NodeId start = starts[rng.UniformUint64(starts.size())];
      auto walk = MetapathWalk(g, scheme, start, 6, rng);
      const auto& types = scheme.node_types();
      const size_t cycle = types.size() - 1;
      for (size_t k = 0; k < walk.size(); ++k) {
        const NodeTypeId want = types[k % cycle == 0 && k > 0 ? cycle
                                                              : k % cycle];
        // Position-0 type is the source; afterwards the cycle repeats.
        if (k == 0) {
          EXPECT_EQ(g.node_type(walk[k]), scheme.source_type());
        } else {
          EXPECT_EQ(g.node_type(walk[k]), want) << "walk pos " << k;
        }
        if (k > 0) {
          EXPECT_TRUE(g.HasEdge(walk[k - 1], walk[k], scheme.relation()));
        }
      }
    }
  }
}

TEST_P(ProfilePropertyTest, SplitPartitionsAreDisjointAndComplete) {
  const auto& g = dataset_.graph;
  Rng rng(9);
  auto split = SplitEdges(g, SplitOptions{}, rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  auto key = [](const EdgeTriple& e) {
    return (static_cast<uint64_t>(e.rel) << 48) |
           (static_cast<uint64_t>(e.src) << 24) | e.dst;
  };
  std::set<uint64_t> seen;
  size_t total = 0;
  for (const auto* part :
       {&split->train_edges, &split->val_pos, &split->test_pos}) {
    for (const auto& e : *part) {
      EXPECT_TRUE(seen.insert(key(e)).second) << "edge in two partitions";
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST_P(ProfilePropertyTest, HardNegativesAreNeverPositives) {
  const auto& g = dataset_.graph;
  Rng rng(11);
  SplitOptions options;
  options.hard_negative_fraction = 1.0;  // force the hard path
  auto split = SplitEdges(g, options, rng);
  ASSERT_TRUE(split.ok());
  for (const auto& e : split->test_neg) {
    EXPECT_FALSE(g.HasEdge(e.src, e.dst, e.rel));
  }
}

TEST_P(ProfilePropertyTest, RelationAwareNegativesRespectTypeAndNonEdge) {
  const auto& g = dataset_.graph;
  NegativeSampler sampler(g);
  Rng rng(13);
  const auto& edges = g.edges();
  for (int trial = 0; trial < 200; ++trial) {
    const auto& e = edges[rng.UniformUint64(edges.size())];
    NodeId x = sampler.SampleRelationAware(e.src, e.dst, e.rel, 1.0, rng);
    // The draw is either a cross-relation hard negative (guaranteed to be a
    // non-edge under rel) or a unigram fallback; in both cases the type
    // matches the context node and the center itself is never returned.
    EXPECT_EQ(g.node_type(x), g.node_type(e.dst));
    EXPECT_NE(x, e.src);
  }
}

TEST_P(ProfilePropertyTest, CorpusPairsReferenceRealNodes) {
  const auto& g = dataset_.graph;
  Rng rng(15);
  CorpusOptions options;
  options.num_walks_per_node = 1;
  options.walk_length = 4;
  options.window = 2;
  const PairStream stream =
      PairStream::Uniform(g, options, /*edge_copies=*/2);
  PairStream::Reader reader(stream, stream.pairs_per_pass(),
                            stream.walks_per_pass(), rng);
  SkipGramPair p;
  size_t drawn = 0;
  while (reader.Next(&p)) {
    ++drawn;
    ASSERT_LT(p.center, g.num_nodes());
    ASSERT_LT(p.context, g.num_nodes());
    // Walk pairs are relation-blind; edge pairs carry their edge's
    // relation and are real edges. Walks may revisit nodes (cycles), so
    // center == context is legal for walk pairs.
    if (p.rel == kInvalidRelation) continue;
    ASSERT_LT(p.rel, g.num_relations());
    ASSERT_TRUE(g.HasEdge(p.center, p.context, p.rel));
  }
  EXPECT_GT(drawn, 0u);
}

TEST_P(ProfilePropertyTest, StatsAreInternallyConsistent) {
  const auto& g = dataset_.graph;
  GraphStats s = ComputeStats(g);
  size_t type_total = 0;
  for (size_t n : s.nodes_per_type) type_total += n;
  EXPECT_EQ(type_total, s.num_nodes);
  size_t rel_total = 0;
  for (size_t n : s.edges_per_relation) rel_total += n;
  EXPECT_EQ(rel_total, s.num_edges);
  EXPECT_GE(s.multiplex_pair_fraction, 0.0);
  EXPECT_LE(s.multiplex_pair_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfilePropertyTest,
                         ::testing::Values("amazon", "youtube", "imdb",
                                           "taobao", "kuaishou"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace hybridgnn
