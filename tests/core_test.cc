#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/hybrid_gnn.h"
#include "data/profiles.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/metapath.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

using testing::SmallBipartite;

HybridGnnConfig TinyConfig() {
  HybridGnnConfig c;
  c.base_dim = 16;
  c.edge_dim = 4;
  c.hidden_dim = 8;
  c.epochs = 2;
  c.batch_size = 64;
  c.max_pairs_per_epoch = 500;
  c.corpus.num_walks_per_node = 3;
  c.corpus.walk_length = 4;
  c.corpus.window = 2;
  c.fanout = 3;
  c.seed = 123;
  return c;
}

std::vector<MetapathScheme> SmallSchemes(const MultiplexHeteroGraph& g) {
  std::vector<MetapathScheme> schemes;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    schemes.push_back(MetapathScheme::ParseIntra(g, "U-I-U", r).value());
    schemes.push_back(MetapathScheme::ParseIntra(g, "I-U-I", r).value());
  }
  return schemes;
}

TEST(HybridGnnConfigTest, ValidateCatchesBadSettings) {
  HybridGnnConfig c = TinyConfig();
  EXPECT_TRUE(c.Validate().ok());
  c.base_dim = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = TinyConfig();
  c.num_negatives = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = TinyConfig();
  c.exploration_depth = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.use_randomized_exploration = false;
  EXPECT_TRUE(c.Validate().ok());
  c = TinyConfig();
  c.corpus.walk_length = 1;
  EXPECT_FALSE(c.Validate().ok());
  c = TinyConfig();
  c.local_scale = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(c.Validate().ok());
}

TEST(HybridGnnConfigTest, ValidateRejectsBadLearningRate) {
  for (float lr : {std::nanf(""), std::numeric_limits<float>::infinity(),
                   0.0f, -1e-2f}) {
    HybridGnnConfig c = TinyConfig();
    c.learning_rate = lr;
    const Status s = c.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "lr " << lr;
  }
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnnConfig c = TinyConfig();
  c.learning_rate = std::nanf("");
  HybridGnn model(c, SmallSchemes(g));
  EXPECT_EQ(model.Fit(g).code(), StatusCode::kInvalidArgument);
}

// A diverging run must stop with a clean error, not hand back a garbage
// model: at learning rate 1e30 the first Adam step blows the parameters up
// and the next minibatch's loss is no longer finite.
TEST(HybridGnnTest, NonFiniteLossFailsFitCleanly) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnnConfig c = TinyConfig();
  c.learning_rate = 1e30f;
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  const uint64_t before = nonfinite.value();
  HybridGnn model(c, SmallSchemes(g));
  const Status s = model.Fit(g);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("non-finite training loss"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("epoch "), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("batch "), std::string::npos) << s.ToString();
  EXPECT_EQ(nonfinite.value(), before + 1);
}

// With a single minibatch no later loss sees what the last Adam step did:
// the per-epoch parameter check must stop the run before validation and
// the cache read the blown-up tables. W_r starts at zero, so the batch's
// loss is finite, but a 1e15 local scale makes its W_r gradient about
// 1e13 and the 1e30 step overflows to inf.
TEST(HybridGnnTest, NonFiniteParametersFailFitCleanly) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnnConfig c = TinyConfig();
  c.learning_rate = 1e30f;
  c.local_scale = 1e15f;
  c.epochs = 1;
  c.batch_size = 32;
  c.max_pairs_per_epoch = 16;  // one minibatch
  c.restore_best = false;
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  const uint64_t before = nonfinite.value();
  HybridGnn model(c, SmallSchemes(g));
  const Status s = model.Fit(g);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("HybridGNN: non-finite parameters after epoch 0"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(nonfinite.value(), before + 1);
}

TEST(HybridGnnTest, FitProducesEmbeddingsOfRightShape) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnn model(TinyConfig(), SmallSchemes(g));
  ASSERT_TRUE(model.Fit(g).ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      Tensor e = model.Embedding(v, r);
      EXPECT_EQ(e.rows(), 1u);
      EXPECT_EQ(e.cols(), 16u);
      EXPECT_TRUE(std::isfinite(e.Sum()));
    }
  }
}

TEST(HybridGnnTest, EmbeddingsAreRelationSpecific) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnnConfig c = TinyConfig();
  // Train from scratch without pretrain/restore so the relation-specific
  // branch is guaranteed to receive updates on this tiny graph.
  c.pretrain_base = false;
  c.freeze_pretrained = false;
  c.early_stopping_patience = 100;
  c.restore_best = false;
  c.epochs = 4;
  HybridGnn model(c, SmallSchemes(g));
  ASSERT_TRUE(model.Fit(g).ok());
  // At least one node must get different embeddings under view vs buy.
  double max_diff = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Tensor a = model.Embedding(v, 0);
    Tensor b = model.Embedding(v, 1);
    double diff = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) {
      diff += std::abs(a.At(0, j) - b.At(0, j));
    }
    max_diff = std::max(max_diff, diff);
  }
  EXPECT_GT(max_diff, 1e-6);
}

TEST(HybridGnnTest, DeterministicGivenSeed) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnn m1(TinyConfig(), SmallSchemes(g));
  HybridGnn m2(TinyConfig(), SmallSchemes(g));
  ASSERT_TRUE(m1.Fit(g).ok());
  ASSERT_TRUE(m2.Fit(g).ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Tensor a = m1.Embedding(v, 0);
    Tensor b = m2.Embedding(v, 0);
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_FLOAT_EQ(a.At(0, j), b.At(0, j));
    }
  }
}

TEST(HybridGnnTest, TrainingProducesFiniteDecreasingLoss) {
  auto ds = MakeDataset("taobao", 0.05, 11);
  ASSERT_TRUE(ds.ok());
  HybridGnnConfig c = TinyConfig();
  c.epochs = 4;
  c.early_stopping_patience = 100;
  HybridGnn model(c, ds->schemes);
  ASSERT_TRUE(model.Fit(ds->graph).ok());
  EXPECT_TRUE(std::isfinite(model.last_epoch_loss()));
  EXPECT_GT(model.last_epoch_loss(), 0.0);
  // BCE with 5 negatives starts near -log(0.5); training must go below it.
  EXPECT_LT(model.last_epoch_loss(), 0.693);
}

TEST(HybridGnnTest, RejectsEmptyGraphAndBadSchemes) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnn empty_schemes_ok(TinyConfig(), {});
  // No schemes is legal (exploration flow still exists).
  EXPECT_TRUE(empty_schemes_ok.Fit(g).ok());

  MetapathScheme bogus({0, 9, 0}, {0, 0});
  HybridGnn bad(TinyConfig(), {bogus});
  EXPECT_FALSE(bad.Fit(g).ok());
}

// ---- Ablations (the Table VII switches must all be runnable) ----

struct AblationCase {
  const char* name;
  bool metapath_attn;
  bool relation_attn;
  bool randomized;
  bool hybrid;
};

class HybridGnnAblationTest : public ::testing::TestWithParam<AblationCase> {};

TEST_P(HybridGnnAblationTest, VariantTrainsAndEmbeds) {
  const AblationCase& ab = GetParam();
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnnConfig c = TinyConfig();
  c.use_metapath_attention = ab.metapath_attn;
  c.use_relation_attention = ab.relation_attn;
  c.use_randomized_exploration = ab.randomized;
  c.use_hybrid_aggregation = ab.hybrid;
  HybridGnn model(c, SmallSchemes(g));
  ASSERT_TRUE(model.Fit(g).ok()) << ab.name;
  Tensor e = model.Embedding(0, 0);
  EXPECT_TRUE(std::isfinite(e.Sum())) << ab.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, HybridGnnAblationTest,
    ::testing::Values(
        AblationCase{"full", true, true, true, true},
        AblationCase{"wo_metapath_attention", false, true, true, true},
        AblationCase{"wo_relation_attention", true, false, true, true},
        AblationCase{"wo_randomized", true, true, false, true},
        AblationCase{"wo_hybrid", true, true, true, false},
        AblationCase{"minimal", false, false, false, false}),
    [](const ::testing::TestParamInfo<AblationCase>& info) {
      return std::string(info.param.name);
    });

// ---- Exploration depth knob (Table V) ----

class HybridGnnDepthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HybridGnnDepthTest, DepthVariantsTrain) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnnConfig c = TinyConfig();
  c.exploration_depth = GetParam();
  HybridGnn model(c, SmallSchemes(g));
  ASSERT_TRUE(model.Fit(g).ok());
  EXPECT_TRUE(std::isfinite(model.Embedding(0, 0).Sum()));
}

INSTANTIATE_TEST_SUITE_P(Depths, HybridGnnDepthTest,
                         ::testing::Values(1, 2, 3));

// ---- Attention introspection (Fig. 6 machinery) ----

TEST(HybridGnnTest, AttentionScoresAreDistribution) {
  MultiplexHeteroGraph g = SmallBipartite();
  HybridGnn model(TinyConfig(), SmallSchemes(g));
  ASSERT_TRUE(model.Fit(g).ok());
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    std::vector<double> scores = model.MetapathAttentionScores(0, r);
    std::vector<std::string> labels = model.FlowLabels(0, r);
    ASSERT_EQ(scores.size(), labels.size());
    // user node with U-I-U scheme + rand: 2 flows.
    EXPECT_EQ(scores.size(), 2u);
    EXPECT_EQ(labels.back(), "rand");
    double sum = std::accumulate(scores.begin(), scores.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-4);
    for (double s : scores) EXPECT_GE(s, 0.0);
  }
}

TEST(HybridGnnTest, SingleRelationGraphWorks) {
  auto ds = MakeDataset("imdb", 0.05, 13);
  ASSERT_TRUE(ds.ok());
  HybridGnnConfig c = TinyConfig();
  HybridGnn model(c, ds->schemes);
  ASSERT_TRUE(model.Fit(ds->graph).ok());
  EXPECT_TRUE(std::isfinite(model.Embedding(0, 0).Sum()));
}

}  // namespace
}  // namespace hybridgnn
