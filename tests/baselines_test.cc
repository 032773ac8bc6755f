#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/deepwalk.h"
#include "baselines/gatne.h"
#include "baselines/gcn.h"
#include "baselines/graphsage.h"
#include "baselines/han.h"
#include "baselines/line.h"
#include "baselines/magnn.h"
#include "baselines/node2vec.h"
#include "baselines/registry.h"
#include "baselines/rgcn.h"
#include "data/profiles.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

/// Shared small dataset + split for all baseline smoke tests.
class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto ds = MakeDataset("taobao", 0.08, 21);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new Dataset(std::move(ds).value());
    Rng rng(22);
    // Classic random-negative protocol for the smoke test: every model must
    // comfortably beat chance on it regardless of relation awareness.
    SplitOptions options;
    options.hard_negative_fraction = 0.0;
    auto split = SplitEdges(dataset_->graph, options, rng);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    split_ = new LinkSplit(std::move(split).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete split_;
    dataset_ = nullptr;
    split_ = nullptr;
  }

  static ModelBudget TinyBudget() {
    ModelBudget b;
    b.effort = 0.25;
    b.num_walks = 2;
    b.walk_length = 5;
    b.window = 2;
    b.max_pairs_per_epoch = 2000;
    return b;
  }

  static Dataset* dataset_;
  static LinkSplit* split_;
};

Dataset* BaselinesTest::dataset_ = nullptr;
LinkSplit* BaselinesTest::split_ = nullptr;

TEST_F(BaselinesTest, RegistryKnowsTenModels) {
  EXPECT_EQ(AllModelNames().size(), 10u);
  EXPECT_FALSE(CreateModel("NotAModel", {}, 1, TinyBudget()).ok());
}

class BaselineModelTest
    : public BaselinesTest,
      public ::testing::WithParamInterface<std::string> {};

TEST_P(BaselineModelTest, FitsAndBeatsRandomGuessing) {
  const std::string name = GetParam();
  auto model = CreateModel(name, dataset_->schemes, 99, TinyBudget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ((*model)->name(), name);
  ASSERT_TRUE((*model)->Fit(split_->train_graph).ok());

  // Embeddings finite.
  Tensor e = (*model)->Embedding(0, 0);
  EXPECT_EQ(e.rows(), 1u);
  EXPECT_TRUE(std::isfinite(e.Sum()));

  // Even with a tiny budget, every model must beat coin-flip AUC on the
  // community-structured synthetic data under the classic protocol.
  Rng rng(7);
  EvalOptions opts;
  opts.max_ranking_queries = 20;
  LinkPredictionResult r = EvaluateLinkPrediction(
      **model, dataset_->graph, *split_, opts, rng);
  EXPECT_GT(r.roc_auc, 45.0) << name << " ROC-AUC " << r.roc_auc;
  if (name == "HybridGNN") {
    EXPECT_GT(r.roc_auc, 52.0) << "HybridGNN must clearly beat chance";
  }
  EXPECT_TRUE(std::isfinite(r.pr_auc));
  EXPECT_TRUE(std::isfinite(r.f1));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, BaselineModelTest,
    ::testing::Values("DeepWalk", "node2vec", "LINE", "GCN", "GraphSage",
                      "HAN", "MAGNN", "R-GCN", "GATNE", "HybridGNN"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST_F(BaselinesTest, RgcnScoreIsRelationSpecific) {
  auto model = CreateModel("R-GCN", dataset_->schemes, 5, TinyBudget());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split_->train_graph).ok());
  // DistMult diag differs across relations, so at least one pair must get
  // different scores under different relations.
  bool differs = false;
  for (NodeId u = 0; u < 20 && !differs; ++u) {
    const double s0 = (*model)->Score(u, u + 1, 0);
    const double s1 = (*model)->Score(u, u + 1, 1);
    differs = std::abs(s0 - s1) > 1e-9;
  }
  EXPECT_TRUE(differs);
}

TEST_F(BaselinesTest, GatneEmbeddingsAreRelationSpecific) {
  Gatne::Options o;
  o.epochs = 3;
  o.pretrain_base = false;
  o.freeze_pretrained = false;
  o.restore_best = false;
  o.corpus.num_walks_per_node = 2;
  o.corpus.walk_length = 5;
  o.corpus.window = 2;
  o.max_pairs_per_epoch = 2000;
  o.seed = 5;
  auto model = StatusOr<std::unique_ptr<EmbeddingModel>>(
      std::unique_ptr<EmbeddingModel>(new Gatne(o, dataset_->schemes)));
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split_->train_graph).ok());
  double max_diff = 0.0;
  for (NodeId v = 0; v < 20; ++v) {
    Tensor a = (*model)->Embedding(v, 0);
    Tensor b = (*model)->Embedding(v, 1);
    for (size_t j = 0; j < a.cols(); ++j) {
      max_diff = std::max(max_diff,
                          std::abs(double(a.At(0, j)) - b.At(0, j)));
    }
  }
  EXPECT_GT(max_diff, 1e-6);
}

Gatne::Options SmallGatneOptions() {
  Gatne::Options o;
  o.epochs = 2;
  o.corpus.num_walks_per_node = 2;
  o.corpus.walk_length = 5;
  o.corpus.window = 2;
  o.max_pairs_per_epoch = 2000;
  o.seed = 5;
  return o;
}

TEST_F(BaselinesTest, GatneRejectsBadLearningRate) {
  for (float lr : {0.0f, -1e-2f, std::nanf(""),
                   std::numeric_limits<float>::infinity()}) {
    Gatne::Options o = SmallGatneOptions();
    o.learning_rate = lr;
    Gatne model(o, dataset_->schemes);
    EXPECT_EQ(model.Fit(split_->train_graph).code(),
              StatusCode::kInvalidArgument)
        << "lr " << lr;
  }
}

TEST_F(BaselinesTest, GatneRejectsNonFiniteLocalScale) {
  Gatne::Options o = SmallGatneOptions();
  o.local_scale = std::nanf("");
  Gatne model(o, dataset_->schemes);
  EXPECT_EQ(model.Fit(split_->train_graph).code(),
            StatusCode::kInvalidArgument);
}

// A diverging run must stop with a clean error, not hand back a garbage
// model: at learning rate 1e30 the first Adam step blows the parameters up
// and the next minibatch's loss is no longer finite.
TEST_F(BaselinesTest, GatneNonFiniteLossFailsFitCleanly) {
  Gatne::Options o = SmallGatneOptions();
  o.learning_rate = 1e30f;
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  const uint64_t before = nonfinite.value();
  Gatne model(o, dataset_->schemes);
  const Status s = model.Fit(split_->train_graph);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("non-finite training loss"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("epoch "), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("batch "), std::string::npos) << s.ToString();
  EXPECT_EQ(nonfinite.value(), before + 1);
}

// One minibatch and no restore: the last Adam step's overflow reaches no
// later loss, so the per-epoch parameter check must catch it. M_r starts
// at zero, so the loss is finite, but a 1e15 local scale makes the M_r
// gradient large enough that the 1e30 step overflows to inf.
TEST_F(BaselinesTest, GatneNonFiniteParametersFailFitCleanly) {
  Gatne::Options o = SmallGatneOptions();
  o.learning_rate = 1e30f;
  o.local_scale = 1e15f;
  o.epochs = 1;
  o.batch_size = 32;
  o.max_pairs_per_epoch = 16;  // one minibatch
  o.restore_best = false;
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  const uint64_t before = nonfinite.value();
  Gatne model(o, dataset_->schemes);
  const Status s = model.Fit(split_->train_graph);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("GATNE: non-finite parameters after epoch 0"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(nonfinite.value(), before + 1);
}

// With no walk pairs (window 0 or walk length 0) the pretraining stream
// still holds the direct edges: GATNE pretrains on the two copies of every
// edge, two epochs of them, and fits.
TEST_F(BaselinesTest, GatnePretrainsOnEdgesWithoutWalkPairs) {
  obs::Counter& trained =
      obs::GlobalRegistry().GetCounter("core/sgns_pairs_trained");
  const size_t edge_pairs = 2 * 2 * split_->train_graph.edges().size();
  for (const auto& [window, walk_length] :
       {std::pair<size_t, size_t>{0, 5}, {2, 0}}) {
    Gatne::Options o = SmallGatneOptions();
    o.corpus.window = window;
    o.corpus.walk_length = walk_length;
    const uint64_t before = trained.value();
    Gatne model(o, dataset_->schemes);
    const Status s = model.Fit(split_->train_graph);
    ASSERT_TRUE(s.ok()) << "window " << window << ", walk length "
                        << walk_length << ": " << s.ToString();
    EXPECT_EQ(trained.value() - before, 2 * edge_pairs);
  }
}

TEST_F(BaselinesTest, DeepWalkIsRelationBlind) {
  auto model = CreateModel("DeepWalk", dataset_->schemes, 5, TinyBudget());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split_->train_graph).ok());
  Tensor a = (*model)->Embedding(3, 0);
  Tensor b = (*model)->Embedding(3, 1);
  for (size_t j = 0; j < a.cols(); ++j) {
    EXPECT_EQ(a.At(0, j), b.At(0, j));
  }
}

TEST_F(BaselinesTest, ModelsFailGracefullyOnDegenerateInput) {
  GraphBuilder b;
  NodeTypeId t = b.AddNodeType("n").value();
  RelationId r = b.AddRelation("r").value();
  ASSERT_TRUE(b.AddNodes(t, 3).ok());
  (void)r;
  auto edgeless = b.Build();
  ASSERT_TRUE(edgeless.ok());
  for (const auto& name : AllModelNames()) {
    auto model = CreateModel(name, {}, 1, TinyBudget());
    ASSERT_TRUE(model.ok());
    EXPECT_FALSE((*model)->Fit(*edgeless).ok()) << name;
  }
}

// The walk-based models draw skip-gram pairs from walks, and an edgeless
// graph has none: each Fit must fail its precondition rather than spin.
TEST_F(BaselinesTest, WalkModelsFailPreconditionOnEdgelessGraph) {
  GraphBuilder b;
  const NodeTypeId user = b.AddNodeType("user").value();
  const NodeTypeId item = b.AddNodeType("item").value();
  ASSERT_TRUE(b.AddRelation("view").ok());
  ASSERT_TRUE(b.AddRelation("buy").ok());
  ASSERT_TRUE(b.AddNodes(user, 4).ok());
  ASSERT_TRUE(b.AddNodes(item, 3).ok());
  auto edgeless = b.Build();
  ASSERT_TRUE(edgeless.ok());
  const std::vector<MetapathScheme> schemes = {
      testing::UiuScheme(*edgeless, 0), testing::UiuScheme(*edgeless, 1)};
  for (const std::string name : {"DeepWalk", "node2vec", "GATNE",
                                 "HybridGNN"}) {
    auto model = CreateModel(name, schemes, 1, TinyBudget());
    ASSERT_TRUE(model.ok());
    const Status st = (*model)->Fit(*edgeless);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
        << name << ": " << st.ToString();
  }
}

// The five models TrainLink drives, on a short schedule at learning rate
// `lr`.
std::vector<std::unique_ptr<EmbeddingModel>> FullBatchModels(
    float lr, const std::vector<MetapathScheme>& schemes) {
  const LinkTrainOptions train{
      .steps = 4, .batch_edges = 64, .learning_rate = lr};
  Gcn::Options gcn;
  gcn.train = train;
  GraphSage::Options sage;
  sage.train = train;
  Han::Options han;
  han.train = train;
  Magnn::Options magnn;
  magnn.train = train;
  Rgcn::Options rgcn;
  rgcn.train = train;
  std::vector<std::unique_ptr<EmbeddingModel>> models;
  models.push_back(std::make_unique<Gcn>(gcn));
  models.push_back(std::make_unique<GraphSage>(sage));
  models.push_back(std::make_unique<Han>(han, schemes));
  models.push_back(std::make_unique<Magnn>(magnn, schemes));
  models.push_back(std::make_unique<Rgcn>(rgcn));
  return models;
}

TEST_F(BaselinesTest, LineRejectsBadLearningRate) {
  for (float lr : {0.0f, -1e-2f, std::nanf(""),
                   std::numeric_limits<float>::infinity()}) {
    Line::Options o;
    o.learning_rate = lr;
    Line model(o);
    const Status st = model.Fit(split_->train_graph);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "lr " << lr;
    EXPECT_EQ(st.message().rfind("LINE: ", 0), 0u) << st.message();
  }
  // The full-batch models share TrainLink's check.
  for (float lr : {std::nanf(""), -1.0f}) {
    for (const auto& model : FullBatchModels(lr, dataset_->schemes)) {
      const Status st = model->Fit(split_->train_graph);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << model->name() << " lr " << lr;
      EXPECT_EQ(st.message().rfind(model->name() + ": ", 0), 0u)
          << st.message();
    }
  }
}

// A learning rate this large overflows the tables within the first epoch;
// the SGNS-only baselines, LINE (the same sigmoid-gradient update) and the
// full-batch models (a non-finite step loss or table) must say so instead
// of returning NaNs.
TEST_F(BaselinesTest, SgnsBaselinesFailCleanlyOnNonFiniteTables) {
  DeepWalk::Options dw;
  dw.corpus.num_walks_per_node = 2;
  dw.corpus.walk_length = 5;
  dw.corpus.window = 2;
  dw.sgns.learning_rate = 1e30f;
  Node2Vec::Options n2v;
  n2v.corpus = dw.corpus;
  n2v.sgns = dw.sgns;
  Line::Options line;
  line.learning_rate = 1e30f;
  line.samples_per_edge = 2;
  std::vector<std::unique_ptr<EmbeddingModel>> models =
      FullBatchModels(1e30f, dataset_->schemes);
  models.push_back(std::make_unique<DeepWalk>(dw));
  models.push_back(std::make_unique<Node2Vec>(n2v));
  models.push_back(std::make_unique<Line>(line));
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  for (const auto& model : models) {
    const uint64_t before = nonfinite.value();
    const Status st = model->Fit(split_->train_graph);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_EQ(st.message().rfind(model->name() + ": ", 0), 0u)
        << st.message();
    EXPECT_EQ(nonfinite.value(), before + 1) << model->name();
  }
}

}  // namespace
}  // namespace hybridgnn
