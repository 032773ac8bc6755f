// Regression tests pinning the parallel pipeline's reproducibility
// contract:
//   * num_threads <= 1 reproduces pinned golden rows bit for bit;
//   * FitOptions{num_threads: N, deterministic: true} is run-to-run
//     reproducible for fixed (seed, N);
//   * EmbeddingsFor matches the per-node Embedding loop;
// for both models MinibatchTrainer drives (HybridGNN and GATNE); pins the
// eight relation-blind table baselines to golden hashes; and checks that a
// lookup before Fit or past the fitted nodes dies in every registry model.
//
// Since the kernel layer (src/kernels) the golden comparisons additionally
// pin the *scalar* dispatch path: under HYBRIDGNN_KERNELS=scalar the library
// must reproduce the pre-SIMD goldens bit for bit, while the AVX2 path only
// has to land metric-identical within the documented tolerance (reductions
// are reassociated; see DESIGN.md §11).
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gatne.h"
#include "baselines/registry.h"
#include "core/hybrid_gnn.h"
#include "data/profiles.h"
#include "data/split.h"
#include "graph/metapath.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "sampling/corpus.h"
#include "sampling/negative_sampler.h"
#include "sampling/sgns.h"
#include "serve/checkpoint.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

std::vector<MetapathScheme> TinySchemes(const MultiplexHeteroGraph& g) {
  std::vector<MetapathScheme> schemes;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    schemes.push_back(MetapathScheme::ParseIntra(g, "U-I-U", r).value());
    schemes.push_back(MetapathScheme::ParseIntra(g, "I-U-I", r).value());
  }
  return schemes;
}

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

// Golden rows of the serial scalar path (full float precision). If these
// fail, the threads<=1 path no longer computes what it did when they were
// pinned.
//
// Re-pinned when HybridGNN's towers became one batched graph per
// minibatch, validation pass and cache chunk (gradient accumulation order
// moved by at most 4 ULP), and again when SGNS pretraining started drawing
// its pairs from a walk-pair stream instead of shuffling a materialized
// corpus: the metapath corpus that was built only for an emptiness check
// no longer advances the Rng, and pretraining draws walks, edge pairs and
// negatives in one interleaved order, so every later draw moved. The SGNS
// and GATNE goldens below were re-pinned at that change for the same
// reason.
constexpr float kGoldenV0R0[16] = {
    0.140862107f, 0.044523865f, -0.203385741f, -0.0473175421f,
    0.1997049f, 0.0812098011f, -0.124622382f, -0.018753469f,
    0.0841758102f, -0.016249815f, 0.0981120244f, -0.100216761f,
    -0.0306110028f, -0.0738840029f, -0.180236697f, -0.0422032028f};
constexpr float kGoldenV5R1[16] = {
    0.0502219461f, 0.0329301804f, -0.103762247f, 0.0241861455f,
    0.0954448506f, 0.0525070131f, -0.10580948f, 0.00148576614f,
    0.0348812304f, -0.0474453717f, 0.0610582344f, -0.0509302281f,
    -0.0420910083f, -0.0287811756f, -0.127337739f, -0.0137515208f};
constexpr float kGoldenSgnsV0[8] = {
    -0.186414093f, 0.012658434f, -0.0982138962f, -0.00220146775f,
    -0.110674962f, -0.189803481f, 0.0812589377f, 0.12404336f};

TEST(DeterminismTest, SerialFitMatchesPreParallelGolden) {
  // The goldens pin the scalar dispatch path specifically, and bit for
  // bit.
  kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  MultiplexHeteroGraph g = testing::SmallBipartite();
  HybridGnn model(TinyConfig(), TinySchemes(g));
  FitOptions opts;
  opts.num_threads = 1;
  ASSERT_TRUE(model.Fit(g, opts).ok());
  Tensor e00 = model.Embedding(0, 0);
  Tensor e51 = model.Embedding(5, 1);
  ASSERT_EQ(e00.cols(), 16u);
  for (size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(e00.At(0, j), kGoldenV0R0[j]) << "v0 r0 col " << j;
    EXPECT_EQ(e51.At(0, j), kGoldenV5R1[j]) << "v5 r1 col " << j;
  }
}

Gatne::Options TinyGatneOptions() {
  Gatne::Options o;
  o.base_dim = 16;
  o.edge_dim = 4;
  o.attn_hidden = 8;
  o.epochs = 2;
  o.batch_size = 64;
  o.max_pairs_per_epoch = 500;
  o.corpus.num_walks_per_node = 3;
  o.corpus.walk_length = 4;
  o.corpus.window = 2;
  o.fanout = 3;
  // Keep the last trained epoch so the rows pin the minibatch loop, not
  // just the pretrained base.
  o.restore_best = false;
  o.seed = 123;
  return o;
}

// GATNE's serial scalar path, pinned before its training loop moved into
// the shared minibatch trainer (the merge kept these bits), and re-pinned
// when pretraining moved onto the walk-pair stream, whose draws differ
// from the materialized corpus's.
constexpr float kGatneGoldenV0R0[16] = {
    0.0167513173f, -0.0406231992f, 0.0622435547f, -0.0216968656f,
    0.120499551f, 0.0136348289f, -0.0493094847f, -0.0898896307f,
    0.155164286f, 0.0706611946f, 0.0577768683f, -0.0502769835f,
    -0.00993975624f, 0.0131863952f, 0.100107476f, 0.0941131487f};
constexpr float kGatneGoldenV5R1[16] = {
    -0.0192463435f, -0.0316477679f, 0.0570844077f, 0.00244237809f,
    0.109368503f, 0.0303769819f, 0.0220278706f, -0.0732045174f,
    0.112413779f, 0.0312489253f, 0.0169535484f, 0.0324232578f,
    0.0402253717f, 0.0213685408f, 0.0555268675f, 0.119998567f};

TEST(DeterminismTest, GatneSerialFitMatchesGolden) {
  kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  MultiplexHeteroGraph g = testing::SmallBipartite();
  Gatne model(TinyGatneOptions(), TinySchemes(g));
  FitOptions opts;
  opts.num_threads = 1;
  ASSERT_TRUE(model.Fit(g, opts).ok());
  Tensor e00 = model.Embedding(0, 0);
  Tensor e51 = model.Embedding(5, 1);
  ASSERT_EQ(e00.cols(), 16u);
  for (size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(e00.At(0, j), kGatneGoldenV0R0[j]) << "v0 r0 col " << j;
    EXPECT_EQ(e51.At(0, j), kGatneGoldenV5R1[j]) << "v5 r1 col " << j;
  }
}

TEST(DeterminismTest, DefaultFitOverloadIsTheSerialPath) {
  // Fit(g) forwards to Fit(g, FitOptions{}) which resolves to one thread
  // when HYBRIDGNN_THREADS is unset — still the golden serial result.
  MultiplexHeteroGraph g = testing::SmallBipartite();
  HybridGnn a(TinyConfig(), TinySchemes(g));
  HybridGnn b(TinyConfig(), TinySchemes(g));
  ASSERT_TRUE(a.Fit(g).ok());
  FitOptions serial;
  serial.num_threads = 1;
  ASSERT_TRUE(b.Fit(g, serial).ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      Tensor ea = a.Embedding(v, r);
      Tensor eb = b.Embedding(v, r);
      for (size_t j = 0; j < ea.cols(); ++j) {
        ASSERT_EQ(ea.At(0, j), eb.At(0, j)) << "v" << v << " r" << r;
      }
    }
  }
}

// The pretraining stream's input: uniform walks plus two copies of every
// edge, one pass = 3 walks from each of the 7 nodes.
PairStream TinyStream(const MultiplexHeteroGraph& g) {
  CorpusOptions co;
  co.num_walks_per_node = 3;
  co.walk_length = 4;
  co.window = 2;
  return PairStream::Uniform(g, co, /*edge_copies=*/2);
}

TEST(DeterminismTest, SerialSgnsMatchesPreParallelGolden) {
  kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  MultiplexHeteroGraph g = testing::SmallBipartite();
  Rng rng(77);
  const PairStream stream = TinyStream(g);
  EXPECT_EQ(stream.walks_per_pass(), 21u);
  EXPECT_EQ(stream.pairs_per_pass(), 21u * 14 + 4 * g.num_edges());
  NegativeSampler sampler(g);
  SgnsOptions so;
  so.dim = 8;
  so.epochs = 2;
  SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
  ASSERT_TRUE(emb.Train(stream, sampler, so, rng).ok());
  for (size_t j = 0; j < 8; ++j) {
    EXPECT_FLOAT_EQ(emb.embeddings().At(0, j), kGoldenSgnsV0[j])
        << "sgns v0 col " << j;
  }
}

// The registry budget of model_consistency_test.
ModelBudget TinyBudget() {
  ModelBudget b;
  b.effort = 0.25;
  b.num_walks = 2;
  b.walk_length = 5;
  b.window = 2;
  b.max_pairs_per_epoch = 2000;
  return b;
}

// The eight relation-blind table baselines on the scalar path: FNV-1a of
// the raw bytes of the EmbeddingsFor table over every (v, r), v-major,
// after a serial fit of the registry model with a tiny budget. Pinned
// before the baselines moved onto the shared node table and link trainer
// (the move kept these bits).
TEST(DeterminismTest, TableBaselinesSerialFitMatchGolden) {
  kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  auto ds = MakeDataset("taobao", 0.08, 31);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng split_rng(32);
  auto split = SplitEdges(ds->graph, SplitOptions{}, split_rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const MultiplexHeteroGraph& g = split->train_graph;
  std::vector<std::pair<NodeId, RelationId>> queries;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      queries.emplace_back(v, r);
    }
  }
  const std::pair<const char*, uint64_t> goldens[] = {
      {"DeepWalk", 0x48e353b428d3cdfbull},  {"node2vec", 0xf55c78a56f3cf34bull},
      {"LINE", 0x5cc250a19234ed03ull},      {"GCN", 0x24f51d0a554ae40bull},
      {"GraphSage", 0xf8855da20e1a78d3ull}, {"HAN", 0x3f0083fb519e6a93ull},
      {"MAGNN", 0x4a3e4431bf628813ull},     {"R-GCN", 0xcbbca29d10636c6bull}};
  FitOptions opts;
  opts.num_threads = 1;
  for (const auto& [name, golden] : goldens) {
    SCOPED_TRACE(name);
    auto model = CreateModel(name, ds->schemes, 33, TinyBudget());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE((*model)->Fit(g, opts).ok());
    const Tensor table = (*model)->EmbeddingsFor(queries);
    ASSERT_EQ(table.rows(), queries.size());
    EXPECT_EQ(Fnv1a64(table.data(), table.size() * sizeof(float)), golden)
        << std::hex << Fnv1a64(table.data(), table.size() * sizeof(float));
  }
}

// The AVX2 path of the SGNS pretrain at the shape MinibatchTrainer runs it:
// SgnsOptions' defaults (dim 128, 5 negatives, 2 epochs) over uniform
// walks with the registry's default corpus plus two copies of each edge.
// The small graph makes repeated negatives within one pair common. FNV-1a
// of the raw bytes of both tables, pinned before the per-row SGNS steps
// were fused into one pair step, which must keep every bit.
TEST(DeterminismTest, SgnsAvx2PretrainMatchesGolden) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this host";
  }
  kernels::ScopedBackend avx2(kernels::Backend::kAvx2);
  auto ds = MakeDataset("taobao", 0.25, 41);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const MultiplexHeteroGraph& g = ds->graph;
  const ModelBudget budget;
  CorpusOptions co;
  co.num_walks_per_node = budget.num_walks;
  co.walk_length = budget.walk_length;
  co.window = budget.window;
  Rng rng(42);
  NegativeSampler sampler(g);
  SgnsOptions so;
  SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
  ASSERT_TRUE(
      emb.Train(PairStream::Uniform(g, co, /*edge_copies=*/2), sampler, so,
                rng)
          .ok());
  const Tensor& e = emb.embeddings();
  const Tensor& c = emb.contexts();
  const uint64_t he = Fnv1a64(e.data(), e.size() * sizeof(float));
  const uint64_t hc = Fnv1a64(c.data(), c.size() * sizeof(float));
  EXPECT_EQ(he, 0x096895f4368dc6c2ull) << std::hex << he;
  EXPECT_EQ(hc, 0xfda6a172329ebda2ull) << std::hex << hc;
}

// The AVX2 path of the SGNS-trained table baselines, hashed as in
// TableBaselinesSerialFitMatchGolden. LINE's first order can draw its own
// center row as a target, which the fused pair step must order exactly as
// the per-row steps did.
TEST(DeterminismTest, SgnsBaselinesAvx2SerialFitMatchGolden) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this host";
  }
  kernels::ScopedBackend avx2(kernels::Backend::kAvx2);
  auto ds = MakeDataset("taobao", 0.08, 31);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng split_rng(32);
  auto split = SplitEdges(ds->graph, SplitOptions{}, split_rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const MultiplexHeteroGraph& g = split->train_graph;
  std::vector<std::pair<NodeId, RelationId>> queries;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      queries.emplace_back(v, r);
    }
  }
  const std::pair<const char*, uint64_t> goldens[] = {
      {"DeepWalk", 0xac35a25f1fef7983ull},
      {"node2vec", 0x95cae949a682e233ull},
      {"LINE", 0x2d1740ed13555c0bull}};
  FitOptions opts;
  opts.num_threads = 1;
  for (const auto& [name, golden] : goldens) {
    SCOPED_TRACE(name);
    auto model = CreateModel(name, ds->schemes, 33, TinyBudget());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE((*model)->Fit(g, opts).ok());
    const Tensor table = (*model)->EmbeddingsFor(queries);
    EXPECT_EQ(Fnv1a64(table.data(), table.size() * sizeof(float)), golden)
        << std::hex << Fnv1a64(table.data(), table.size() * sizeof(float));
  }
}

// A registry model by name: the two models MinibatchTrainer drives get
// their tiny configs, the rest the tiny registry budget. On the taobao
// graph below, TinyConfig's and TinyGatneOptions' 32-edge minibatches are
// large enough to split into shards at 4 workers.
std::unique_ptr<EmbeddingModel> MakeTrainedModel(
    const std::string& name, const std::vector<MetapathScheme>& schemes) {
  if (name == "GATNE") {
    return std::make_unique<Gatne>(TinyGatneOptions(), schemes);
  }
  if (name == "HybridGNN") {
    return std::make_unique<HybridGnn>(TinyConfig(), schemes);
  }
  return std::move(CreateModel(name, schemes, 33, TinyBudget())).value();
}

uint64_t MinibatchCount() {
  return obs::GlobalRegistry().GetCounter("core/minibatches").value();
}

TEST(DeterminismTest, DeterministicParallelFitIsReproducible) {
  auto ds = MakeDataset("taobao", 0.1, 3);
  ASSERT_TRUE(ds.ok());
  const MultiplexHeteroGraph& g = ds->graph;
  FitOptions opts;
  opts.num_threads = 4;
  opts.deterministic = true;
  for (const std::string name : {"HybridGNN", "GATNE"}) {
    SCOPED_TRACE(name);
    auto a = MakeTrainedModel(name, ds->schemes);
    auto b = MakeTrainedModel(name, ds->schemes);
    const uint64_t before = MinibatchCount();
    ASSERT_TRUE(a->Fit(g, opts).ok());
    EXPECT_GT(MinibatchCount(), before);
    ASSERT_TRUE(b->Fit(g, opts).ok());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (RelationId r = 0; r < g.num_relations(); ++r) {
        Tensor ea = a->Embedding(v, r);
        Tensor eb = b->Embedding(v, r);
        for (size_t j = 0; j < ea.cols(); ++j) {
          ASSERT_EQ(ea.At(0, j), eb.At(0, j))
              << "deterministic fit diverged at v" << v << " r" << r;
        }
      }
    }
  }
}

// Without `deterministic`, 4 threads run the data-parallel minibatch
// shards (the TSan sweep runs this test for both models).
TEST(DeterminismTest, ParallelFitProducesFiniteEmbeddingsAndProgress) {
  auto ds = MakeDataset("taobao", 0.1, 3);
  ASSERT_TRUE(ds.ok());
  const MultiplexHeteroGraph& g = ds->graph;
  for (const std::string name : {"HybridGNN", "GATNE"}) {
    SCOPED_TRACE(name);
    FitOptions opts;
    opts.num_threads = 4;
    std::vector<std::string> phases;
    opts.progress_callback = [&](const FitProgress& p) {
      phases.push_back(p.phase);
    };
    auto model = MakeTrainedModel(name, ds->schemes);
    const uint64_t before = MinibatchCount();
    ASSERT_TRUE(model->Fit(g, opts).ok());
    EXPECT_GT(MinibatchCount(), before);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (RelationId r = 0; r < g.num_relations(); ++r) {
        Tensor e = model->Embedding(v, r);
        for (size_t j = 0; j < e.cols(); ++j) {
          ASSERT_TRUE(std::isfinite(e.At(0, j))) << "v" << v << " r" << r;
        }
      }
    }
    // corpus, pretrain, >=1 epoch, cache.
    EXPECT_GE(phases.size(), 4u);
    EXPECT_EQ(phases.front(), "corpus");
    EXPECT_EQ(phases.back(), "cache");
  }
}

// The AVX2 path reassociates the dot-product reductions, so it cannot be
// bit-identical to the scalar goldens — but the same seeds draw the same
// samples on both paths (randomness never depends on float values), so the
// trained embeddings must agree to small absolute drift and near-perfect
// per-node cosine. The 1e-3 bound is the documented tolerance of
// DESIGN.md §11: per-step rounding differences are ~1e-7 and the tiny
// 2-epoch run amplifies them by at most a few orders of magnitude.
TEST(DeterminismTest, SgnsAvx2TracksScalarGoldenWithinTolerance) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this host";
  }
  MultiplexHeteroGraph g = testing::SmallBipartite();
  auto train = [&](kernels::Backend backend) {
    kernels::ScopedBackend guard(backend);
    Rng rng(77);
    NegativeSampler sampler(g);
    SgnsOptions so;
    so.dim = 8;
    so.epochs = 2;
    SgnsEmbedder emb(g.num_nodes(), so.dim, rng);
    EXPECT_TRUE(emb.Train(TinyStream(g), sampler, so, rng).ok());
    return emb.embeddings();
  };
  const Tensor scalar = train(kernels::Backend::kScalar);
  const Tensor avx2 = train(kernels::Backend::kAvx2);
  ASSERT_TRUE(scalar.SameShape(avx2));
  // Scalar run must still match the golden exactly.
  for (size_t j = 0; j < 8; ++j) {
    EXPECT_FLOAT_EQ(scalar.At(0, j), kGoldenSgnsV0[j]) << "scalar col " << j;
  }
  for (size_t i = 0; i < scalar.rows(); ++i) {
    double dot = 0.0, ns = 0.0, na = 0.0;
    for (size_t j = 0; j < scalar.cols(); ++j) {
      const double s = scalar.At(i, j), a = avx2.At(i, j);
      EXPECT_NEAR(s, a, 1e-3) << "node " << i << " col " << j;
      dot += s * a;
      ns += s * s;
      na += a * a;
    }
    EXPECT_GT(dot / std::sqrt(ns * na), 0.9999) << "node " << i;
  }
}

TEST(DeterminismTest, EmbeddingsForMatchesPerNodeLoop) {
  MultiplexHeteroGraph g = testing::SmallBipartite();
  HybridGnn model(TinyConfig(), TinySchemes(g));
  ASSERT_TRUE(model.Fit(g).ok());
  std::vector<std::pair<NodeId, RelationId>> queries;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      queries.emplace_back(v, r);
    }
  }
  Tensor batched = model.EmbeddingsFor(queries);
  ASSERT_EQ(batched.rows(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Tensor row = model.Embedding(queries[i].first, queries[i].second);
    ASSERT_EQ(batched.cols(), row.cols());
    for (size_t j = 0; j < row.cols(); ++j) {
      EXPECT_EQ(batched.At(i, j), row.At(0, j)) << "query " << i;
    }
  }
}

// A lookup before Fit, or outside the fitted graph's nodes, dies on a shape
// check instead of reading past the table, in every registry model. R-GCN
// scores through its own DistMult decoder, so its Score and ScoreMany are
// checked too.
TEST(DeterminismDeathTest, LookupOfOutOfRangeNodeDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MultiplexHeteroGraph g = testing::SmallBipartite();
  const NodeId past = static_cast<NodeId>(g.num_nodes());
  const std::pair<NodeId, RelationId> queries[] = {{0, 0}, {past, 1}};
  const EdgeTriple edges[] = {{0, 4, 0}, {past, 4, 1}};
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    auto model = MakeTrainedModel(name, TinySchemes(g));
    EXPECT_DEATH(model->Embedding(0, 0), "outside|Fit\\(\\) must succeed");
    FitOptions opts;
    opts.num_threads = 1;
    ASSERT_TRUE(model->Fit(g, opts).ok());
    EXPECT_DEATH(model->Embedding(past, 0), "outside");
    EXPECT_DEATH(model->EmbeddingsFor(queries), "outside");
    if (name == "R-GCN") {
      EXPECT_DEATH(model->Score(0, past, 0), "outside");
      EXPECT_DEATH(model->ScoreMany(edges), "outside");
    }
  }
}

}  // namespace
}  // namespace hybridgnn
