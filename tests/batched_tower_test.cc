// Differential tests of the batched towers (HybridGnn::ForwardSketches and
// Gatne::ForwardSketches, the only towers any Fit path builds) against the
// per-node reference towers (each model's ForwardNodeSketch), on the same
// sampled sketches:
//   * forward rows and the minibatch loss are bit-identical on the scalar
//     kernel backend: both towers run the same arithmetic on the same rows,
//     only grouped differently. On AVX2 the batched attention logits are
//     vector dot products where the per-node towers' dense MatMuls chain
//     axpys, so rows agree to kForwardTolerance;
//   * every parameter gradient entry agrees to within kGradRelTolerance of
//     the largest |entry| of that gradient plus kGradAbsTolerance: shared
//     parameters now receive one summed contribution per op instead of one
//     per node, so float accumulation order differs;
// for HybridGNN's full model and each ablation that changes the tower's
// shape, and for GATNE with and without its local scale, at 1 and 4 workers
// (per-worker GradSinkScopes reduced as MinibatchTrainer reduces them), on
// the scalar and AVX2 kernel backends. And the trainer's base-table cache
// (every output projection zero) against the tower-path cache of the same
// fitted parameters, bit for bit, at 1 and 4 threads on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "baselines/gatne.h"
#include "common/rng.h"
#include "core/hybrid_gnn.h"
#include "data/profiles.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/autograd.h"
#include "tensor/init.h"

namespace hybridgnn {

/// Reaches the private sampling and tower entry points of a fitted model.
struct HybridGnnTestPeer {
  using NodeSketch = HybridGnn::NodeSketch;

  static void Sample(const HybridGnn& m, NodeId v, Rng& rng,
                     NodeSketch* out) {
    m.SampleNode(*m.graph_, v, rng, out);
  }
  static ag::Var Batched(const HybridGnn& m,
                         std::span<const NodeSketch> sketches) {
    return m.ForwardSketches(sketches);
  }
  static ag::Var PerNode(const HybridGnn& m, const NodeSketch& sk) {
    return m.ForwardNodeSketch(sk);
  }
  static size_t NumRelations(const HybridGnn& m) { return m.num_relations_; }
  static TrainerSpec Spec(const HybridGnn& m) { return m.Spec(); }
  static const Tensor& Base(const HybridGnn& m) {
    return m.base_->table()->value;
  }
  static const std::vector<ag::Var>& Outputs(const HybridGnn& m) {
    return m.w_rel_;
  }
  static size_t CacheRows(const HybridGnn& m) { return m.cache_.rows(); }
  /// Every trainable tensor of the model, named for failure messages.
  static std::vector<std::pair<std::string, ag::Var>> Params(
      const HybridGnn& m) {
    std::vector<std::pair<std::string, ag::Var>> out;
    out.emplace_back("base", m.base_->table());
    out.emplace_back("context", m.context_->table());
    out.emplace_back("edge_init", m.edge_init_->table());
    auto add_all = [&out](const std::string& name, const Module& mod) {
      for (size_t i = 0; i < mod.parameters().size(); ++i) {
        out.emplace_back(name + "[" + std::to_string(i) + "]",
                         mod.parameters()[i]);
      }
    };
    for (size_t i = 0; i < m.scheme_aggs_.size(); ++i) {
      add_all("scheme_agg" + std::to_string(i), *m.scheme_aggs_[i]);
    }
    add_all("rand_agg", *m.rand_agg_);
    add_all("metapath_attn", *m.metapath_attn_);
    add_all("relation_attn", *m.relation_attn_);
    for (size_t r = 0; r < m.w_rel_.size(); ++r) {
      out.emplace_back("w_rel" + std::to_string(r), m.w_rel_[r]);
    }
    return out;
  }
};

/// Reaches GATNE's private sampling and tower entry points.
struct GatneTestPeer {
  using NodeSketch = Gatne::NodeSketch;

  static void Sample(const Gatne& m, const MultiplexHeteroGraph& g, NodeId v,
                     Rng& rng, NodeSketch* out) {
    m.SampleNode(g, v, rng, out);
  }
  static ag::Var Batched(const Gatne& m,
                         std::span<const NodeSketch> sketches) {
    return m.ForwardSketches(sketches);
  }
  static ag::Var PerNode(const Gatne& m, const NodeSketch& sk) {
    return m.ForwardNodeSketch(sk);
  }
  static size_t NumRelations(const Gatne& m) { return m.num_relations_; }
  static TrainerSpec Spec(const Gatne& m) { return m.Spec(); }
  static const Tensor& Base(const Gatne& m) {
    return m.base_->table()->value;
  }
  static const std::vector<ag::Var>& Outputs(const Gatne& m) {
    return m.m_rel_;
  }
  static size_t CacheRows(const Gatne& m) { return m.cache_.rows(); }
  /// Every trainable tensor of the model, tables first.
  static std::vector<std::pair<std::string, ag::Var>> Params(const Gatne& m) {
    std::vector<std::pair<std::string, ag::Var>> out;
    out.emplace_back("base", m.base_->table());
    out.emplace_back("context", m.context_->table());
    out.emplace_back("edge_embed", m.edge_embed_->table());
    for (size_t i = 0; i < m.attn_proj_->parameters().size(); ++i) {
      out.emplace_back("attn_proj[" + std::to_string(i) + "]",
                       m.attn_proj_->parameters()[i]);
    }
    for (size_t r = 0; r < m.attn_query_.size(); ++r) {
      out.emplace_back("attn_query" + std::to_string(r), m.attn_query_[r]);
    }
    for (size_t r = 0; r < m.m_rel_.size(); ++r) {
      out.emplace_back("m_rel" + std::to_string(r), m.m_rel_[r]);
    }
    return out;
  }
};

/// Runs either of the trainer's cache paths on a fitted model, whatever
/// its output projections hold.
struct MinibatchTrainerTestPeer {
  template <typename Model>
  static Tensor TowerCacheTable(const Model& m, const TrainerSpec& spec,
                                const MultiplexHeteroGraph& g, size_t dim,
                                size_t threads) {
    FitOptions opts;
    opts.num_threads = threads;
    const MinibatchTrainer trainer(spec, opts);
    return trainer.TowerCacheTable(g, m, dim);
  }
  static Tensor BaseCacheTable(const TrainerSpec& spec, const Tensor& base) {
    FitOptions opts;
    const MinibatchTrainer trainer(spec, opts);
    return trainer.BaseCacheTable(base);
  }
};

namespace {

using NodeSketch = HybridGnnTestPeer::NodeSketch;

/// Forward agreement bound on AVX2 (embedding entries are O(0.1-1)).
constexpr double kForwardTolerance = 1e-5;

/// Gradient agreement bound: reordered float sums of a few thousand terms,
/// relative to the largest |entry| of the reference gradient, plus a floor
/// for gradients that nearly cancel (a few 1e-8 on the ablations).
constexpr double kGradRelTolerance = 1e-4;
constexpr double kGradAbsTolerance = 1e-10;

struct LossRow {
  size_t lhs;
  size_t rhs;
  RelationId rel;
  float label;
};

/// One model's two towers over a fixed list of n sampled entries (sketches
/// or frontiers): the batched tower's [R * n, base] rows (row r * n + i is
/// entry i's relation r), entry i's per-node [R, base] rows, and the
/// model's trainable tensors with its three embedding tables first.
struct Towers {
  size_t n = 0;
  size_t num_rel = 0;
  std::function<ag::Var()> batched;
  std::function<ag::Var(size_t)> per_node;
  std::vector<std::pair<std::string, ag::Var>> params;
};

struct StepResult {
  std::vector<Tensor> rows;  // per entry: [R, base_dim] (1 worker only)
  double loss = 0.0;
  std::vector<Tensor> grads;  // parallel to Towers::params
};

/// Loss over `rows` from one tower: the batched tower's rows gathered out of
/// its [R * n, base] output, or the per-node towers' rows sliced and
/// concatenated as the node-at-a-time trainer assembled them.
ag::Var StepLoss(const Towers& t, std::span<const LossRow> rows, bool batched,
                 std::vector<Tensor>* forward_rows) {
  std::vector<float> labels;
  for (const LossRow& row : rows) labels.push_back(row.label);
  const size_t n = t.n;
  if (batched) {
    ag::Var all = t.batched();
    if (forward_rows != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        Tensor e(t.num_rel, all->value.cols());
        for (size_t r = 0; r < t.num_rel; ++r) {
          std::memcpy(e.RowPtr(r), all->value.RowPtr(r * n + i),
                      e.cols() * sizeof(float));
        }
        forward_rows->push_back(std::move(e));
      }
    }
    std::vector<int32_t> lhs, rhs;
    for (const LossRow& row : rows) {
      lhs.push_back(static_cast<int32_t>(row.rel * n + row.lhs));
      rhs.push_back(static_cast<int32_t>(row.rel * n + row.rhs));
    }
    return ag::BceWithLogits(
        ag::RowwiseDot(ag::GatherRows(all, lhs), ag::GatherRows(all, rhs)),
        labels);
  }
  std::vector<ag::Var> built(n);
  for (size_t i = 0; i < n; ++i) {
    built[i] = t.per_node(i);
    if (forward_rows != nullptr) forward_rows->push_back(built[i]->value);
  }
  std::vector<ag::Var> lhs, rhs;
  for (const LossRow& row : rows) {
    lhs.push_back(ag::SliceRows(built[row.lhs], row.rel, 1));
    rhs.push_back(ag::SliceRows(built[row.rhs], row.rel, 1));
  }
  return ag::BceWithLogits(
      ag::RowwiseDot(ag::ConcatRows(lhs), ag::ConcatRows(rhs)), labels);
}

/// One minibatch step with either tower, sharded over `workers` threads
/// exactly as MinibatchTrainer shards a batch: each worker backprops its
/// slice of the loss rows under a private gradient sink, and the sinks are
/// reduced into the parameter gradients weighted by element share.
StepResult RunStep(const Towers& t, std::span<const LossRow> rows,
                   bool batched, size_t workers) {
  for (const auto& [name, p] : t.params) p->ZeroGrad();
  StepResult res;
  if (workers == 1) {
    ag::Var loss = StepLoss(t, rows, batched, &res.rows);
    ag::Backward(loss);
    res.loss = loss->value.At(0, 0);
  } else {
    std::vector<ag::GradSinkScope::Sink> sinks(workers);
    std::vector<double> losses(workers);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        ag::GradSinkScope sink(&sinks[w]);
        const size_t lo = rows.size() * w / workers;
        const size_t hi = rows.size() * (w + 1) / workers;
        ag::Var loss = StepLoss(t, rows.subspan(lo, hi - lo), batched, nullptr);
        ag::Backward(loss);
        losses[w] = loss->value.At(0, 0);
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t w = 0; w < workers; ++w) {
      const size_t share = rows.size() * (w + 1) / workers -
                           rows.size() * w / workers;
      const float weight =
          static_cast<float>(share) / static_cast<float>(rows.size());
      for (auto& [node, grad] : sinks[w]) {
        if (node->grad.empty()) {
          node->grad = Tensor(node->value.rows(), node->value.cols());
        }
        node->grad.Axpy(weight, grad);
      }
      res.loss += losses[w] * static_cast<double>(share) /
                  static_cast<double>(rows.size());
    }
  }
  for (const auto& [name, p] : t.params) {
    res.grads.push_back(p->grad.empty()
                            ? Tensor(p->value.rows(), p->value.cols())
                            : p->grad);
    p->ZeroGrad();
  }
  return res;
}

/// 120 random loss rows over `n` entries and `num_rel` relations.
std::vector<LossRow> RandomLossRows(size_t n, size_t num_rel, Rng& rng) {
  std::vector<LossRow> rows(120);
  for (LossRow& row : rows) {
    row.lhs = rng.UniformUint64(n);
    row.rhs = rng.UniformUint64(n);
    row.rel = static_cast<RelationId>(rng.UniformUint64(num_rel));
    row.label = rng.UniformUint64(2) == 0 ? 0.0f : 1.0f;
  }
  return rows;
}

/// The differential check: on every available kernel backend, at 1 and 4
/// workers, the batched and per-node towers agree on forward rows and loss
/// (bitwise on scalar) and on every parameter gradient (within tolerance).
void ExpectTowersAgree(const Towers& t, std::span<const LossRow> rows) {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (kernels::Backend backend : backends) {
    kernels::ScopedBackend scoped(backend);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(kernels::BackendName(backend)) + " workers=" +
                   std::to_string(workers));
      const StepResult batched = RunStep(t, rows, true, workers);
      const StepResult per_node = RunStep(t, rows, false, workers);
      const bool exact = backend == kernels::Backend::kScalar;
      if (workers == 1) {
        ASSERT_EQ(batched.rows.size(), per_node.rows.size());
        for (size_t i = 0; i < batched.rows.size(); ++i) {
          const Tensor& a = batched.rows[i];
          const Tensor& b = per_node.rows[i];
          ASSERT_TRUE(a.SameShape(b));
          if (exact) {
            EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
                      0)
                << "forward rows of entry " << i;
          } else {
            for (size_t j = 0; j < a.size(); ++j) {
              ASSERT_NEAR(a.data()[j], b.data()[j], kForwardTolerance)
                  << "forward rows of entry " << i;
            }
          }
        }
        if (exact) {
          EXPECT_EQ(batched.loss, per_node.loss);
        } else {
          EXPECT_NEAR(batched.loss, per_node.loss, kForwardTolerance);
        }
      } else {
        EXPECT_NEAR(batched.loss, per_node.loss, 1e-6);
      }
      size_t nonzero_tower_grads = 0;
      for (size_t k = 0; k < t.params.size(); ++k) {
        const Tensor& a = batched.grads[k];
        const Tensor& b = per_node.grads[k];
        ASSERT_TRUE(a.SameShape(b)) << t.params[k].first;
        double scale = 0.0;
        for (size_t i = 0; i < b.size(); ++i) {
          scale = std::max(scale, std::abs(static_cast<double>(b.data()[i])));
        }
        if (scale > 0.0 && k >= 3) ++nonzero_tower_grads;
        for (size_t i = 0; i < b.size(); ++i) {
          ASSERT_NEAR(a.data()[i], b.data()[i],
                      kGradRelTolerance * scale + kGradAbsTolerance)
              << t.params[k].first << " entry " << i;
        }
      }
      // The aggregation and attention branch must actually be exercised.
      EXPECT_GT(nonzero_tower_grads, 2u);
    }
  }
}

struct TowerCase {
  const char* name;
  bool metapath_attn;
  bool relation_attn;
  bool randomized;
  bool hybrid;
  bool per_scheme_aggs;
  bool user_schemes_only;  // items get no metapath flow (fallback pairs)
};

std::unique_ptr<HybridGnn> FitSmallModel(const TowerCase& tc,
                                         const Dataset& ds) {
  HybridGnnConfig c;
  c.base_dim = 16;
  c.edge_dim = 8;
  c.hidden_dim = 8;
  c.fanout = 3;
  c.epochs = 1;
  c.batch_size = 64;
  c.max_pairs_per_epoch = 256;
  c.corpus.num_walks_per_node = 2;
  c.corpus.walk_length = 4;
  c.corpus.window = 2;
  c.use_metapath_attention = tc.metapath_attn;
  c.use_relation_attention = tc.relation_attn;
  c.use_randomized_exploration = tc.randomized;
  c.use_hybrid_aggregation = tc.hybrid;
  c.per_scheme_aggregators = tc.per_scheme_aggs;
  // Keep the trained epoch (W_r starts at zero; one step makes it non-zero
  // so gradients reach the aggregators and attention).
  c.restore_best = false;
  c.seed = 29;
  std::vector<MetapathScheme> schemes;
  for (const MetapathScheme& s : ds.schemes) {
    if (!tc.user_schemes_only || s.source_type() == 0) schemes.push_back(s);
  }
  auto model = std::make_unique<HybridGnn>(c, schemes);
  FitOptions opts;
  opts.num_threads = 1;
  HYBRIDGNN_CHECK_OK(model->Fit(ds.graph, opts));
  return model;
}

class BatchedTowerTest : public ::testing::TestWithParam<TowerCase> {};

TEST_P(BatchedTowerTest, MatchesPerNodeTower) {
  const TowerCase& tc = GetParam();
  auto ds = MakeDataset("taobao", 0.1, 3);
  ASSERT_TRUE(ds.ok());
  const MultiplexHeteroGraph& g = ds->graph;
  std::unique_ptr<HybridGnn> fitted = FitSmallModel(tc, *ds);
  const HybridGnn& model = *fitted;

  // 40 sketches of 32 nodes (so some nodes have several independent
  // samples) and 120 loss rows over them.
  Rng rng(7);
  std::vector<NodeSketch> sketches(40);
  for (size_t i = 0; i < sketches.size(); ++i) {
    const NodeId v = static_cast<NodeId>(
        i < 32 ? rng.UniformUint64(g.num_nodes()) : sketches[i - 32].v);
    HybridGnnTestPeer::Sample(model, v, rng, &sketches[i]);
  }
  const std::vector<LossRow> rows =
      RandomLossRows(sketches.size(), g.num_relations(), rng);

  Towers t;
  t.n = sketches.size();
  t.num_rel = HybridGnnTestPeer::NumRelations(model);
  t.batched = [&] { return HybridGnnTestPeer::Batched(model, sketches); };
  t.per_node = [&](size_t i) {
    return HybridGnnTestPeer::PerNode(model, sketches[i]);
  };
  t.params = HybridGnnTestPeer::Params(model);
  ExpectTowersAgree(t, rows);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BatchedTowerTest,
    ::testing::Values(
        TowerCase{"full", true, true, true, true, false, false},
        TowerCase{"per_scheme_aggregators", true, true, true, true, true,
                  false},
        TowerCase{"wo_metapath_attention", false, true, true, true, false,
                  false},
        TowerCase{"wo_relation_attention", true, false, true, true, false,
                  false},
        TowerCase{"wo_hybrid", true, true, true, false, false, false},
        TowerCase{"fallback_rows", true, true, false, true, false, true}),
    [](const ::testing::TestParamInfo<TowerCase>& info) {
      return std::string(info.param.name);
    });

// GATNE's batched tower against its per-node tower, with the default local
// scale and without one (local_scale 1 skips the Scale op).
TEST(GatneBatchedTowerTest, MatchesPerNodeTower) {
  auto ds = MakeDataset("taobao", 0.1, 3);
  ASSERT_TRUE(ds.ok());
  const MultiplexHeteroGraph& g = ds->graph;
  for (float local_scale : {0.5f, 1.0f}) {
    SCOPED_TRACE("local_scale=" + std::to_string(local_scale));
    Gatne::Options o;
    o.base_dim = 16;
    o.edge_dim = 8;
    o.attn_hidden = 8;
    o.fanout = 3;
    o.epochs = 1;
    o.batch_size = 64;
    o.max_pairs_per_epoch = 256;
    o.corpus.num_walks_per_node = 2;
    o.corpus.walk_length = 4;
    o.corpus.window = 2;
    o.local_scale = local_scale;
    // Keep the trained epoch: M_r starts at zero, and one step makes it
    // non-zero so gradients reach the edge embeddings and attention.
    o.restore_best = false;
    o.seed = 29;
    Gatne model(o, ds->schemes);
    FitOptions opts;
    opts.num_threads = 1;
    ASSERT_TRUE(model.Fit(g, opts).ok());

    // 40 sketches of 32 nodes (some nodes sampled more than once) and 120
    // loss rows over them.
    Rng rng(7);
    std::vector<GatneTestPeer::NodeSketch> sketches(40);
    for (size_t i = 0; i < sketches.size(); ++i) {
      const NodeId v = static_cast<NodeId>(
          i < 32 ? rng.UniformUint64(g.num_nodes()) : sketches[i - 32].v);
      GatneTestPeer::Sample(model, g, v, rng, &sketches[i]);
    }
    const std::vector<LossRow> rows =
        RandomLossRows(sketches.size(), g.num_relations(), rng);

    Towers t;
    t.n = sketches.size();
    t.num_rel = GatneTestPeer::NumRelations(model);
    t.batched = [&] { return GatneTestPeer::Batched(model, sketches); };
    t.per_node = [&](size_t i) {
      return GatneTestPeer::PerNode(model, sketches[i]);
    };
    t.params = GatneTestPeer::Params(model);
    ExpectTowersAgree(t, rows);
  }
}

// How a cache test fits its model, and how many validation passes and
// cache fills must take the base-table shortcut.
struct CacheCase {
  const char* name;
  size_t epochs;
  bool restore_best;
  float learning_rate;
  uint64_t from_base;
};

// 0 epochs: the epoch-0 validation and the cache read the base table. A
// 1e-12 step moves the projections off zero but no validation edge, so the
// restore returns to epoch 0 and the cache reads the base table again. A
// kept trained epoch reads it only for the epoch-0 validation.
constexpr CacheCase kCacheCases[] = {
    {"pretrain_only", 0, true, 1e-2f, 2},
    {"restored_to_epoch0", 1, true, 1e-12f, 2},
    {"kept_trained_epoch", 1, false, 1e-2f, 1},
};

/// Fits through `fit(cache_case, opts)` on every backend at 1 and 4
/// threads, and checks the cache the Fit filled against the tower-path
/// cache of the fitted parameters, bit for bit, and the shortcut counter.
/// With the projections zero it also runs both paths at three cache
/// samples, where averaging equal rows does not give the row back.
template <typename Peer, typename FitFn>
void ExpectCacheMatchesTowerPath(const MultiplexHeteroGraph& g,
                                 const FitFn& fit) {
  obs::Counter& from_base =
      obs::GlobalRegistry().GetCounter("core/cache_from_base");
  std::vector<std::pair<NodeId, RelationId>> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) all.emplace_back(v, r);
  }
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (kernels::Backend backend : backends) {
    kernels::ScopedBackend scoped(backend);
    for (const CacheCase& cc : kCacheCases) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(std::string(kernels::BackendName(backend)) + " " +
                     cc.name + " threads=" + std::to_string(threads));
        FitOptions opts;
        opts.num_threads = threads;
        opts.deterministic = true;  // parallel cache, serial training
        const uint64_t before = from_base.value();
        const auto model = fit(cc, opts);
        EXPECT_EQ(from_base.value() - before, cc.from_base);
        bool outputs_zero = true;
        for (const ag::Var& w : Peer::Outputs(*model)) {
          for (size_t i = 0; i < w->value.size(); ++i) {
            outputs_zero = outputs_zero && w->value.data()[i] == 0.0f;
          }
        }
        EXPECT_EQ(outputs_zero, cc.from_base == 2);
        // The base path caches one row per node, the tower path one per
        // (node, relation).
        EXPECT_EQ(Peer::CacheRows(*model),
                  g.num_nodes() * (outputs_zero ? 1 : g.num_relations()));
        const Tensor cached = model->EmbeddingsFor(all);
        const Tensor tower = MinibatchTrainerTestPeer::TowerCacheTable(
            *model, Peer::Spec(*model), g, cached.cols(), threads);
        ASSERT_TRUE(cached.SameShape(tower));
        EXPECT_EQ(std::memcmp(cached.data(), tower.data(),
                              cached.size() * sizeof(float)),
                  0);
        if (!outputs_zero) continue;
        TrainerSpec three = Peer::Spec(*model);
        three.cache_samples = 3;
        const Tensor base_three = MinibatchTrainerTestPeer::BaseCacheTable(
            three, Peer::Base(*model));
        const Tensor tower_three = MinibatchTrainerTestPeer::TowerCacheTable(
            *model, three, g, cached.cols(), threads);
        const size_t num_rel = g.num_relations();
        ASSERT_EQ(base_three.rows() * num_rel, tower_three.rows());
        ASSERT_EQ(base_three.cols(), tower_three.cols());
        for (size_t i = 0; i < tower_three.rows(); ++i) {
          ASSERT_EQ(std::memcmp(base_three.RowPtr(i / num_rel),
                                tower_three.RowPtr(i),
                                base_three.cols() * sizeof(float)),
                    0)
              << "three cache samples, node " << i / num_rel << " relation "
              << i % num_rel;
        }
      }
    }
  }
}

// HybridGNN averages four tower samples per cached row; the shortcut must
// repeat that averaging, not copy the base row.
TEST(BaseTableCacheTest, HybridGnnMatchesTowerPath) {
  auto ds = MakeDataset("taobao", 0.1, 3);
  ASSERT_TRUE(ds.ok());
  ExpectCacheMatchesTowerPath<HybridGnnTestPeer>(
      ds->graph, [&](const CacheCase& cc, const FitOptions& opts) {
        HybridGnnConfig c;
        c.base_dim = 16;
        c.edge_dim = 8;
        c.hidden_dim = 8;
        c.fanout = 3;
        c.epochs = cc.epochs;
        c.batch_size = 64;
        c.max_pairs_per_epoch = 256;
        c.corpus.num_walks_per_node = 2;
        c.corpus.walk_length = 4;
        c.corpus.window = 2;
        c.learning_rate = cc.learning_rate;
        c.restore_best = cc.restore_best;
        c.seed = 31;
        auto model = std::make_unique<HybridGnn>(c, ds->schemes);
        HYBRIDGNN_CHECK_OK(model->Fit(ds->graph, opts));
        return model;
      });
}

// GATNE caches one tower sample per row: the shortcut copies the row.
TEST(BaseTableCacheTest, GatneMatchesTowerPath) {
  auto ds = MakeDataset("taobao", 0.1, 3);
  ASSERT_TRUE(ds.ok());
  ExpectCacheMatchesTowerPath<GatneTestPeer>(
      ds->graph, [&](const CacheCase& cc, const FitOptions& opts) {
        Gatne::Options o;
        o.base_dim = 16;
        o.edge_dim = 8;
        o.attn_hidden = 8;
        o.fanout = 3;
        o.epochs = cc.epochs;
        o.batch_size = 64;
        o.max_pairs_per_epoch = 256;
        o.corpus.num_walks_per_node = 2;
        o.corpus.walk_length = 4;
        o.corpus.window = 2;
        o.learning_rate = cc.learning_rate;
        o.restore_best = cc.restore_best;
        o.seed = 31;
        auto model = std::make_unique<Gatne>(o, ds->schemes);
        HYBRIDGNN_CHECK_OK(model->Fit(ds->graph, opts));
        return model;
      });
}

// The blocked attention used by the batched tower is the per-set attention
// on every block, value and input gradient bit for bit (scalar backend).
TEST(BlockedAttentionTest, MatchesPerBlockForward) {
  kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  constexpr size_t kBlocks = 6, kM = 3, kDim = 5;
  Rng rng(11);
  SelfAttention attn(kDim, 4, rng, /*identity_values=*/true);
  Tensor h(kBlocks * kM, kDim);
  UniformInit(h, rng, -1.0f, 1.0f);
  ag::Var hb = ag::Param(h);
  ag::Var out = attn.Forward(hb, kBlocks);
  ag::Backward(ag::SumAll(ag::Tanh(out)));
  for (size_t p = 0; p < kBlocks; ++p) {
    Tensor hp(kM, kDim);
    std::memcpy(hp.data(), h.RowPtr(p * kM), hp.size() * sizeof(float));
    ag::Var hv = ag::Param(hp);
    ag::Var op = attn.Forward(hv);
    ag::Backward(ag::SumAll(ag::Tanh(op)));
    EXPECT_EQ(std::memcmp(op->value.data(), out->value.RowPtr(p * kM),
                          op->value.size() * sizeof(float)),
              0)
        << "block " << p;
    EXPECT_EQ(std::memcmp(hv->grad.data(), hb->grad.RowPtr(p * kM),
                          hv->grad.size() * sizeof(float)),
              0)
        << "block " << p;
  }
}

}  // namespace
}  // namespace hybridgnn
