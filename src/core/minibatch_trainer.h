#ifndef HYBRIDGNN_CORE_MINIBATCH_TRAINER_H_
#define HYBRIDGNN_CORE_MINIBATCH_TRAINER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/embedding_model.h"
#include "obs/metrics.h"
#include "sampling/corpus.h"
#include "sampling/negative_sampler.h"
#include "tensor/autograd.h"

namespace hybridgnn {

/// Sketches per batched inference forward (validation chunk, embedding
/// cache chunk): about 12 KB of activations each at base_dim 128 with four
/// relations, so one chunk's graph holds about 6 MB at a time. That bounds
/// the transient memory an inference pass adds to peak RSS, and per-chunk
/// op overhead is already negligible at this size.
inline constexpr size_t kForwardChunk = 512;

/// The frozen [V * R, dim] table of e*_{v,r} rows (row v * R + r) a trained
/// model serves from. Empty until a Fit fills it; every lookup checks the
/// node and relation against the table's shape.
class RelationEmbeddingCache {
 public:
  RelationEmbeddingCache() = default;
  RelationEmbeddingCache(Tensor table, size_t num_relations)
      : table_(std::move(table)), num_relations_(num_relations) {}

  bool filled() const { return !table_.empty(); }
  Tensor Embedding(NodeId v, RelationId r) const;
  /// One [queries.size(), dim] gather.
  Tensor EmbeddingsFor(
      std::span<const std::pair<NodeId, RelationId>> queries) const;

 private:
  size_t Row(NodeId v, RelationId r) const;

  Tensor table_;
  size_t num_relations_ = 0;
};

/// The protocol settings the trainer reads. HybridGnnConfig and
/// Gatne::Options name them alike; From copies them, and the model sets the
/// rest. Not a user option.
struct TrainerSpec {
  std::string name;  // prefixes errors
  CorpusOptions corpus;
  size_t num_negatives{}, epochs{}, batch_size{}, max_pairs_per_epoch{};
  size_t early_stopping_patience{};
  double cross_negative_fraction{}, internal_val_fraction{};
  float learning_rate{};
  bool pretrain_base{}, freeze_pretrained{}, restore_best{};
  uint64_t seed{};
  uint64_t cache_seed = 0;   // seeds the cache's sampling streams
  size_t cache_samples = 1;  // tower samples averaged per cached row

  template <typename Config>
  static TrainerSpec From(std::string name, const Config& c) {
    return {.name = std::move(name),
            .corpus = c.corpus,
            .num_negatives = c.num_negatives,
            .epochs = c.epochs,
            .batch_size = c.batch_size,
            .max_pairs_per_epoch = c.max_pairs_per_epoch,
            .early_stopping_patience = c.early_stopping_patience,
            .cross_negative_fraction = c.cross_negative_fraction,
            .internal_val_fraction = c.internal_val_fraction,
            .learning_rate = c.learning_rate,
            .pretrain_base = c.pretrain_base,
            .freeze_pretrained = c.freeze_pretrained,
            .restore_best = c.restore_best,
            .seed = c.seed};
  }
};

/// A tower's parameters as the trainer sees them. Only what Adam steps can
/// change during the epochs, so that is all the best-epoch snapshot holds.
struct TowerParams {
  TowerParams(ag::Var b, ag::Var c)
      : base(std::move(b)), context(std::move(c)) {}

  ag::Var base, context;  // [V, base_dim]; pretraining writes them
  std::vector<ag::Var> trainable;  // every other parameter Adam steps
  /// The output projections (HybridGNN's W_r, GATNE's M_r), also in
  /// `trainable`: while all are zero the trainer skips the tower.
  std::vector<ag::Var> output;

  void Add(const std::vector<ag::Var>& ps) {
    trainable.insert(trainable.end(), ps.begin(), ps.end());
  }
};

/// The training protocol HybridGNN and GATNE share (paper Sec. III-E):
/// relation-blind SGNS pretraining of the base and context tables on pairs
/// drawn from uniform walks and the direct edges, minibatch fine-tuning on
/// the link objective against relationship-aware negatives with early
/// stopping on an internal validation holdout and best-epoch restore, then
/// the embedding cache. While every output projection is zero, validation
/// and the cache read the base table, with the bits the tower would give.
///
/// With options.num_threads > 1 pretraining (Hogwild), the epochs
/// (data-parallel shards, per-worker gradient sinks reduced on the main
/// thread before each Adam step) and the cache use worker threads;
/// options.deterministic keeps pretraining and epochs serial. One thread
/// gives the same bits on every run.
class MinibatchTrainer {
 public:
  MinibatchTrainer(TrainerSpec spec, const FitOptions& options);

  /// Trains `tower` on g and fills `cache` (cleared first). The tower type
  /// has a `NodeSketch` with a `v` member, SampleNode(g, v, rng, NodeSketch*)
  /// drawing all of a node's samples into a reused slot, and a batched
  /// ForwardSketches(span<const NodeSketch>) returning one [R * n, base_dim]
  /// Var, row r * n + i for sketch i. `rng` is the model's stream, already
  /// past parameter initialization. Fails with FailedPrecondition when the
  /// graph has no edge or a pretrained table, minibatch loss or trained
  /// parameter is not finite.
  template <typename Tower>
  Status Fit(const MultiplexHeteroGraph& g, const Tower& tower,
             const TowerParams& params, Rng& rng,
             RelationEmbeddingCache* cache);

  double last_epoch_loss() const { return last_epoch_loss_; }

 private:
  struct BatchRow {
    int lhs, rhs;  // endpoint sketch ordinals
    RelationId rel;
    float label;
  };
  /// (batch BCE, element count) of edges [start, end) with `rng`.
  using BatchFn =
      std::function<std::pair<double, size_t>(size_t, size_t, Rng&)>;

  /// Edge check, pretraining, the split and the fixed validation
  /// negatives, in that RNG order.
  Status Prepare(const MultiplexHeteroGraph& g, const TowerParams& params,
                 Rng& rng);
  /// Epoch loop with early stopping and best-epoch restore.
  Status RunEpochs(const BatchFn& run_batch,
                   const std::function<double()>& validation_auc,
                   const TowerParams& params, Rng& rng);

  /// dst[j] += src[j] / samples for one of a cached row's `samples` tower
  /// rows, taken in sample order into a zeroed dst; a plain copy when
  /// samples == 1. Both cache paths average through it, so their rows
  /// match bit for bit.
  static void AddCacheSample(const float* src, size_t samples, size_t cols,
                             float* dst);
  /// A validation edge's wins (1 per negative its positive outscores, 1/2
  /// per tie) from its src, dst and two negative rows, each dot product
  /// accumulated in double in column order. Both validation paths score
  /// through it.
  static double EdgeWins(const float* u, const float* v, const float* x,
                         const float* x2, size_t cols);
  /// True when every output projection holds only +0.0f bits: then the
  /// tower's local branch e_{v,r} W_r is +0 (its rows are finite, which
  /// the per-epoch parameter check keeps so) and e*_{v,r} = e_v + 0.
  static bool OutputsZero(const TowerParams& params);
  /// The validation AUC from base-row dot products, accumulated as the
  /// tower path accumulates its rows'.
  double BaseValidationAuc(const Tensor& base) const;
  /// The cache from the base table: each node's row, averaged over the
  /// cache samples as the tower path averages them, in all R slots.
  Tensor BaseCacheTable(const Tensor& base, size_t num_relations) const;
  /// The cache from the tower over V * cache_samples sketches of width
  /// `dim`, chunked. Serial: one stream in node order. Parallel: a forked
  /// stream per node, so the table is invariant to the thread count.
  template <typename Tower>
  Tensor TowerCacheTable(const MultiplexHeteroGraph& g, const Tower& tower,
                         size_t dim) const;

  friend struct MinibatchTrainerTestPeer;  // tower vs base-table cache

  TrainerSpec spec_;
  const FitOptions& options_;
  size_t threads_;        // cache
  size_t train_threads_;  // pretraining and epochs
  std::unique_ptr<NegativeSampler> neg_sampler_;
  std::vector<EdgeTriple> train_edges_, val_edges_;
  std::vector<NodeId> val_negs_;  // two per validation edge
  double last_epoch_loss_ = 0.0;
};

template <typename Tower>
Status MinibatchTrainer::Fit(const MultiplexHeteroGraph& g,
                             const Tower& tower, const TowerParams& params,
                             Rng& rng, RelationEmbeddingCache* cache) {
  using Sketch = typename Tower::NodeSketch;
  *cache = {};
  HYBRIDGNN_RETURN_IF_ERROR(Prepare(g, params, rng));

  std::vector<Sketch> val_sketches;
  auto validation_auc = [&]() {
    if (OutputsZero(params)) return BaseValidationAuc(params.base->value);
    // src, dst and two negatives per edge, one forward per chunk.
    Rng val_rng(spec_.seed ^ 0x7A11);
    double wins = 0.0;
    for (size_t lo = 0; lo < val_edges_.size(); lo += kForwardChunk / 4) {
      const size_t hi = std::min(val_edges_.size(), lo + kForwardChunk / 4);
      val_sketches.resize(4 * (hi - lo));
      Sketch* sk = val_sketches.data();
      for (size_t i = lo; i < hi; ++i) {
        const EdgeTriple& e = val_edges_[i];
        const NodeId* negs = &val_negs_[2 * i];
        for (NodeId v : {e.src, e.dst, negs[0], negs[1]}) {
          tower.SampleNode(g, v, val_rng, sk++);
        }
      }
      const ag::Var all = tower.ForwardSketches(val_sketches);
      const Tensor& rows = all->value;
      const size_t n = val_sketches.size();
      for (size_t i = lo; i < hi; ++i) {
        const size_t at = val_edges_[i].rel * n + 4 * (i - lo);
        wins += EdgeWins(rows.RowPtr(at), rows.RowPtr(at + 1),
                         rows.RowPtr(at + 2), rows.RowPtr(at + 3),
                         rows.cols());
      }
    }
    return wins / (2.0 * static_cast<double>(val_edges_.size()));
  };

  auto run_batch = [&](size_t start, size_t end, Rng& brng) {
    // Sample first, in a node-at-a-time loop's RNG order: a node's samples
    // at its first reference, negatives in between. Thread-local scratch,
    // sketch slots included, is reused across batches; a linear scan finds
    // a batch's few hundred nodes faster than a hash map.
    static thread_local std::vector<Sketch> sketches;
    static thread_local std::vector<BatchRow> brows;
    static thread_local std::vector<float> labels;
    static thread_local std::vector<int32_t> lhs, rhs;
    size_t n = 0;
    brows.clear();
    labels.clear();
    lhs.clear();
    rhs.clear();
    auto node_ord = [&](NodeId v) -> int {
      for (size_t i = 0; i < n; ++i) {
        if (sketches[i].v == v) return static_cast<int>(i);
      }
      if (sketches.size() == n) sketches.emplace_back();
      tower.SampleNode(g, v, brng, &sketches[n]);
      return static_cast<int>(n++);
    };
    for (size_t i = start; i < end; ++i) {
      const EdgeTriple& e = train_edges_[i];
      const int src_ord = node_ord(e.src);
      brows.push_back(BatchRow{src_ord, node_ord(e.dst), e.rel, 1.0f});
      for (size_t k = 0; k < spec_.num_negatives; ++k) {
        const NodeId x = neg_sampler_->SampleRelationAware(
            e.src, e.dst, e.rel, spec_.cross_negative_fraction, brng);
        brows.push_back(BatchRow{src_ord, node_ord(x), e.rel, 0.0f});
      }
    }
    // Then one batched tower over the distinct nodes; each loss row gathers
    // its endpoints' relation rows out of it.
    for (const BatchRow& row : brows) {
      labels.push_back(row.label);
      lhs.push_back(static_cast<int32_t>(row.rel * n + row.lhs));
      rhs.push_back(static_cast<int32_t>(row.rel * n + row.rhs));
    }
    ag::Var all =
        tower.ForwardSketches(std::span<const Sketch>(sketches.data(), n));
    ag::Var loss = ag::BceWithLogits(
        ag::RowwiseDot(ag::GatherRows(all, lhs), ag::GatherRows(all, rhs)),
        labels);
    ag::Backward(loss);
    return std::make_pair(static_cast<double>(loss->value.At(0, 0)),
                          labels.size());
  };

  HYBRIDGNN_RETURN_IF_ERROR(RunEpochs(run_batch, validation_auc, params, rng));

  obs::ScopedTimer cache_timer(obs::Stage("core/embedding_cache"));
  Tensor table =
      OutputsZero(params)
          ? BaseCacheTable(params.base->value, g.num_relations())
          : TowerCacheTable(g, tower, params.base->value.cols());
  *cache = RelationEmbeddingCache(std::move(table), g.num_relations());
  options_.Report("cache", 1, 1);
  return Status::OK();
}

template <typename Tower>
Tensor MinibatchTrainer::TowerCacheTable(const MultiplexHeteroGraph& g,
                                         const Tower& tower,
                                         size_t dim) const {
  using Sketch = typename Tower::NodeSketch;
  const size_t samples = spec_.cache_samples;
  const size_t chunk_nodes = kForwardChunk / samples;
  const size_t num_rel = g.num_relations();
  Tensor table(g.num_nodes() * num_rel, dim);
  const Rng cache_master(spec_.cache_seed);
  Rng cache_rng(spec_.cache_seed);
  auto cache_chunk = [&](size_t c, bool forked) {
    const size_t lo = c * chunk_nodes;
    const size_t hi = std::min(g.num_nodes(), lo + chunk_nodes);
    std::vector<Sketch> sketches(samples * (hi - lo));
    for (size_t v = lo; v < hi; ++v) {
      Rng node_rng = forked ? cache_master.Fork(v) : Rng(0);
      for (size_t s = 0; s < samples; ++s) {
        tower.SampleNode(g, static_cast<NodeId>(v),
                         forked ? node_rng : cache_rng,
                         &sketches[samples * (v - lo) + s]);
      }
    }
    const ag::Var all = tower.ForwardSketches(sketches);
    const Tensor& rows = all->value;
    // A chunk writes only its own nodes' rows.
    const size_t n = sketches.size();
    for (size_t v = lo; v < hi; ++v) {
      for (size_t s = 0; s < samples; ++s) {
        for (size_t r = 0; r < num_rel; ++r) {
          AddCacheSample(rows.RowPtr(r * n + samples * (v - lo) + s), samples,
                         dim, table.RowPtr(v * num_rel + r));
        }
      }
    }
  };
  const size_t num_chunks = (g.num_nodes() + chunk_nodes - 1) / chunk_nodes;
  if (threads_ > 1) {
    RunParallel(threads_, num_chunks,
                [&](size_t c) { cache_chunk(c, /*forked=*/true); });
  } else {
    for (size_t c = 0; c < num_chunks; ++c) cache_chunk(c, false);
  }
  return table;
}

}  // namespace hybridgnn

#endif  // HYBRIDGNN_CORE_MINIBATCH_TRAINER_H_
