#ifndef HYBRIDGNN_EVAL_EMBEDDING_MODEL_H_
#define HYBRIDGNN_EVAL_EMBEDDING_MODEL_H_

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "tensor/tensor.h"

namespace hybridgnn {

/// One progress tick emitted during Fit. `phase` names the pipeline stage
/// ("corpus", "pretrain", "epoch", "cache", ...); `step` counts from 1 to
/// `total_steps` within that phase (total_steps == 0 when unknown).
struct FitProgress {
  std::string phase;
  size_t step = 0;
  size_t total_steps = 0;
};

/// Cross-model training options. Every model accepts these; models that
/// have no parallel path simply train serially regardless of num_threads.
struct FitOptions {
  /// Worker threads for walk generation, SGNS pretraining, minibatch
  /// training and embedding-cache construction. 0 (the default) resolves
  /// through HYBRIDGNN_THREADS (common/env.h); 1 forces the serial path,
  /// which is bit-identical to the original single-threaded pipeline.
  size_t num_threads = 0;

  /// When true, every stage whose parallel schedule is nondeterministic
  /// (Hogwild SGNS, racy minibatch gradient order) falls back to its serial
  /// schedule, so repeated runs with the same seed and the same
  /// `num_threads` produce bit-identical models. Stages that are
  /// reproducible in parallel (the frozen-embedding cache) stay parallel.
  bool deterministic = false;

  /// Invoked from the main training thread at stage boundaries / epoch
  /// ticks. Must be cheap; never invoked concurrently.
  std::function<void(const FitProgress&)> progress_callback;

  /// `num_threads` with the 0 -> HYBRIDGNN_THREADS default applied.
  size_t threads() const;

  /// Emits a progress tick if a callback is installed.
  void Report(const char* phase, size_t step, size_t total_steps) const;
};

/// Common interface every model in this repo implements — HybridGNN and all
/// nine baselines. A model is fit on a *training* graph and then asked for
/// relationship-specific node embeddings; the evaluator scores candidate
/// links with sigmoid(dot(e(u|r), e(v|r))).
///
/// Relation-blind models (DeepWalk, GCN, ...) simply ignore `r`.
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  /// Model name for reports ("HybridGNN", "GATNE", ...).
  virtual std::string name() const = 0;

  /// Trains on `train_graph` under `options`. Must be called before
  /// Embedding/Score.
  virtual Status Fit(const MultiplexHeteroGraph& train_graph,
                     const FitOptions& options) = 0;

  /// Convenience overload: Fit with default options. Derived classes that
  /// override the two-argument Fit should add `using EmbeddingModel::Fit;`
  /// so this wrapper stays visible through their type.
  Status Fit(const MultiplexHeteroGraph& train_graph) {
    return Fit(train_graph, FitOptions{});
  }

  /// Relationship-specific embedding e*_{v,r} as a 1 x d row.
  virtual Tensor Embedding(NodeId v, RelationId r) const = 0;

  /// Batched embedding lookup: row i of the result is Embedding(queries[i]).
  /// The default calls Embedding per query; models with a cheaper bulk path
  /// (a frozen cache, a single gather) should override.
  virtual Tensor EmbeddingsFor(
      std::span<const std::pair<NodeId, RelationId>> queries) const;

  /// Link score for (u, v) under r. Default: dot of the two embeddings
  /// (monotone in sigmoid, so threshold-free metrics are unaffected).
  virtual double Score(NodeId u, NodeId v, RelationId r) const;

  /// Materializes the frozen table e*_{v,r} for one relation as a
  /// num_nodes x d tensor (row v = Embedding(v, r)) — the export hook the
  /// serve/ checkpoint writer builds on. Rows are produced in fixed-size
  /// chunks through EmbeddingsFor, chunks run across `num_threads` workers
  /// (0 defers to HYBRIDGNN_THREADS), and every chunk lands in its own row
  /// range, so the result is independent of the thread count.
  Tensor ExportRelationTable(size_t num_nodes, RelationId r,
                             size_t num_threads = 0) const;

  /// Batched link scoring: element i is Score(queries[i]). The default
  /// fetches both endpoints through EmbeddingsFor and takes row dot
  /// products — the batched equivalent of the default Score, so cached
  /// models pay one gather instead of N virtual calls + N small-tensor
  /// allocations. Models that override Score with a non-dot decoder must
  /// override this too (R-GCN's DistMult does).
  virtual std::vector<double> ScoreMany(
      std::span<const EdgeTriple> queries) const;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_EVAL_EMBEDDING_MODEL_H_
