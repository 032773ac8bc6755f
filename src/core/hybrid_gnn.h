#ifndef HYBRIDGNN_CORE_HYBRID_GNN_H_
#define HYBRIDGNN_CORE_HYBRID_GNN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "eval/embedding_model.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "graph/metapath.h"
#include "nn/aggregator.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "sampling/negative_sampler.h"
#include "tensor/optimizer.h"

namespace hybridgnn {

/// HybridGNN (Gu et al., ICDE 2022): relationship-specific node embeddings
/// via (1) randomized inter-relationship exploration, (2) hybrid aggregation
/// flows over intra-relationship metapath-guided neighbors plus exploration
/// neighbors, and (3) hierarchical (metapath-level, then relationship-level)
/// self-attention. Trained with skip-gram over metapath-based random walks
/// and heterogeneous negative sampling.
///
/// Usage:
///   HybridGnn model(config, schemes);
///   model.Fit(train_graph);
///   Tensor e = model.Embedding(v, r);   // e*_{v,r}, 1 x base_dim
class HybridGnn : public EmbeddingModel, public Module {
 public:
  /// `schemes` are the predefined intra-relationship metapath schemes PS_r
  /// (the dataset profile's P column). They are matched to (node, relation)
  /// pairs by source type at forward time.
  HybridGnn(const HybridGnnConfig& config,
            std::vector<MetapathScheme> schemes);

  std::string name() const override { return "HybridGNN"; }

  /// Builds the walk corpus, trains with Adam, then freezes and caches all
  /// e*_{v,r} for fast scoring. With options.num_threads > 1 the corpus,
  /// SGNS pretraining, minibatch epochs (per-worker gradient sinks reduced
  /// on the main thread before each Adam step) and the embedding cache all
  /// run on worker threads; options.deterministic keeps the racy stages
  /// serial. num_threads <= 1 is the serial path: the same seed gives the
  /// same bits on every run. Fails with FailedPrecondition when a
  /// minibatch loss is not finite.
  Status Fit(const MultiplexHeteroGraph& train_graph,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

  /// Cached final embedding e*_{v,r} (valid after Fit).
  Tensor Embedding(NodeId v, RelationId r) const override;

  /// Batched lookup straight out of the frozen cache: one gather, no
  /// per-query Tensor allocations.
  Tensor EmbeddingsFor(std::span<const std::pair<NodeId, RelationId>> queries)
      const override;

  /// Mean attention received by each aggregation flow for (v, r): the
  /// column-means of the metapath-level attention matrix (Fig. 6). Order:
  /// one entry per matching metapath scheme, then (last) the randomized
  /// exploration flow when enabled. Valid after Fit.
  std::vector<double> MetapathAttentionScores(NodeId v, RelationId r) const;

  /// Labels matching MetapathAttentionScores entries ("U-I-U", ..., "rand").
  std::vector<std::string> FlowLabels(NodeId v, RelationId r) const;

  /// Mean training loss of the last epoch (for convergence tests).
  double last_epoch_loss() const { return last_epoch_loss_; }

  const HybridGnnConfig& config() const { return config_; }

 private:
  friend struct HybridGnnTestPeer;  // differential tests of the two towers

  /// One sampled aggregation flow for a (node, relation) pair: the
  /// level-structured neighbor lists plus the aggregator that folds them.
  /// Sampling is split from graph construction so a whole minibatch (or
  /// validation pass, or cache chunk) is sampled first, in the RNG order of
  /// the node-at-a-time loop, and then built as one batched graph.
  struct FlowSketch {
    std::vector<std::vector<NodeId>> levels;
    const MeanAggregator* agg = nullptr;
  };
  /// All sampled flows for one node: per_rel[r] lists the flows FlowStack
  /// would build for relation r (empty -> the self-embedding fallback).
  struct NodeSketch {
    NodeId v = 0;
    std::vector<std::vector<FlowSketch>> per_rel;
  };

  /// Draws every random sample the node's tower consumes, in a fixed RNG
  /// order, without building any graph.
  void SampleNode(const MultiplexHeteroGraph& g, NodeId v, Rng& rng,
                  NodeSketch* out) const;

  /// The batched tower: e*_{v,r} for every sketch and relation as one
  /// [R * n, base_dim] Var, row r * n + i holding sketch i's relation r
  /// (n = sketches.size(); a node may appear in several sketches). One
  /// frontier gather + segment mean per (aggregator, depth) group, one
  /// attention call per flow count, one block product for all W_r.
  /// Consumes no randomness; on the scalar kernel backend every row equals
  /// ForwardNodeSketch's bit for bit.
  ag::Var ForwardSketches(std::span<const NodeSketch> sketches) const;

  /// The per-node tower: one sketch -> [R, base_dim]. Kept only as the
  /// reference the batched tower is tested against; no Fit path uses it.
  ag::Var ForwardNodeSketch(const NodeSketch& sk) const;

  /// One aggregation flow: a level-structured CSR frontier (deepest level
  /// first, see BuildLevelFrontier) -> [1, edge_dim].
  ag::Var AggregateLevels(const MinibatchFrontier& f,
                          const MeanAggregator& agg) const;

  /// The [m, edge_dim] stack of flow embeddings for (v, r).
  ag::Var FlowStack(const MultiplexHeteroGraph& g, NodeId v, RelationId r,
                    Rng& rng) const;

  /// Metapath-level fusion of a flow stack -> [1, edge_dim]
  /// (attention-reweighted mean, or plain mean under the ablation).
  ag::Var FuseFlows(const ag::Var& stack) const;

  HybridGnnConfig config_;
  std::vector<MetapathScheme> schemes_;

  // Trainable components (built lazily in Fit once V is known).
  std::unique_ptr<EmbeddingTable> base_;       // e_v            [V, base_dim]
  std::unique_ptr<EmbeddingTable> context_;    // c_j            [V, base_dim]
  std::unique_ptr<EmbeddingTable> edge_init_;  // h^(0)          [V, edge_dim]
  std::vector<std::unique_ptr<MeanAggregator>> scheme_aggs_;
  std::unique_ptr<MeanAggregator> rand_agg_;
  std::unique_ptr<SelfAttention> metapath_attn_;   // weights-only (Eq. 6)
  std::unique_ptr<SelfAttention> relation_attn_;   // weights-only (Eq. 8)
  std::vector<ag::Var> w_rel_;             // W_{v,r}       [edge, base]

  const MultiplexHeteroGraph* graph_ = nullptr;  // set during Fit
  Tensor cache_;       // [(V * R), base_dim] final embeddings
  size_t num_relations_ = 0;
  double last_epoch_loss_ = 0.0;
  bool fitted_ = false;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_CORE_HYBRID_GNN_H_
