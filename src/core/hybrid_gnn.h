#ifndef HYBRIDGNN_CORE_HYBRID_GNN_H_
#define HYBRIDGNN_CORE_HYBRID_GNN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/minibatch_trainer.h"
#include "eval/embedding_model.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "graph/metapath.h"
#include "nn/aggregator.h"
#include "nn/attention.h"
#include "nn/embedding.h"

namespace hybridgnn {

/// HybridGNN (Gu et al., ICDE 2022): relationship-specific node embeddings
/// via (1) randomized inter-relationship exploration, (2) hybrid aggregation
/// flows over intra-relationship metapath-guided neighbors plus exploration
/// neighbors, and (3) hierarchical (metapath-level, then relationship-level)
/// self-attention. Pretrained with skip-gram over random-walk pairs, then
/// trained on the link objective with heterogeneous negative sampling.
///
/// Usage:
///   HybridGnn model(config, schemes);
///   model.Fit(train_graph);
///   Tensor e = model.Embedding(v, r);   // e*_{v,r}, 1 x base_dim
class HybridGnn : public EmbeddingModel {
 public:
  /// `schemes` are the predefined intra-relationship metapath schemes PS_r
  /// (the dataset profile's P column). They are matched to (node, relation)
  /// pairs by source type at forward time.
  HybridGnn(const HybridGnnConfig& config,
            std::vector<MetapathScheme> schemes);

  std::string name() const override { return "HybridGNN"; }

  /// Validates the config, builds the modules and hands the tower to the
  /// shared MinibatchTrainer (core/minibatch_trainer.h): SGNS pretraining
  /// on a walk-pair stream, minibatch epochs with early stopping, then the
  /// frozen cache of every e*_{v,r}, each row the mean of four tower
  /// samples.
  /// Threading and determinism follow the trainer; num_threads <= 1 gives
  /// the same bits on every run. Fails with FailedPrecondition when the
  /// graph has no edge or training goes non-finite.
  Status Fit(const MultiplexHeteroGraph& train_graph,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

  /// Cached final embedding e*_{v,r}, and the batched lookup (valid after
  /// Fit; a node or relation outside the fitted graph dies).
  Tensor Embedding(NodeId v, RelationId r) const override {
    return cache_.Embedding(v, r);
  }
  Tensor EmbeddingsFor(std::span<const std::pair<NodeId, RelationId>> queries)
      const override {
    return cache_.EmbeddingsFor(queries);
  }

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
  friend class MinibatchTrainer;    // drives SampleNode and ForwardSketches
  friend struct HybridGnnTestPeer;  // differential tests of the two towers

  /// The trainer's settings: the config's protocol fields, the cache seed
  /// and four cache samples per row.
  TrainerSpec Spec() const;

  /// One sampled aggregation flow for a (node, relation) pair: the
  /// level-structured neighbor lists plus the aggregator that folds them.
  /// Sampling is split from graph construction so the trainer samples a
  /// whole minibatch in RNG order and then builds one batched graph.
  struct FlowSketch {
    std::vector<std::vector<NodeId>> levels;
    const MeanAggregator* agg = nullptr;
  };
  /// All sampled flows for one node: per_rel[r] lists relation r's flows
  /// (empty -> the self-embedding fallback).
  struct NodeSketch {
    NodeId v = 0;
    std::vector<std::vector<FlowSketch>> per_rel;
  };

  /// Samples the aggregation flows of (v, r) into `out` (cleared first):
  /// one per matching intra-relationship scheme, in scheme order (or the
  /// relation-blind flow under the "w/o hybrid" ablation), then the
  /// exploration flow when enabled.
  void SampleRelationFlows(const MultiplexHeteroGraph& g, NodeId v,
                           RelationId r, Rng& rng,
                           std::vector<FlowSketch>* out) const;

  /// Draws every random sample the node's tower consumes, relation by
  /// relation, without building any graph.
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

  /// The [m, edge_dim] stack of one relation's sampled flows of node v
  /// (v's initial edge embedding when there is none).
  ag::Var FlowStack(const std::vector<FlowSketch>& flows, NodeId v) const;

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
  RelationEmbeddingCache cache_;  // final e*_{v,r}
  size_t num_relations_ = 0;
  double last_epoch_loss_ = 0.0;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_CORE_HYBRID_GNN_H_
