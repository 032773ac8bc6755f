#ifndef HYBRIDGNN_BASELINES_GATNE_H_
#define HYBRIDGNN_BASELINES_GATNE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/minibatch_trainer.h"
#include "eval/embedding_model.h"
#include "graph/frontier.h"
#include "graph/metapath.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "sampling/corpus.h"
#include "tensor/tensor.h"

namespace hybridgnn {

/// GATNE-T (Cen et al., KDD 2019): relationship-specific embeddings
///   e_{v,r} = b_v + alpha * M_r^T (U_v a_{v,r}),
/// where b_v is a shared base embedding, U_v stacks per-relation edge
/// embeddings aggregated from direct neighbors, and a_{v,r} is a softmax
/// attention over relations. Trained with skip-gram + heterogeneous
/// negative sampling over metapath walks — the strongest baseline in the
/// paper and its runner-up in most columns.
class Gatne : public EmbeddingModel {
 public:
  struct Options {
    size_t base_dim = 128;   // b_v
    size_t edge_dim = 8;     // per-relation edge embeddings
    size_t attn_hidden = 16;
    size_t fanout = 8;
    size_t num_negatives = 5;
    /// Fraction of relationship-aware (cross-relation) negatives — matches
    /// HybridGNN's P_Neg for a fair comparison.
    double cross_negative_fraction = 0.5;
    size_t epochs = 10;
    size_t batch_size = 128;
    /// Cap on the training edges each fine-tuning epoch uses (0 = all);
    /// pretraining does not read it.
    size_t max_pairs_per_epoch = 20000;
    float learning_rate = 1e-2f;
    /// Pretrain base/context tables with manual-SGD skip-gram on a
    /// relation-blind uniform-walk pairs (as in the GATNE reference
    /// implementation) and freeze them during end-to-end training.
    bool pretrain_base = true;
    bool freeze_pretrained = false;
    /// Scale of the relation-specific branch (damps untrained noise);
    /// must be finite.
    float local_scale = 0.5f;
    /// Early stopping on an internal validation holdout, as for HybridGNN.
    size_t early_stopping_patience = 8;
    double internal_val_fraction = 0.10;
    bool restore_best = true;
    CorpusOptions corpus;
    uint64_t seed = 37;
  };

  Gatne(const Options& options, std::vector<MetapathScheme> schemes)
      : options_(options), schemes_(std::move(schemes)) {}

  std::string name() const override { return "GATNE"; }
  /// Validates the options, builds the modules and trains them with the
  /// MinibatchTrainer HybridGNN uses, one tower sample per cached row.
  /// options.num_threads parallelizes SGNS pretraining, the
  /// minibatch epochs (data-parallel shards) and the cache;
  /// options.deterministic keeps pretraining and epochs serial. Fails with
  /// InvalidArgument when learning_rate is not finite and positive or
  /// local_scale is not finite, and with FailedPrecondition when the graph
  /// has no edge or training goes non-finite.
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;
  Tensor Embedding(NodeId v, RelationId r) const override {
    return cache_.Embedding(v, r);
  }
  Tensor EmbeddingsFor(std::span<const std::pair<NodeId, RelationId>> queries)
      const override {
    return cache_.EmbeddingsFor(queries);
  }

 private:
  friend class MinibatchTrainer;  // drives SampleNode and ForwardSketches
  friend struct GatneTestPeer;    // differential tests of the two towers

  /// The trainer's settings: the options' protocol fields, the cache seed
  /// and one cache sample per row.
  TrainerSpec Spec() const;

  /// Node v's sampled per-relation neighbor frontier (one segment per
  /// relation), its indices remapped into edge-table rows.
  struct NodeSketch {
    NodeId v = 0;
    MinibatchFrontier frontier;
  };

  /// Samples v's frontier: all the randomness the tower consumes.
  void SampleNode(const MultiplexHeteroGraph& g, NodeId v, Rng& rng,
                  NodeSketch* out) const;

  /// The batched tower: e_{v,r} for every sketch and relation as one
  /// [R * n, base_dim] Var, row r * n + i holding sketch i's relation r (a
  /// node may appear in several sketches). One frontier gather + segment
  /// mean, one attention projection, the relation attention as block
  /// products and one block product for all M_r. Consumes no randomness;
  /// on the scalar kernel backend every row equals ForwardNodeSketch's bit
  /// for bit.
  ag::Var ForwardSketches(std::span<const NodeSketch> sketches) const;

  /// The per-node tower: one sketch -> [R, base_dim]. Kept only as the
  /// reference the batched tower is tested against; no Fit path uses it.
  ag::Var ForwardNodeSketch(const NodeSketch& sk) const;

  Options options_;
  std::vector<MetapathScheme> schemes_;

  std::unique_ptr<EmbeddingTable> base_;
  std::unique_ptr<EmbeddingTable> context_;
  std::unique_ptr<EmbeddingTable> edge_embed_;  // [V * R, edge_dim]
  std::unique_ptr<Linear> attn_proj_;           // edge_dim -> attn_hidden
  std::vector<ag::Var> attn_query_;             // per relation [hidden, 1]
  std::vector<ag::Var> m_rel_;                  // per relation [edge, base]

  size_t num_relations_ = 0;
  RelationEmbeddingCache cache_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_GATNE_H_
