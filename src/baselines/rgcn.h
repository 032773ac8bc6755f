#ifndef HYBRIDGNN_BASELINES_RGCN_H_
#define HYBRIDGNN_BASELINES_RGCN_H_

#include <string>
#include <vector>

#include "baselines/common.h"

namespace hybridgnn {

/// R-GCN (Schlichtkrull et al., ESWC 2018): two layers of relational graph
/// convolution, h^{l+1} = sigma(sum_r (1/c) A_r h^l W_r^l + h^l W_0^l), with
/// a DistMult decoder per relation — score_r(u,v) = h_u^T diag(w_r) h_v —
/// trained with cross-entropy against sampled negatives (the paper's
/// autoencoder formulation).
class Rgcn : public NodeTableModel {
 public:
  struct Options {
    size_t input_dim = 32;
    size_t hidden_dim = 32;
    size_t output_dim = 32;
    LinkTrainOptions train{.steps = 60, .batch_edges = 512};
    uint64_t seed = 31;
  };

  explicit Rgcn(const Options& options) : options_(options) {}

  std::string name() const override { return "R-GCN"; }
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;
  /// DistMult scoring (relation-specific even though Embedding is shared).
  double Score(NodeId u, NodeId v, RelationId r) const override;
  /// DistMult is not a dot of Embedding rows, so the batched default would
  /// diverge from Score; route every element through Score instead.
  std::vector<double> ScoreMany(
      std::span<const EdgeTriple> queries) const override;

 private:
  Options options_;
  Tensor relation_diag_;  // [R, out]
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_RGCN_H_
