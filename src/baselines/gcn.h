#ifndef HYBRIDGNN_BASELINES_GCN_H_
#define HYBRIDGNN_BASELINES_GCN_H_

#include <string>

#include "baselines/common.h"

namespace hybridgnn {

/// GCN (Kipf & Welling, ICLR 2017): two-layer full-batch graph convolution
/// over the symmetric-normalized union adjacency (heterogeneity ignored, as
/// in the paper's baseline protocol), trained with link-prediction BCE on
/// training edges plus sampled negatives. Node features are a trainable
/// table (the datasets are featureless).
class Gcn : public NodeTableModel {
 public:
  struct Options {
    size_t input_dim = 64;
    size_t hidden_dim = 64;
    size_t output_dim = 64;
    LinkTrainOptions train{.steps = 60, .batch_edges = 512};
    uint64_t seed = 17;
  };

  explicit Gcn(const Options& options) : options_(options) {}

  std::string name() const override { return "GCN"; }
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_GCN_H_
