#ifndef HYBRIDGNN_BASELINES_GRAPHSAGE_H_
#define HYBRIDGNN_BASELINES_GRAPHSAGE_H_

#include <string>

#include "baselines/common.h"

namespace hybridgnn {

/// GraphSage (Hamilton et al., NeurIPS 2017): fan-out neighbor sampling +
/// mean aggregation, two layers, trained with link-prediction BCE.
/// Relation-blind (samples over the union of relations).
class GraphSage : public NodeTableModel {
 public:
  struct Options {
    size_t dim = 64;
    size_t num_layers = 2;
    size_t fanout = 6;
    LinkTrainOptions train;
    uint64_t seed = 19;
  };

  explicit GraphSage(const Options& options) : options_(options) {}

  std::string name() const override { return "GraphSage"; }
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_GRAPHSAGE_H_
