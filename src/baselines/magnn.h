#ifndef HYBRIDGNN_BASELINES_MAGNN_H_
#define HYBRIDGNN_BASELINES_MAGNN_H_

#include <string>
#include <vector>

#include "baselines/common.h"
#include "graph/metapath.h"

namespace hybridgnn {

/// MAGNN (Fu et al., WWW 2020): metapath-instance encoding. Each sampled
/// instance is encoded as the mean of *all* its node embeddings (including
/// intermediate nodes — the feature distinguishing MAGNN from HAN), fused by
/// intra-metapath mean pooling and inter-metapath semantic attention.
/// Non-multiplex, single embedding per node; trained with link BCE.
class Magnn : public NodeTableModel {
 public:
  struct Options {
    size_t dim = 64;
    size_t semantic_hidden = 32;
    size_t instances_per_path = 6;
    LinkTrainOptions train;
    uint64_t seed = 29;
  };

  Magnn(const Options& options, std::vector<MetapathScheme> schemes)
      : options_(options), schemes_(std::move(schemes)) {}

  std::string name() const override { return "MAGNN"; }
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
  std::vector<MetapathScheme> schemes_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_MAGNN_H_
