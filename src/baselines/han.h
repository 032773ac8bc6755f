#ifndef HYBRIDGNN_BASELINES_HAN_H_
#define HYBRIDGNN_BASELINES_HAN_H_

#include <string>
#include <vector>

#include "baselines/common.h"
#include "graph/metapath.h"

namespace hybridgnn {

/// HAN (Wang et al., WWW 2019): heterogeneous graph attention — per-metapath
/// neighbor aggregation (node level) fused by semantic-level attention.
/// Non-multiplex: it learns a single embedding per node (relation ignored),
/// which is exactly how the paper evaluates it. Trained with link BCE.
class Han : public NodeTableModel {
 public:
  struct Options {
    size_t dim = 64;
    size_t semantic_hidden = 32;
    size_t fanout = 6;
    LinkTrainOptions train;
    uint64_t seed = 23;
  };

  Han(const Options& options, std::vector<MetapathScheme> schemes)
      : options_(options), schemes_(std::move(schemes)) {}

  std::string name() const override { return "HAN"; }
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
  std::vector<MetapathScheme> schemes_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_HAN_H_
