#ifndef HYBRIDGNN_BASELINES_LINE_H_
#define HYBRIDGNN_BASELINES_LINE_H_

#include <string>

#include "baselines/common.h"

namespace hybridgnn {

/// LINE (Tang et al., WWW 2015): first-order + second-order proximity via
/// edge sampling with negative sampling; the final embedding concatenates
/// the two halves (order-1 first, order-2 second). Relation-blind (edges
/// pooled across relations).
class Line : public NodeTableModel {
 public:
  struct Options {
    /// Total embedding width; each order gets dim/2.
    size_t dim = 128;
    size_t negatives = 5;
    float learning_rate = 0.025f;
    /// Edge samples per order = samples_per_edge * |E|.
    size_t samples_per_edge = 40;
    uint64_t seed = 13;
  };

  explicit Line(const Options& options) : options_(options) {}

  std::string name() const override { return "LINE"; }
  /// options.num_threads > 1 shards the edge-sample loop Hogwild-style
  /// (lock-free updates, per-worker sample streams); deterministic or
  /// single-threaded runs keep the original serial loop.
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_LINE_H_
