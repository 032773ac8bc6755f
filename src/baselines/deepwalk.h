#ifndef HYBRIDGNN_BASELINES_DEEPWALK_H_
#define HYBRIDGNN_BASELINES_DEEPWALK_H_

#include <string>

#include "baselines/common.h"
#include "sampling/corpus.h"
#include "sampling/sgns.h"

namespace hybridgnn {

/// DeepWalk (Perozzi et al., KDD 2014): skip-gram over pairs drawn from
/// uniform random walks (sampling/corpus.h's PairStream, no direct-edge
/// pairs). Node and edge types are ignored, as in the paper's baseline
/// setup.
class DeepWalk : public NodeTableModel {
 public:
  struct Options {
    SgnsOptions sgns;
    CorpusOptions corpus;
    uint64_t seed = 7;
  };

  explicit DeepWalk(const Options& options) : options_(options) {}

  std::string name() const override { return "DeepWalk"; }
  /// options.num_threads runs Hogwild SGNS, each worker drawing its own
  /// walks; options.deterministic keeps it serial. Fails with
  /// InvalidArgument on a bad SGNS learning rate and with
  /// FailedPrecondition when the graph has no edge or the tables go
  /// non-finite.
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_DEEPWALK_H_
