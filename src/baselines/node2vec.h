#ifndef HYBRIDGNN_BASELINES_NODE2VEC_H_
#define HYBRIDGNN_BASELINES_NODE2VEC_H_

#include <string>

#include "baselines/common.h"
#include "sampling/corpus.h"
#include "sampling/sgns.h"

namespace hybridgnn {

/// node2vec (Grover & Leskovec, KDD 2016): skip-gram over pairs drawn from
/// second-order biased walks with return parameter p and in-out parameter q
/// (sampling/corpus.h's PairStream, no direct-edge pairs). Relation-blind.
/// options.num_threads runs Hogwild SGNS, each worker drawing its own
/// walks; options.deterministic keeps it serial. Fails with InvalidArgument
/// on a bad SGNS learning rate and with FailedPrecondition when the graph
/// has no edge or the tables go non-finite.
class Node2Vec : public NodeTableModel {
 public:
  struct Options {
    SgnsOptions sgns;
    CorpusOptions corpus;
    double p = 0.5;
    double q = 2.0;
    uint64_t seed = 11;
  };

  explicit Node2Vec(const Options& options) : options_(options) {}

  std::string name() const override { return "node2vec"; }
  Status Fit(const MultiplexHeteroGraph& g,
             const FitOptions& options) override;
  using EmbeddingModel::Fit;

 private:
  Options options_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_NODE2VEC_H_
