#ifndef HYBRIDGNN_BASELINES_REGISTRY_H_
#define HYBRIDGNN_BASELINES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "eval/embedding_model.h"
#include "graph/metapath.h"

namespace hybridgnn {

/// Shared compute budget for experiment harnesses: scales every model's
/// training effort coherently so benches stay laptop-fast by default and can
/// be cranked up via environment overrides.
struct ModelBudget {
  /// Multiplies epochs / optimization steps of every model (1.0 = default).
  double effort = 1.0;
  /// Random-walk settings shared by walk-based models.
  size_t num_walks = 6;
  size_t walk_length = 8;
  size_t window = 3;
  /// Skip-gram pair cap per epoch for SGNS-style models.
  size_t max_pairs_per_epoch = 20000;
};

/// All model names accepted by CreateModel, in the paper's table order:
/// DeepWalk, node2vec, LINE, GCN, GraphSage, HAN, MAGNN, R-GCN, GATNE,
/// HybridGNN.
std::vector<std::string> AllModelNames();

/// Instantiates a model by paper name. `schemes` are the dataset's
/// predefined metapath schemes (used by HAN, MAGNN, GATNE and HybridGNN;
/// ignored by the relation-blind models). Deterministic in `seed`.
StatusOr<std::unique_ptr<EmbeddingModel>> CreateModel(
    const std::string& name, const std::vector<MetapathScheme>& schemes,
    uint64_t seed, const ModelBudget& budget);

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_REGISTRY_H_
