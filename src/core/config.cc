#include "core/config.h"

#include <cmath>

namespace hybridgnn {

Status HybridGnnConfig::Validate() const {
  if (!std::isfinite(learning_rate) || learning_rate <= 0.0f) {
    return Status::InvalidArgument(
        "learning_rate must be finite and positive");
  }
  if (!std::isfinite(local_scale)) {
    return Status::InvalidArgument("local_scale must be finite");
  }
  if (base_dim == 0 || edge_dim == 0 || hidden_dim == 0) {
    return Status::InvalidArgument("embedding dims must be positive");
  }
  if (fanout == 0) {
    return Status::InvalidArgument("fanout must be positive");
  }
  if (num_negatives == 0) {
    return Status::InvalidArgument("num_negatives must be positive");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (use_randomized_exploration && exploration_depth == 0) {
    return Status::InvalidArgument(
        "exploration_depth must be positive when exploration is enabled");
  }
  if (!use_hybrid_aggregation && !use_randomized_exploration) {
    // Still fine: the "w/o hybrid" variant substitutes a random-sampling
    // flow, so there is always at least one flow. Nothing to reject.
  }
  if (corpus.walk_length < 2 || corpus.window == 0 ||
      corpus.num_walks_per_node == 0) {
    return Status::InvalidArgument("corpus options must be positive");
  }
  return Status::OK();
}

}  // namespace hybridgnn
