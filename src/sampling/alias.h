#ifndef HYBRIDGNN_SAMPLING_ALIAS_H_
#define HYBRIDGNN_SAMPLING_ALIAS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace hybridgnn {

/// Walker's alias method: O(n) construction, O(1) weighted sampling.
/// Used by the negative sampler (unigram^0.75) and LINE's edge sampler.
class AliasTable {
 public:
  AliasTable() = default;
  /// Builds from non-negative weights; at least one must be positive.
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws an index in [0, size()) with probability proportional to weight:
  /// a uniform slot i, then i itself with probability prob(i), else
  /// alias(i).
  size_t Sample(Rng& rng) const {
    const size_t i = static_cast<size_t>(rng.UniformUint64(prob_.size()));
    return rng.UniformDouble() < prob_[i] ? i : alias_[i];
  }

  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }
  /// Slot i's keep probability and its alias index.
  double prob(size_t i) const { return prob_[i]; }
  size_t alias(size_t i) const { return alias_[i]; }

 private:
  std::vector<double> prob_;
  std::vector<size_t> alias_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SAMPLING_ALIAS_H_
