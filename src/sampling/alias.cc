#include "sampling/alias.h"

#include "common/logging.h"

namespace hybridgnn {

AliasTable::AliasTable(const std::vector<double>& weights) {
  HYBRIDGNN_CHECK(!weights.empty()) << "AliasTable needs weights";
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    HYBRIDGNN_CHECK(w >= 0.0) << "AliasTable weights must be non-negative";
    total += w;
  }
  HYBRIDGNN_CHECK(total > 0.0) << "AliasTable needs a positive weight";

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const size_t s = small.back();
    small.pop_back();
    const size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) prob_[i] = 1.0;
  for (size_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

}  // namespace hybridgnn
