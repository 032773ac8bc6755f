#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace hybridgnn {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // xoshiro must not start at the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HYBRIDGNN_CHECK(lo <= hi) << "UniformInt requires lo <= hi";
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  // Avoid log(0).
  if (u1 < 1e-300) u1 = 1e-300;
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

uint64_t Rng::PowerLaw(double alpha, uint64_t max_value) {
  HYBRIDGNN_CHECK(max_value >= 1);
  if (max_value == 1) return 1;
  // Inverse-CDF sampling of the continuous Pareto on [1, max], discretized.
  const double u = UniformDouble();
  const double one_minus_alpha = 1.0 - alpha;
  double x;
  if (std::abs(one_minus_alpha) < 1e-9) {
    x = std::exp(u * std::log(static_cast<double>(max_value)));
  } else {
    const double max_pow = std::pow(static_cast<double>(max_value),
                                    one_minus_alpha);
    x = std::pow(1.0 + u * (max_pow - 1.0), 1.0 / one_minus_alpha);
  }
  uint64_t out = static_cast<uint64_t>(x);
  if (out < 1) out = 1;
  if (out > max_value) out = max_value;
  return out;
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Derive a child seed by hashing the parent state with the stream id.
  uint64_t mix = state_[0] ^ Rotl(state_[1], 13) ^ Rotl(state_[2], 29) ^
                 Rotl(state_[3], 47) ^ (stream_id * 0xD1342543DE82EF95ULL);
  return Rng(mix);
}

}  // namespace hybridgnn
