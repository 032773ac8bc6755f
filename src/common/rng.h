#ifndef HYBRIDGNN_COMMON_RNG_H_
#define HYBRIDGNN_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace hybridgnn {

/// Deterministic, fast pseudo-random number generator (xoshiro256**),
/// seeded via SplitMix64. All randomness in the library flows through
/// explicitly seeded Rng instances so experiments reproduce bit-for-bit.
///
/// Not cryptographically secure; statistical quality is more than sufficient
/// for sampling-based graph learning.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // The draws the samplers make per skip-gram pair are defined here, in
  // the header, so their loops inline them.

  /// Returns the next 64 random bits.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless method (unbiased).
  uint64_t UniformUint64(uint64_t bound) {
    HYBRIDGNN_CHECK(bound > 0) << "UniformUint64 bound must be positive";
    uint64_t x = NextUint64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t t = -bound % bound;
      while (l < t) {
        x = NextUint64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1): a multiple of 2^-53.
  double UniformDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi]: lo + u * (hi - lo) with u UniformDouble()
  /// rounded to float. That rounding gives u = 1.0f for draws of at least
  /// 1 - 2^-25 (about one in 2^25), so the result can be `hi`; a caller
  /// that needs [lo, hi) must reject it.
  float UniformFloat(float lo, float hi) {
    return lo + static_cast<float>(UniformDouble()) * (hi - lo);
  }

  /// Standard normal via Box-Muller.
  double Normal();
  /// Normal with given mean/stddev.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Returns a geometric-ish power-law degree sample in [1, max_value]:
  /// P(x) ~ x^(-alpha). Used by synthetic dataset generators.
  uint64_t PowerLaw(double alpha, uint64_t max_value);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Forks an independent child stream; children with distinct `stream_id`s
  /// are decorrelated from the parent and from each other. Useful for giving
  /// each worker thread its own reproducible stream.
  Rng Fork(uint64_t stream_id) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  // Cached second output of Box-Muller.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_COMMON_RNG_H_
