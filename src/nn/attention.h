#ifndef HYBRIDGNN_NN_ATTENTION_H_
#define HYBRIDGNN_NN_ATTENTION_H_

#include "common/rng.h"
#include "nn/module.h"

namespace hybridgnn {

/// Single-head scaled dot-product self-attention (Vaswani et al. 2017),
/// exactly the block used twice in HybridGNN's hierarchical attention
/// (Eqs. 6 and 8):
///   A(H) = softmax(H Wq (H Wk)^T / sqrt(d_k)) H Wv.
/// When `identity_values` is set, the value projection Wv is dropped and the
/// layer computes softmax(H Wq (H Wk)^T / sqrt(d_k)) H — a pure reweighting
/// of the input rows (output [m, in_dim]). This matches the paper's own
/// analysis of its attention (Eq. 14: H_hat = concat(alpha_j * h_j)) and is
/// far better behaved under small training budgets.
class SelfAttention : public Module {
 public:
  SelfAttention(size_t in_dim, size_t key_dim, Rng& rng,
                bool identity_values = false);

  /// h is [blocks*m, in_dim]: `blocks` independent sets of m items, each
  /// attending only within itself (m = rows / blocks). Returns
  /// [blocks*m, key_dim], or [blocks*m, in_dim] when identity_values is set.
  /// One block runs on dense ops; several run on the batched block
  /// products, whose attention logits are dot products (bit-identical to
  /// the dense ops on the scalar kernel backend, within float rounding on
  /// AVX2).
  ag::Var Forward(const ag::Var& h, size_t blocks = 1) const;

  /// Returns the row-stochastic attention matrix softmax(QK^T/sqrt(dk)) for
  /// the *current values* of h (no gradient) — used for the paper's Fig. 6
  /// attention-score introspection.
  Tensor AttentionScores(const Tensor& h) const;

  size_t in_dim() const { return in_dim_; }
  size_t key_dim() const { return key_dim_; }

 private:
  size_t in_dim_;
  size_t key_dim_;
  bool identity_values_;
  ag::Var wq_;  // [in, key]
  ag::Var wk_;  // [in, key]
  ag::Var wv_;  // [in, key]; absent when identity_values
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_NN_ATTENTION_H_
