#include "nn/attention.h"

#include <cmath>

#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

SelfAttention::SelfAttention(size_t in_dim, size_t key_dim, Rng& rng,
                             bool identity_values)
    : in_dim_(in_dim), key_dim_(key_dim), identity_values_(identity_values) {
  auto make = [&](ag::Var& dst) {
    Tensor w(in_dim, key_dim);
    XavierUniform(w, rng);
    dst = ag::Param(std::move(w));
    RegisterParameter(dst);
  };
  make(wq_);
  make(wk_);
  if (!identity_values_) make(wv_);
}

ag::Var SelfAttention::Forward(const ag::Var& h, size_t blocks) const {
  const float inv_sqrt_dk =
      1.0f / std::sqrt(static_cast<float>(key_dim_));
  // The projections are row-wise, so they run once over every block. One
  // block keeps the dense MatMul/Transpose ops of the single-set callers.
  ag::Var q = ag::MatMul(h, wq_);
  ag::Var k = ag::MatMul(h, wk_);
  ag::Var logits = blocks == 1 ? ag::MatMul(q, ag::Transpose(k))
                               : ag::BatchedMatMulTransB(q, k, blocks);
  ag::Var weights = ag::SoftmaxRows(ag::Scale(logits, inv_sqrt_dk));
  ag::Var v = identity_values_ ? h : ag::MatMul(h, wv_);
  return blocks == 1 ? ag::MatMul(weights, v)
                     : ag::BatchedMatMul(weights, v, blocks);
}

Tensor SelfAttention::AttentionScores(const Tensor& h) const {
  const float inv_sqrt_dk =
      1.0f / std::sqrt(static_cast<float>(key_dim_));
  Tensor q = MatMul(h, wq_->value);
  Tensor k = MatMul(h, wk_->value);
  Tensor logits = Scale(MatMulTransB(q, k), inv_sqrt_dk);
  return SoftmaxRows(logits);
}

}  // namespace hybridgnn
