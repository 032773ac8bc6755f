#include "baselines/line.h"

#include <cmath>
#include <string>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "sampling/negative_sampler.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

namespace {

// One (u, target) sigmoid step against `table` rows: accumulates the u
// gradient in `grad`, updates the target row in place. LINE's push is the
// same fused sigmoid-gradient update as SGNS, so it dispatches through the
// kernel layer (scalar/AVX2).
HYBRIDGNN_NO_SANITIZE_THREAD
void LinePush(const float* eu, float* row, float* grad, size_t half,
              float label, float lr) {
  kernels::SgnsUpdateStep(eu, row, grad, half, label, lr);
}

// One sampled-edge SGD step on both orders and both directions. Hogwild
// workers race on embedding rows by design (sparse updates, tolerant
// objective) — uninstrumented under TSan like SgnsEmbedder::Update.
HYBRIDGNN_NO_SANITIZE_THREAD
void LineUpdateEdge(Tensor& first, Tensor& second, Tensor& second_ctx,
                    const NegativeSampler& sampler, const EdgeTriple& e,
                    size_t half, size_t negatives, float lr, Rng& rng) {
  // Undirected: train both directions.
  for (int dir = 0; dir < 2; ++dir) {
    const NodeId u = dir == 0 ? e.src : e.dst;
    const NodeId v = dir == 0 ? e.dst : e.src;
    // ---- first order: symmetric, targets live in `first` itself ----
    {
      float* eu = first.RowPtr(u);
      std::vector<float> grad(half, 0.0f);
      LinePush(eu, first.RowPtr(v), grad.data(), half, 1.0f, lr);
      for (size_t n = 0; n < negatives; ++n) {
        LinePush(eu, first.RowPtr(sampler.SampleLike(v, rng)), grad.data(),
                 half, 0.0f, lr);
      }
      kernels::Axpy(-1.0f, grad.data(), eu, half);
    }
    // ---- second order: targets are context rows ----
    {
      float* eu = second.RowPtr(u);
      std::vector<float> grad(half, 0.0f);
      LinePush(eu, second_ctx.RowPtr(v), grad.data(), half, 1.0f, lr);
      for (size_t n = 0; n < negatives; ++n) {
        LinePush(eu, second_ctx.RowPtr(sampler.SampleLike(v, rng)),
                 grad.data(), half, 0.0f, lr);
      }
      kernels::Axpy(-1.0f, grad.data(), eu, half);
    }
  }
}

}  // namespace

Status Line::Fit(const MultiplexHeteroGraph& g, const FitOptions& options) {
  const auto& edges = g.edges();
  if (edges.empty()) return Status::FailedPrecondition("LINE: no edges");
  if (!std::isfinite(options_.learning_rate) ||
      options_.learning_rate <= 0.0f) {
    return Status::InvalidArgument("LINE: learning rate " +
                                   std::to_string(options_.learning_rate) +
                                   " is not a positive finite number");
  }
  const size_t threads = options.deterministic ? 1 : options.threads();
  Rng rng(options_.seed);
  const size_t half = std::max<size_t>(1, options_.dim / 2);
  NegativeSampler sampler(g);

  // Order 1: symmetric vertex embeddings; score = u_i . u_j.
  Tensor first(g.num_nodes(), half);
  EmbeddingInit(first, rng);
  // Order 2: vertex + context embeddings; score = u_i . c_j.
  Tensor second(g.num_nodes(), half);
  EmbeddingInit(second, rng);
  Tensor second_ctx(g.num_nodes(), half);

  const size_t total = options_.samples_per_edge * edges.size();
  if (threads <= 1 || total < 2 * threads) {
    for (size_t s = 0; s < total; ++s) {
      const float lr = options_.learning_rate *
                       (1.0f - 0.9f * static_cast<float>(s) /
                                   static_cast<float>(total));
      const auto& e = edges[rng.UniformUint64(edges.size())];
      LineUpdateEdge(first, second, second_ctx, sampler, e, half,
                     options_.negatives, lr, rng);
    }
  } else {
    // Hogwild: contiguous shards of the sample budget, per-worker streams,
    // lr decay keyed off the global sample index.
    RunParallel(threads, threads, [&](size_t w) {
      Rng wrng = rng.Fork(w + 1);
      const size_t lo = total * w / threads;
      const size_t hi = total * (w + 1) / threads;
      for (size_t s = lo; s < hi; ++s) {
        const float lr = options_.learning_rate *
                         (1.0f - 0.9f * static_cast<float>(s) /
                                     static_cast<float>(total));
        const auto& e = edges[wrng.UniformUint64(edges.size())];
        LineUpdateEdge(first, second, second_ctx, sampler, e, half,
                       options_.negatives, lr, wrng);
      }
    });
  }
  options.Report("train", 1, 1);
  // Normalize halves so neither order dominates the concatenated dot. A
  // diverged run still fails SetTable's check: a row holding a NaN or an
  // Inf keeps a NaN through normalization (its norm is NaN or Inf).
  L2NormalizeRowsInPlace(first);
  L2NormalizeRowsInPlace(second);
  return SetTable("LINE", ConcatCols({first, second}));
}

}  // namespace hybridgnn
