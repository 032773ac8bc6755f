#include "baselines/line.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "sampling/negative_sampler.h"
#include "sampling/sgns.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

namespace {

// One sampled-edge SGD step on both orders and both directions; `rows`
// holds 1 + negatives row pointers. LINE's push is the same
// sigmoid-gradient update as SGNS. Hogwild workers race on embedding rows
// by design (sparse updates, tolerant objective) — uninstrumented under
// TSan like SgnsPairUpdate.
HYBRIDGNN_NO_SANITIZE_THREAD
void LineUpdateEdge(Tensor& first, Tensor& second, Tensor& second_ctx,
                    const NegativeSampler& sampler, const EdgeTriple& e,
                    std::vector<float*>& rows, float lr, Rng& rng) {
  // Undirected: train both directions.
  for (int dir = 0; dir < 2; ++dir) {
    const NodeId u = dir == 0 ? e.src : e.dst;
    const NodeId v = dir == 0 ? e.dst : e.src;
    // First order: symmetric, targets live in `first` itself, so a target
    // may be u's own row; the pair step orders that exactly as
    // one-row-at-a-time steps would.
    SgnsPairUpdate(first.RowPtr(u), first, v, sampler, rows, lr, rng);
    // Second order: targets are context rows.
    SgnsPairUpdate(second.RowPtr(u), second_ctx, v, sampler, rows, lr, rng);
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
    std::vector<float*> rows(1 + options_.negatives);
    for (size_t s = 0; s < total; ++s) {
      const float lr = options_.learning_rate *
                       (1.0f - 0.9f * static_cast<float>(s) /
                                   static_cast<float>(total));
      const auto& e = edges[rng.UniformUint64(edges.size())];
      LineUpdateEdge(first, second, second_ctx, sampler, e, rows, lr, rng);
    }
  } else {
    // Hogwild: contiguous shards of the sample budget, per-worker streams,
    // lr decay keyed off the global sample index.
    RunParallel(threads, threads, [&](size_t w) {
      Rng wrng = rng.Fork(w + 1);
      const size_t lo = total * w / threads;
      const size_t hi = total * (w + 1) / threads;
      std::vector<float*> rows(1 + options_.negatives);
      for (size_t s = lo; s < hi; ++s) {
        const float lr = options_.learning_rate *
                         (1.0f - 0.9f * static_cast<float>(s) /
                                     static_cast<float>(total));
        const auto& e = edges[wrng.UniformUint64(edges.size())];
        LineUpdateEdge(first, second, second_ctx, sampler, e, rows, lr,
                       wrng);
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
