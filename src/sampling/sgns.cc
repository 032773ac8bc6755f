#include "sampling/sgns.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

SgnsEmbedder::SgnsEmbedder(size_t num_nodes, size_t dim, Rng& rng)
    : emb_(num_nodes, dim), ctx_(num_nodes, dim) {
  EmbeddingInit(emb_, rng);
  // Context vectors start at zero, as in word2vec.
}

// Hogwild callers race on the rows by design, so this stays
// uninstrumented under TSan; the kernel bodies (runtime scalar/AVX2
// dispatch) carry the same annotation.
HYBRIDGNN_NO_SANITIZE_THREAD
void SgnsPairUpdate(float* e, Tensor& targets, NodeId context,
                    const NegativeSampler& sampler, std::vector<float*>& rows,
                    float lr, Rng& rng) {
  rows[0] = targets.RowPtr(context);
  for (size_t k = 1; k < rows.size(); ++k) {
    rows[k] = targets.RowPtr(sampler.SampleLike(context, rng));
  }
  kernels::SgnsPairStep(e, rows.data(), rows.size(), targets.cols(), lr);
}

Status SgnsEmbedder::Train(const PairStream& stream,
                           const NegativeSampler& sampler,
                           const SgnsOptions& opts, Rng& rng) {
  // Every SGNS-style trainer (HybridGNN pretrain, DeepWalk, node2vec, ...)
  // funnels through here, so one stage timer covers the skip-gram hot loop.
  static obs::LatencyHistogram& epoch_stage = obs::Stage("core/sgns_epoch");
  static obs::Counter& pairs_trained =
      obs::GlobalRegistry().GetCounter("core/sgns_pairs_trained");
  static obs::Counter& nonfinite_counter =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  if (!std::isfinite(opts.learning_rate) || opts.learning_rate <= 0.0f) {
    return Status::InvalidArgument("SGNS learning rate " +
                                   std::to_string(opts.learning_rate) +
                                   " is not a positive finite number");
  }
  if (stream.pairs_per_pass() == 0) {
    return Status::FailedPrecondition("no skip-gram pairs to train on");
  }
  // An epoch is one pass of the stream, cut at the pair cap. The lr decay
  // keys off this length.
  const size_t use =
      opts.max_pairs_per_epoch == 0
          ? stream.pairs_per_pass()
          : std::min(stream.pairs_per_pass(), opts.max_pairs_per_epoch);
  const size_t walks = stream.walks_per_pass();
  const size_t threads = ResolveNumThreads(opts.num_threads);
  // Trains pairs [lo, hi) of the epoch, drawn from `wrng` within
  // `max_walks` walks; returns how many it drew.
  auto train_range = [&](size_t lo, size_t hi, size_t max_walks, Rng& wrng) {
    PairStream::Reader reader(stream, hi - lo, max_walks, wrng);
    std::vector<float*> rows(1 + opts.negatives);
    SkipGramPair p;
    size_t i = lo;
    for (; reader.Next(&p); ++i) {
      // Linear learning-rate decay within the epoch, word2vec style.
      const float lr = opts.learning_rate *
                       (1.0f - 0.9f * static_cast<float>(i) /
                                   static_cast<float>(use));
      SgnsPairUpdate(emb_.RowPtr(p.center), ctx_, p.context, sampler, rows,
                     lr, wrng);
    }
    return i - lo;
  };
  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(epoch_stage);
    if (threads <= 1 || use < 2 * threads) {
      pairs_trained.Add(train_range(0, use, walks, rng));
    } else {
      // Hogwild: worker w trains its contiguous share of the epoch from
      // its own forked stream, walks and negatives alike; the lr schedule
      // keys off the epoch-wide index so it matches the serial profile.
      std::vector<size_t> trained(threads);
      RunParallel(threads, threads, [&](size_t w) {
        Rng wrng = rng.Fork(w + 1);
        trained[w] =
            train_range(use * w / threads, use * (w + 1) / threads,
                        walks * (w + 1) / threads - walks * w / threads, wrng);
      });
      for (size_t n : trained) pairs_trained.Add(n);
      // Keep the parent stream moving so successive epochs (and the
      // caller) don't see identical fork seeds.
      rng.NextUint64();
    }
    if (!AllFinite(emb_) || !AllFinite(ctx_)) {
      nonfinite_counter.Add(1);
      return Status::FailedPrecondition(
          "SGNS embeddings are not finite after epoch " +
          std::to_string(epoch));
    }
  }
  return Status::OK();
}

}  // namespace hybridgnn
