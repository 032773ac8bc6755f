#ifndef HYBRIDGNN_SAMPLING_SGNS_H_
#define HYBRIDGNN_SAMPLING_SGNS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/types.h"
#include "sampling/corpus.h"
#include "sampling/negative_sampler.h"
#include "tensor/tensor.h"

namespace hybridgnn {

/// Hyper-parameters of skip-gram-with-negative-sampling training.
struct SgnsOptions {
  size_t dim = 128;
  size_t negatives = 5;
  float learning_rate = 0.025f;
  size_t epochs = 2;
  /// Pairs drawn per epoch (0 = no cap). An epoch also ends after one pass
  /// of the stream: PairStream::pairs_per_pass() pairs, or its
  /// walks_per_pass() walks, whichever comes first.
  size_t max_pairs_per_epoch = 200000;
  /// Worker threads for Train. 1 (the default) draws and trains every pair
  /// from the caller's Rng, so a fixed seed gives the same bits on every
  /// run; 0 defers to HYBRIDGNN_THREADS. With more than one thread each
  /// worker draws its share of the epoch from its own forked stream and
  /// updates emb_/ctx_ rows lock-free (Hogwild, Recht et al. 2011): sparse
  /// updates rarely collide, and word2vec-family systems tolerate the
  /// occasional lost write. Results are then nondeterministic run-to-run.
  size_t num_threads = 1;
};

/// One SGD step of skip-gram with negative sampling for the center row `e`
/// (targets.cols() floats): the positive row targets[context], then one
/// noise row per remaining slot of `rows`, drawn like `context` from
/// `sampler`, all trained in one kernels::SgnsPairStep. `rows` is caller
/// scratch of 1 + negatives slots. Hogwild callers race on the rows by
/// design, so it is uninstrumented under TSan. SgnsEmbedder and LINE train
/// through it.
void SgnsPairUpdate(float* e, Tensor& targets, NodeId context,
                    const NegativeSampler& sampler, std::vector<float*>& rows,
                    float lr, Rng& rng);

/// Classic SGNS embedder with manual SGD updates — the high-throughput
/// word2vec formulation used by DeepWalk/node2vec, and as *pretraining* for
/// GATNE's and HybridGNN's base/context tables (GATNE's reference
/// implementation does the same).
class SgnsEmbedder {
 public:
  SgnsEmbedder(size_t num_nodes, size_t dim, Rng& rng);

  /// Runs `opts.epochs` epochs of pairs drawn from `stream`, the learning
  /// rate decaying linearly within each; each pair is one SgnsPairUpdate
  /// with `opts.negatives` noise rows. Fails with InvalidArgument on a
  /// non-finite or non-positive learning rate, and with FailedPrecondition
  /// when the stream has no pairs or a table is non-finite after an epoch.
  Status Train(const PairStream& stream, const NegativeSampler& sampler,
               const SgnsOptions& opts, Rng& rng);

  const Tensor& embeddings() const { return emb_; }
  const Tensor& contexts() const { return ctx_; }
  Tensor& mutable_embeddings() { return emb_; }

 private:
  Tensor emb_;  // input vectors
  Tensor ctx_;  // output (context) vectors
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SAMPLING_SGNS_H_
