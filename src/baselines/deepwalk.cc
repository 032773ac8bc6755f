#include "baselines/deepwalk.h"

#include <utility>

namespace hybridgnn {

Status DeepWalk::Fit(const MultiplexHeteroGraph& g,
                     const FitOptions& options) {
  Rng rng(options_.seed);
  // A pure walk model, as in the paper: no direct-edge pairs.
  const PairStream stream =
      PairStream::Uniform(g, options_.corpus, /*edge_copies=*/0);
  options.Report("corpus", 1, 1);
  NegativeSampler sampler(g);
  SgnsOptions sgns = options_.sgns;
  sgns.num_threads = options.deterministic ? 1 : options.threads();
  SgnsEmbedder embedder(g.num_nodes(), sgns.dim, rng);
  const Status st = embedder.Train(stream, sampler, sgns, rng);
  if (!st.ok()) return Status(st.code(), "DeepWalk: " + st.message());
  options.Report("train", 1, 1);
  return SetTable("DeepWalk", std::move(embedder.mutable_embeddings()));
}

}  // namespace hybridgnn
