#include "baselines/node2vec.h"

#include <utility>

namespace hybridgnn {

Status Node2Vec::Fit(const MultiplexHeteroGraph& g,
                     const FitOptions& options) {
  Rng rng(options_.seed);
  const PairStream stream =
      PairStream::Node2Vec(g, options_.corpus, options_.p, options_.q);
  options.Report("corpus", 1, 1);
  NegativeSampler sampler(g);
  SgnsOptions sgns = options_.sgns;
  sgns.num_threads = options.deterministic ? 1 : options.threads();
  SgnsEmbedder embedder(g.num_nodes(), sgns.dim, rng);
  const Status st = embedder.Train(stream, sampler, sgns, rng);
  if (!st.ok()) return Status(st.code(), "node2vec: " + st.message());
  options.Report("train", 1, 1);
  return SetTable("node2vec", std::move(embedder.mutable_embeddings()));
}

}  // namespace hybridgnn
