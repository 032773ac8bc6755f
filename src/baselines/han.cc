#include "baselines/han.h"

#include <memory>

#include "nn/aggregator.h"
#include "nn/embedding.h"
#include "nn/semantic_attention.h"
#include "nn/sparse.h"
#include "sampling/walker.h"

namespace hybridgnn {

namespace {

/// Per-metapath node-level aggregation: mean of the final-level metapath-
/// guided neighbors combined with self (HAN's node-level attention is
/// approximated by its mean-field limit; the semantic level is exact).
ag::Var MetapathEmbed(const MultiplexHeteroGraph& g,
                      const MetapathScheme& scheme, NodeId v, size_t fanout,
                      const EmbeddingTable& features,
                      const MeanAggregator& agg, Rng& rng) {
  auto levels = MetapathGuidedNeighbors(g, scheme, v, fanout, rng);
  const auto& peers = levels.back().empty()
                          ? levels[levels.size() > 1 ? levels.size() - 2 : 0]
                          : levels.back();
  ag::Var self = features.ForwardNodes({v});
  if (peers.empty()) return self;
  // Single-segment frontier over the peers: fused gather + segment mean.
  static thread_local MinibatchFrontier frontier;
  frontier.Clear();
  for (NodeId u : peers) frontier.indices.push_back(static_cast<int32_t>(u));
  frontier.CloseSegment();
  ag::Var peer_rows = GatherRowsSegmented(features.table(), frontier);
  return agg.Forward(frontier, self, peer_rows);
}

}  // namespace

Status Han::Fit(const MultiplexHeteroGraph& g, const FitOptions&) {
  for (const auto& s : schemes_) HYBRIDGNN_RETURN_IF_ERROR(s.Validate(g));
  Rng rng(options_.seed);
  EmbeddingTable features(g.num_nodes(), options_.dim, rng);
  std::vector<std::unique_ptr<MeanAggregator>> aggs;
  for (size_t i = 0; i < schemes_.size(); ++i) {
    aggs.push_back(std::make_unique<MeanAggregator>(options_.dim, rng));
  }
  SemanticAttention semantic(options_.dim, options_.semantic_hidden, rng);
  Adam optimizer(options_.train.learning_rate);
  optimizer.AddParameters(features.parameters());
  for (const auto& a : aggs) optimizer.AddParameters(a->parameters());
  optimizer.AddParameters(semantic.parameters());

  auto forward = [&](NodeId v, Rng& r) {
    std::vector<ag::Var> per_path;
    for (size_t i = 0; i < schemes_.size(); ++i) {
      if (schemes_[i].source_type() != g.node_type(v)) continue;
      per_path.push_back(MetapathEmbed(g, schemes_[i], v, options_.fanout,
                                       features, *aggs[i], r));
    }
    if (per_path.empty()) return features.ForwardNodes({v});
    if (per_path.size() == 1) return per_path[0];
    return semantic.Forward(ag::ConcatRows(per_path));
  };

  HYBRIDGNN_RETURN_IF_ERROR(TrainLink(
      "HAN", g, options_.train, optimizer, rng,
      MemoizedDotHooks([&](NodeId v) { return forward(v, rng); })));

  Rng cache_rng(options_.seed ^ 0xFACADE);
  return SetTable("HAN",
                  TableOf(g.num_nodes(), options_.dim, [&](NodeId v) {
                    return forward(v, cache_rng);
                  }));
}

}  // namespace hybridgnn
