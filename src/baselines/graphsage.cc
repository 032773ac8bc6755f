#include "baselines/graphsage.h"

#include "nn/aggregator.h"
#include "nn/embedding.h"
#include "nn/sparse.h"
#include "sampling/neighbor_sampler.h"

namespace hybridgnn {

Status GraphSage::Fit(const MultiplexHeteroGraph& g, const FitOptions&) {
  Rng rng(options_.seed);
  EmbeddingTable features(g.num_nodes(), options_.dim, rng);
  MeanAggregator agg(options_.dim, rng);
  Adam optimizer(options_.train.learning_rate);
  optimizer.AddParameters(features.parameters());
  optimizer.AddParameters(agg.parameters());

  auto forward = [&](NodeId v, Rng& r) {
    auto levels = SampleLayers(g, v, options_.num_layers, options_.fanout, r);
    // Frontier path: one fused gather over all levels, one segment mean,
    // then the aggregator fold (means row 0 is the deepest level).
    static thread_local MinibatchFrontier frontier;
    BuildLevelFrontier(levels, &frontier);
    ag::Var block = GatherRowsSegmented(features.table(), frontier);
    ag::Var means = SegmentMean(block, frontier);
    const size_t num_levels = frontier.num_segments();
    ag::Var rep = num_levels == 1 ? means : ag::SliceRows(means, 0, 1);
    for (size_t i = 1; i < num_levels; ++i) {
      rep = agg.Forward(MinibatchFrontier::IdentityRow(),
                        ag::SliceRows(means, i, 1), rep);
    }
    return rep;
  };

  HYBRIDGNN_RETURN_IF_ERROR(TrainLink(
      "GraphSage", g, options_.train, optimizer, rng,
      MemoizedDotHooks([&](NodeId v) { return forward(v, rng); })));

  // Cache inference embeddings.
  Rng cache_rng(options_.seed ^ 0xABCDEF);
  return SetTable("GraphSage",
                  TableOf(g.num_nodes(), options_.dim, [&](NodeId v) {
                    return forward(v, cache_rng);
                  }));
}

}  // namespace hybridgnn
